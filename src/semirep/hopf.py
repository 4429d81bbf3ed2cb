"""Finite-dimensional Hopf *-algebras as dense structure-constant tensors.

Conventions for a HopfData of dimension d with basis e_0..e_{d-1}:
  - mult[i, j, k]:    e_i e_j = sum_k mult[i, j, k] e_k
  - unit[i]:          1 = sum_i unit[i] e_i
  - comult[i, j, k]:  Delta(e_i) = sum_{j,k} comult[i, j, k] e_j (x) e_k
  - counit[i]:        eps(e_i)
  - antipode[j, i]:   S(e_i) = sum_j antipode[j, i] e_j (acts on coefficient
                      vectors by matrix multiplication)
  - star[j, i]:       coeffs(a^*) = star @ conj(coeffs(a))
  - haar[i]:          h(e_i)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import TOL_VERIFY, int_array, max_abs, nullspace
from .errors import (NoUniqueHaar, NotAntihomomorphism, NotAutomorphism,
                     ParseError, ValidationError)
from .groups import FiniteGroup


class HopfData:
    """A finite-dimensional Hopf *-algebra with an invariant state."""

    def __init__(self, mult, unit, comult, counit, antipode, star, haar):
        self.mult = np.asarray(mult, dtype=complex)
        self.unit = np.asarray(unit, dtype=complex)
        self.comult = np.asarray(comult, dtype=complex)
        self.counit = np.asarray(counit, dtype=complex)
        self.antipode = np.asarray(antipode, dtype=complex)
        self.star = np.asarray(star, dtype=complex)
        self.haar = np.asarray(haar, dtype=complex)
        d = self.mult.shape[0]
        shapes = {
            "mult": (d, d, d), "unit": (d,), "comult": (d, d, d),
            "counit": (d,), "antipode": (d, d), "star": (d, d), "haar": (d,),
        }
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} has shape {getattr(self, name).shape}, "
                                      f"expected {shape}")
        self.dim = d
        self._cache: dict = {}

    # -- element-level helpers (coefficient vectors) --------------------------

    def product(self, x, y):
        return np.einsum("i,j,ijk->k", x, y, self.mult)

    def star_vec(self, x):
        return self.star @ np.conj(x)

    def haar_vec(self, x) -> complex:
        return complex(self.haar @ x)

    def pair(self, x, y) -> complex:
        """The Haar pairing h(x^* y), through the cached Gram matrix."""
        return complex(np.conj(x) @ self.gram() @ y)

    # -- derived structure -----------------------------------------------------

    def gram(self) -> np.ndarray:
        """Gram matrix G[i, j] = h(e_i^* e_j) of the Haar inner product."""
        if "gram" not in self._cache:
            star_basis = self.star  # column i = coeffs of e_i^*
            g = np.einsum("li,ljk,k->ij", star_basis, self.mult, self.haar)
            self._cache["gram"] = g
        return self._cache["gram"]

    def is_commutative(self) -> bool:
        return max_abs(self.mult - self.mult.transpose(1, 0, 2)) <= TOL_VERIFY

    def is_cocommutative(self) -> bool:
        return max_abs(self.comult - self.comult.transpose(0, 2, 1)) <= TOL_VERIFY


@dataclass(frozen=True)
class QAutomorphism:
    """A unital *-algebra automorphism intertwining the comultiplication."""

    parent: HopfData
    matrix: np.ndarray = field(repr=False)

    def __call__(self, x):
        return self.matrix @ x

    def residual(self) -> float:
        h = self.parent
        m = self.matrix
        worst = max_abs(m @ h.unit - h.unit)
        worst = max(worst, max_abs(h.counit @ m - h.counit))
        # multiplicativity: alpha(e_i e_j) = alpha(e_i) alpha(e_j)
        lhs = np.einsum("ijk,pk->ijp", h.mult, m)
        rhs = np.einsum("ai,bj,abp->ijp", m, m, h.mult)
        worst = max(worst, max_abs(lhs - rhs))
        # star compatibility: M @ star = star @ conj(M)
        worst = max(worst, max_abs(m @ h.star - h.star @ np.conj(m)))
        # comultiplication: (M (x) M) Delta = Delta M
        lhs = np.einsum("ijk,pj,qk->ipq", h.comult, m, m)
        rhs = np.einsum("ki,kpq->ipq", m, h.comult)
        worst = max(worst, max_abs(lhs - rhs))
        return worst


def verify_axioms(h: HopfData) -> dict:
    """Residual per Hopf *-algebra axiom; passes iff all below TOL_VERIFY."""
    d = h.dim
    res: dict[str, float] = {}
    eye = np.eye(d)

    assoc = np.einsum("ijm,mkl->ijkl", h.mult, h.mult) \
        - np.einsum("jkm,iml->ijkl", h.mult, h.mult)
    res["associativity"] = max_abs(assoc)
    res["unit"] = max(
        max_abs(np.einsum("i,ijk->jk", h.unit, h.mult) - eye),
        max_abs(np.einsum("j,ijk->ik", h.unit, h.mult) - eye))

    coassoc = np.einsum("iml,mjk->ijkl", h.comult, h.comult) \
        - np.einsum("ijm,mkl->ijkl", h.comult, h.comult)
    res["coassociativity"] = max_abs(coassoc)
    res["counit"] = max(
        max_abs(np.einsum("ijk,j->ik", h.comult, h.counit) - eye),
        max_abs(np.einsum("ijk,k->ij", h.comult, h.counit) - eye))

    # Delta is a unital algebra morphism
    lhs = np.einsum("ijk,kpq->ijpq", h.mult, h.comult)
    rhs = np.einsum("iab,jcd,acp,bdq->ijpq", h.comult, h.comult, h.mult, h.mult,
                    optimize=True)
    res["comult_multiplicative"] = max_abs(lhs - rhs)
    res["comult_unital"] = max_abs(np.einsum("i,ijk->jk", h.unit, h.comult)
                                   - np.outer(h.unit, h.unit))
    res["counit_multiplicative"] = max_abs(
        np.einsum("ijk,k->ij", h.mult, h.counit) - np.outer(h.counit, h.counit))

    # star: antilinear involutive antiautomorphism, Delta a *-morphism
    res["star_involutive"] = max_abs(h.star @ np.conj(h.star) - eye)
    lhs = np.einsum("ijk,pk->ijp", np.conj(h.mult), h.star)  # coeffs of (e_i e_j)^*
    rhs = np.einsum("bj,ai,bap->ijp", h.star, h.star, h.mult)  # coeffs of e_j^* e_i^*
    res["star_antimultiplicative"] = max_abs(lhs - rhs)
    lhs = np.einsum("ki,kpq->ipq", h.star, h.comult)  # Delta(e_i^*)
    rhs = np.einsum("ijk,pj,qk->ipq", np.conj(h.comult), h.star, h.star)
    res["comult_star"] = max_abs(lhs - rhs)

    # antipode axiom m(S (x) id)Delta = unit . counit = m(id (x) S)Delta
    left = np.einsum("ijk,lj,lkp->ip", h.comult, h.antipode, h.mult, optimize=True)
    right = np.einsum("ijk,lk,jlp->ip", h.comult, h.antipode, h.mult, optimize=True)
    target = np.outer(h.counit, h.unit)
    res["antipode"] = max(max_abs(left - target), max_abs(right - target))

    # Haar state: normalized, invariant, positive
    res["haar_unital"] = abs(complex(h.haar @ h.unit) - 1.0)
    res["haar_invariance"] = max(
        max_abs(np.einsum("ijk,j->ik", h.comult, h.haar) - np.outer(h.haar, h.unit)),
        max_abs(np.einsum("ijk,k->ij", h.comult, h.haar) - np.outer(h.haar, h.unit)))
    gram = h.gram()
    res["haar_hermitian"] = max_abs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_positivity"] = max(0.0, float(-eigs.min()))

    res["max"] = max(v for k, v in res.items() if k != "max") if res else 0.0
    res["pass"] = res["max"] < TOL_VERIFY
    return res


def haar_solve(h: HopfData) -> np.ndarray:
    """Solve for the invariant state directly; cross-checks the stored haar."""
    d = h.dim
    # (eta (x) id) Delta(e_i) = eta(e_i) 1 and the (id (x) eta) mirror.
    rows = []
    for i in range(d):
        for k in range(d):
            row = h.comult[i, :, k].copy()
            row[i] -= h.unit[k]
            rows.append(row)
    for i in range(d):
        for j in range(d):
            row = h.comult[i, j, :].copy()
            row[i] -= h.unit[j]
            rows.append(row)
    ns = nullspace(np.asarray(rows), rtol=1e-10)
    if ns.shape[0] != 1:
        raise NoUniqueHaar(f"invariant-functional space has dimension {ns.shape[0]}")
    eta = ns[0]
    scale = complex(eta @ h.unit)
    if abs(scale) < 1e-12:
        raise NoUniqueHaar("invariant functional vanishes on the unit")
    return eta / scale


def is_kac(h: HopfData) -> bool:
    """Kac type iff the antipode is involutive."""
    return max_abs(h.antipode @ h.antipode - np.eye(h.dim)) < TOL_VERIFY


def function_algebra(g: FiniteGroup) -> HopfData:
    """C(G): pointwise functions on a finite group, basis of delta functions."""
    n = g.order
    mult = np.zeros((n, n, n), dtype=complex)
    comult = np.zeros((n, n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    for i in range(n):
        mult[i, i, i] = 1.0
        antipode[g.inverse(i), i] = 1.0
        for a in range(n):
            for b in range(n):
                if g.mul(a, b) == i:
                    comult[i, a, b] = 1.0
    unit = np.ones(n, dtype=complex)
    counit = np.zeros(n, dtype=complex)
    counit[g.identity] = 1.0
    star = np.eye(n, dtype=complex)
    haar = np.full(n, 1.0 / n, dtype=complex)
    return HopfData(mult, unit, comult, counit, antipode, star, haar)


def group_algebra(g: FiniteGroup) -> HopfData:
    """C[G]: the group algebra, cocommutative dual model."""
    n = g.order
    mult = np.zeros((n, n, n), dtype=complex)
    comult = np.zeros((n, n, n), dtype=complex)
    antipode = np.zeros((n, n), dtype=complex)
    star = np.zeros((n, n), dtype=complex)
    for i in range(n):
        comult[i, i, i] = 1.0
        antipode[g.inverse(i), i] = 1.0
        star[g.inverse(i), i] = 1.0
        for j in range(n):
            mult[i, j, g.mul(i, j)] = 1.0
    unit = np.zeros(n, dtype=complex)
    unit[g.identity] = 1.0
    counit = np.ones(n, dtype=complex)
    haar = np.zeros(n, dtype=complex)
    haar[g.identity] = 1.0
    return HopfData(mult, unit, comult, counit, antipode, star, haar)


def action_from_group_hom(h: HopfData, lam: FiniteGroup, hom,
                          kind: str) -> list[QAutomorphism]:
    """Build the antihomomorphism r -> alpha*_r from per-element base maps.

    kind 'function': hom[r] is a permutation g -> alpha_r(g) of the base group,
    r -> alpha_r a homomorphism into Aut(G); the pullback is used.
    kind 'group': hom[r] is an automorphism beta_r of Gamma for the group
    algebra; alpha*_r sends lambda_gamma to lambda_{beta_{r^{-1}}(gamma)}.
    kind 'matrix': hom[r] is the matrix of alpha*_r itself.
    """
    d = h.dim
    mats = []
    if kind in ("function", "group"):
        # Both constructors use the same pullback formula: alpha*_r moves basis
        # vector g to hom[r^{-1}](g) (hom[r^{-1}] = (hom[r])^{-1} when hom is a
        # homomorphism, which the antihomomorphism check below enforces).
        try:
            perms = [int_array(p) for p in hom]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"action must list integer permutations: {exc}") from exc
        if len(perms) != lam.order:
            raise NotAutomorphism("need one permutation per acting group element")
        for r, p in enumerate(perms):
            if p.shape != (d,) or not np.array_equal(np.sort(p), np.arange(d)):
                raise NotAutomorphism(f"action entry {r} does not permute 0..{d - 1}")
        for r in lam.elements():
            m = np.zeros((d, d), dtype=complex)
            p_inv = perms[lam.inverse(r)]
            for gidx in range(d):
                m[p_inv[gidx], gidx] = 1.0
            mats.append(m)
    elif kind == "matrix":
        mats = [np.asarray(m, dtype=complex) for m in hom]
        if len(mats) != lam.order:
            raise NotAutomorphism("need one matrix per acting group element")
        if any(m.shape != (d, d) for m in mats):
            raise NotAutomorphism(f"action matrices must be {d} x {d}")
    else:
        raise ValidationError(f"unknown action kind {kind!r}")

    autos = [QAutomorphism(h, m) for m in mats]
    for r, a in enumerate(autos):
        res = a.residual()
        if res > TOL_VERIFY:
            raise NotAutomorphism(f"alpha*_{r} fails the automorphism check ({res:.2e})")
    for r in lam.elements():
        for s in lam.elements():
            res = max_abs(mats[lam.mul(r, s)] - mats[s] @ mats[r])
            if res > TOL_VERIFY:
                raise NotAntihomomorphism(
                    f"alpha*_(rs) != alpha*_s alpha*_r at ({r}, {s}) ({res:.2e})")
    # Haar invariance under every alpha*_s (uniqueness of the Haar state)
    for r, a in enumerate(autos):
        res = max_abs(h.haar @ a.matrix - h.haar)
        if res > TOL_VERIFY:
            raise NotAutomorphism(f"haar not invariant under alpha*_{r} ({res:.2e})")
    return autos


def trivial_action(h: HopfData, lam: FiniteGroup) -> list[QAutomorphism]:
    eye = np.eye(h.dim, dtype=complex)
    return [QAutomorphism(h, eye.copy()) for _ in lam.elements()]


def dual_algebra(h: HopfData):
    """Structure constants of the dual *-algebra A^.

    Returns (mult_hat, star_hat): f_a f_b = sum_k mult_hat[a, b, k] f_k where
    f_a is the dual basis, and coeffs(phi^*) = star_hat @ conj(coeffs(phi)).
    """
    mult_hat = h.comult.transpose(1, 2, 0)
    # phi^*(x) = conj(phi(S(x)^*)): f_a^*(e_k) = conj((star @ conj(antipode))[a, k])
    star_hat = (np.conj(h.star) @ h.antipode).T
    return mult_hat, star_hat
