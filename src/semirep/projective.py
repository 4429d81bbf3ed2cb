"""Unitary projective representations of finite groups.

A ProjectiveRep stores one unitary matrix per group element together with its
2-cocycle. Enumeration of the irreducibles with a prescribed cocycle goes
through the left regular representation of the twisted group algebra.

Group relations are checked over the whole multiplication table in one array
expression: all products V(r)V(s) are mats[:, None] @ mats[None], and their
targets V(rs) are mats[group.mult].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (DEFAULT_SEED, TOL_ACCEPT, TOL_NONZERO, as_int,
                      char_sort_key, compress_stack, decompose, kron_stack,
                      max_abs, max_abs_each, module_hom_basis)
from .cohomology import (Cochain1, Cochain2, coboundary, cocycle_inverse,
                         cocycle_product, is_cocycle, trivial_cochain2)
from .errors import (CocycleMismatch, NotProjective, NotScalarRelated,
                     ValidationError)
from .groups import FiniteGroup


@dataclass(frozen=True, eq=False)
class ProjectiveRep:
    group: FiniteGroup
    mats: np.ndarray = field(repr=False)  # (order, dim, dim)
    cocycle: Cochain2 = field(repr=False)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=complex)
        object.__setattr__(self, "mats", mats)
        if mats.shape[0] != self.group.order or mats.shape[1] != mats.shape[2]:
            raise ValidationError("need one square matrix per group element")

    @property
    def dim(self) -> int:
        return int(self.mats.shape[1])

    def __call__(self, r: int) -> np.ndarray:
        return self.mats[r]

    def character(self) -> np.ndarray:
        return np.einsum("rii->r", self.mats)

    def verify(self) -> float:
        """Max residual over: V(e)=1, unitarity, V(r)V(s) = w(r,s)V(rs)."""
        g, m = self.group, self.mats
        eye = np.eye(self.dim)
        return max(max_abs(m[g.identity] - eye),
                   max_abs(m @ m.conj().transpose(0, 2, 1) - eye),
                   max_abs(m[:, None] @ m[None]
                           - self.cocycle.values[:, :, None, None] * m[g.mult]))


def cocycle_of(group: FiniteGroup, mats) -> Cochain2:
    """Extract the unique cocycle with V(r)V(s) = w(r,s) V(rs); the first
    pair (row-major) whose product is orthogonal to V(rs) is reported."""
    mats = np.asarray(mats, dtype=complex)
    prods = mats[:, None] @ mats[None]
    targets = mats[group.mult]
    vals = np.einsum("rsij,rsij->rs", targets.conj(), prods) / mats.shape[1]
    orthogonal = np.argwhere(np.abs(vals) < TOL_NONZERO)
    if len(orthogonal):
        r, s = orthogonal[0]
        raise NotProjective(f"V({r})V({s}) is orthogonal to V({r}*{s})")
    vals /= np.abs(vals)
    worst = max_abs(prods - vals[:, :, None, None] * targets)
    if worst > TOL_ACCEPT:
        raise NotProjective(f"projectivity residual {worst} exceeds {TOL_ACCEPT}")
    omega = Cochain2(group, vals)
    ok, res, triple = is_cocycle(omega)
    if not ok:
        raise NotProjective(f"extracted cochain fails cocycle law at {triple} ({res})")
    return omega


def projective_rep(group: FiniteGroup, mats) -> ProjectiveRep:
    """Build a ProjectiveRep, computing and checking its cocycle."""
    return ProjectiveRep(group, mats, cocycle_of(group, mats))


def ordinary_rep(group: FiniteGroup, mats) -> ProjectiveRep:
    """An honest representation, V(e) = 1, unitarity and V(r)V(s) = V(rs) verified."""
    rep = ProjectiveRep(group, mats, trivial_cochain2(group))
    worst = rep.verify()
    if worst > TOL_ACCEPT:
        raise NotProjective(f"matrices are not an ordinary representation ({worst:.2e})")
    return rep


def rescale(b: Cochain1, v: ProjectiveRep) -> ProjectiveRep:
    """(bV)(r) = b(r) V(r); the cocycle picks up the coboundary of b."""
    if b.group != v.group:
        raise ValidationError("rescaling requires the same group")
    mats = b.values[:, None, None] * v.mats
    return ProjectiveRep(v.group, mats, cocycle_product(coboundary(b), v.cocycle))


def proj_char_pairing(v1: ProjectiveRep, v2: ProjectiveRep) -> complex:
    chi1 = v1.character()
    chi2 = v2.character()
    return complex(np.vdot(chi1, chi2) / v1.group.order)


def proj_mor_dim(v1: ProjectiveRep, v2: ProjectiveRep) -> int:
    """dim Mor(v1, v2) by the character inner product (same cocycle required)."""
    if v1.group != v2.group:
        raise ValidationError("morphism spaces need a common group")
    if max_abs(v1.cocycle.values - v2.cocycle.values) > TOL_ACCEPT:
        raise CocycleMismatch("projective representations have different cocycles")
    return as_int(proj_char_pairing(v1, v2))


def tensor(v1: ProjectiveRep, v2: ProjectiveRep) -> ProjectiveRep:
    if v1.group != v2.group:
        raise ValidationError("tensor product requires the same group")
    return ProjectiveRep(v1.group, kron_stack(v1.mats, v2.mats),
                         cocycle_product(v1.cocycle, v2.cocycle))


def pullback(v: ProjectiveRep, idx: np.ndarray, group: FiniteGroup) -> ProjectiveRep:
    """a -> V(idx[a]) as a representation of `group`, with cocycle
    w(idx[a], idx[b]); idx maps group homomorphically into v.group (a
    restriction, or a translation r a r^{-1} -> a)."""
    return ProjectiveRep(group, v.mats[idx],
                         Cochain2(group, v.cocycle.values[np.ix_(idx, idx)]))


def contragredient(v: ProjectiveRep) -> ProjectiveRep:
    """V^c(r) = conj(V(r)); the cocycle is inverted."""
    return ProjectiveRep(v.group, np.conj(v.mats), cocycle_inverse(v.cocycle))


def transitional_map(v1: ProjectiveRep, v2: ProjectiveRep) -> Cochain1:
    """The unique b with V2 = b V1, if V2(r)V1(r)^{-1} is scalar for every r.

    The first element that is orthogonal or not scalar-related is reported."""
    if v1.group != v2.group or v1.dim != v2.dim:
        raise ValidationError("transitional map needs equal groups and dimensions")
    ratio = np.einsum("rij,rij->r", v2.mats, v1.mats.conj()) / v1.dim
    orthogonal = np.abs(ratio) < TOL_NONZERO
    ratio = np.where(orthogonal, 1.0, ratio)
    ratio /= np.abs(ratio)
    scalar_res = max_abs_each(v2.mats - ratio[:, None, None] * v1.mats)
    bad = np.flatnonzero(orthogonal | (scalar_res > TOL_ACCEPT))
    if len(bad):
        r = bad[0]
        if orthogonal[r]:
            raise NotScalarRelated(f"V2({r}) is orthogonal to V1({r})")
        raise NotScalarRelated(f"V2({r}) is not a scalar multiple of V1({r})")
    return Cochain1(v1.group, ratio)


def regular_twisted_rep(group: FiniteGroup, omega: Cochain2) -> ProjectiveRep:
    """Left regular omega-representation: L(r) e_s = w(r, s) e_{rs}."""
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    span = np.arange(n)
    mats[span[:, None], group.mult, span[None]] = omega.values
    return ProjectiveRep(group, mats, omega)


def decompose_projective(v: ProjectiveRep,
                         seed: int = DEFAULT_SEED) -> list[tuple[ProjectiveRep, int]]:
    """Split into pairwise-inequivalent irreducibles with multiplicities."""
    def commutant(x):
        return module_hom_basis(x.mats, x.mats)
    return decompose(v, commutant(v), commutant,
                     lambda x, q: ProjectiveRep(x.group, compress_stack(x.mats, q),
                                                x.cocycle),
                     lambda a, b: a.dim == b.dim and proj_mor_dim(a, b) >= 1, seed)


def irreducible_projreps(group: FiniteGroup, omega: Cochain2, seed: int = DEFAULT_SEED,
                         ) -> list[ProjectiveRep]:
    """All irreducible omega-projective representations, up to equivalence.

    Obtained by decomposing the left regular representation of the twisted
    group algebra C_omega[G]; completeness is certified by sum(dim^2) = |G|.
    """
    ok, res, triple = is_cocycle(omega)
    if not ok:
        raise ValidationError(f"not a cocycle (residual {res} at {triple})")
    reg = regular_twisted_rep(group, omega)
    grouped = decompose_projective(reg, seed)
    irreps = sorted((f for f, _ in grouped),
                    key=lambda f: char_sort_key(f.dim, f.character()))
    total = sum(f.dim ** 2 for f in irreps)
    if total != group.order:
        raise ValidationError(
            f"twisted Peter-Weyl failure: sum dim^2 = {total} != |G| = {group.order}")
    return irreps
