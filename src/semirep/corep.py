"""Unitary corepresentations of a HopfData quantum group.

A Corep of dimension n over H stores entries as an (n, n, d) array: slice
[i, j, :] is the coefficient vector of the algebra element u_{ij}. Morphism
spaces are computed two independent ways (Haar pairing of characters vs.
nullspace of the intertwiner system) and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (DEFAULT_SEED, TOL_DEGENERATE, TOL_VERIFY, as_int,
                      char_sort_key, check_commutant, compress_stack, decompose,
                      hom_space_dims, max_abs, module_hom_basis)
from .errors import (OracleDisagreement, OrbitResolutionFailure,
                     PeterWeylMismatch, ValidationError)
from .groups import FiniteGroup, GroupAction
from .hopf import HopfData


@dataclass(frozen=True, eq=False)
class Corep:
    parent: HopfData
    entries: np.ndarray = field(repr=False)  # (n, n, d)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", arr)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != self.parent.dim:
            raise ValidationError(f"corep entries have shape {arr.shape}")

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def char_vec(self) -> np.ndarray:
        return np.einsum("iic->c", self.entries)

    @cached_property
    def coeff_slices(self) -> np.ndarray:
        """The matrices (id (x) f_a)(u) for a in parent.generators(), stacked
        along the first axis: the dual-algebra module action on generators.

        a -> (id (x) f_a)(u) extends to a unital algebra map from A^, so a
        matrix commutes with every slice of u exactly when it commutes with
        these; every module-hom system and commutant check over them is exact,
        not sampled. Computed once per corep, and read-only.
        """
        slices = np.moveaxis(self.entries, 2, 0)[self.parent.generators()]
        slices.flags.writeable = False
        return slices

    @cached_property
    def self_mor_dim(self) -> int:
        """mor_dim(self, self), computed once per corep; 1 exactly when the
        corep is irreducible."""
        return mor_dim(self, self)


def verify_corep(u: Corep) -> dict:
    """Residuals for the comodule law, counit normalization and unitarity."""
    h = u.parent
    e = u.entries
    res: dict[str, float] = {}
    rhs = np.einsum("ika,kjb->ijab", e, e)
    res["comodule"] = max_abs(h.coproduct(e) - rhs)
    res["counit"] = max_abs(np.einsum("ijc,c->ij", e, h.counit) - np.eye(u.dim))
    star_e = h.star_vec(e)
    # row orthogonality: sum_k u_{ik} u_{jk}^* = delta_{ij} 1, columns likewise
    row = h.product(e[:, None], star_e[None]).sum(axis=2)
    col = h.product(star_e[:, :, None], e[:, None]).sum(axis=0)
    target = np.einsum("ij,p->ijp", np.eye(u.dim), h.unit)
    res["unitary_rows"] = max_abs(row - target)
    res["unitary_cols"] = max_abs(col - target)
    res["max"] = max(res.values())
    res["pass"] = res["max"] < TOL_VERIFY
    return res


def tensor(u: Corep, w: Corep) -> Corep:
    """(u x w)_{(i,k),(j,l)} = u_{ij} w_{kl}, row-major pair indexing."""
    if u.parent is not w.parent:
        raise ValidationError("tensor product requires a common parent algebra")
    h = u.parent
    prod = h.product(u.entries[:, None, :, None], w.entries[None, :, None, :])
    n = u.dim * w.dim
    return Corep(h, prod.reshape(n, n, h.dim))


# -- morphism spaces -----------------------------------------------------------

def _common_parent(u: Corep, w: Corep) -> None:
    if u.parent is not w.parent:
        raise ValidationError("intertwiners require a common parent algebra")


def intertwiner_basis(u: Corep, w: Corep) -> list[np.ndarray]:
    """Orthonormal basis of Mor(u, w) = {T : (T (x) 1) u = w (T (x) 1)}."""
    _common_parent(u, w)
    return module_hom_basis(u.coeff_slices, w.coeff_slices)


def _agreed(via_char: int, via_null: int) -> int:
    if via_char != via_null:
        raise OracleDisagreement(
            f"mor_dim mismatch: characters give {via_char}, nullspace gives {via_null}")
    return via_char


def mor_dim(u: Corep, w: Corep) -> int:
    """dim Mor(u, w), computed twice (characters and nullspace), must agree:
    the one-pair mor_dims batch."""
    return next(mor_dims([u], [w], [(0, 0)]))


def mor_dims(us: list[Corep], ws: list[Corep], pairs):
    """dim Mor(us[i], ws[j]) for every (i, j) in pairs, each computed twice:
    the characters are paired through one Gram product and the hom spaces
    counted in one hom_space_dims batch. Every pair must share a parent
    algebra, checked before anything is computed. An iterator: the two
    counts of a pair are compared as it is read, so a caller that stops at
    its own check raises nothing for the pairs it did not read. pairs is not
    empty."""
    for i, j in pairs:
        _common_parent(us[i], ws[j])
    pairings = us[0].parent.pair_forms(np.array([u.char_vec() for u in us])) \
        @ np.array([w.char_vec() for w in ws]).T
    counts = hom_space_dims([(us[i].coeff_slices, ws[j].coeff_slices) for i, j in pairs])
    return (_agreed(as_int(pairings[i, j]), n) for (i, j), n in zip(pairs, counts))


# -- conjugates ----------------------------------------------------------------

def contragredient(u: Corep) -> Corep:
    """u^c = (j (x) id)(u^*): entrywise star of the coefficients."""
    return Corep(u.parent, u.parent.star_vec(u.entries))


def conjugate(u: Corep) -> Corep:
    """The unitary conjugate u-bar = u^c.

    Every algebra verify_axioms passes is of Kac type (S^2 = id): passing
    haar_unital and both sides of haar_invariance gives a normalized
    two-sided invariant functional, so the algebra is cosemisimple, and in
    characteristic 0 that makes it semisimple with S^2 = id (Larson and
    Radford, J. Algebra 117, 1988). So the modular operator is the identity
    and the contragredient is already unitary; verify_corep certifies that.
    """
    uc = contragredient(u)
    report = verify_corep(uc)
    if not report["pass"]:
        raise ValidationError(
            f"conjugate corep fails verification (max residual {report['max']:.2e})")
    return uc


# -- decomposition and enumeration ---------------------------------------------

def compress(u: Corep, q: np.ndarray) -> Corep:
    """The corep q^* u q on the range of an isometry q (columns orthonormal),
    compressed slice by slice."""
    slices = compress_stack(np.moveaxis(u.entries, 2, 0), q)
    return Corep(u.parent, np.moveaxis(slices, 0, 2))


def irr_decompose(u: Corep, comm, seed: int = DEFAULT_SEED) -> list[tuple[Corep, int]]:
    """Pairwise-inequivalent irreducible factors with multiplicities; comm is
    a basis of u's self-intertwiners, e.g. intertwiner_basis(u, u)."""
    return decompose(u, comm, lambda x: x.coeff_slices, compress,
                     lambda fs, pairs: mor_dims(fs, fs, pairs), seed)


def regular_corep(h: HopfData) -> tuple[Corep, np.ndarray]:
    """The right regular corepresentation on an h-orthonormal basis f_i, with
    a basis of its self-intertwiners in closed form.

    Writing Delta(f_j) = f_j(1) (x) f_j(2), slice q has entries
    h(f_i^* f_j(1)) times the e_q-coefficient of f_j(2). Swapping the two legs
    gives the commutant (translations on either side commute by
    coassociativity): element b has entries h(f_i^* f_j(2)) times the
    e_b-coefficient of f_j(1). The basis is checked to commute with every
    slice, so the first split of the regular module needs no linear solve.
    """
    gram = h.gram()
    vals, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
    if vals.min() < TOL_DEGENERATE:
        raise ValidationError("Haar inner product is degenerate; no regular corep")
    b = vecs @ np.diag(1.0 / np.sqrt(vals))  # columns: orthonormal basis coeffs
    # hmat[i, p] = h(f_i^* e_p)
    hmat = np.conj(b).T @ gram
    # Delta(f_j) coefficients: dj[j, p, q]
    dj = h.coproduct(b.T)
    u = Corep(h, (hmat @ dj).transpose(1, 0, 2))
    comm = (dj @ hmat.T).transpose(1, 2, 0)
    check_commutant(u.coeff_slices, comm)
    return u, comm


def irr_enumerate(h: HopfData, seed: int = DEFAULT_SEED) -> list[Corep]:
    """All irreducible unitary corepresentations, canonically ordered.

    Brute-force oracle: decompose the regular corepresentation; certified by
    the Peter-Weyl identity sum(dim^2) = dim(H).
    """
    key = ("irr_enumerate", seed)
    if key in h._cache:
        return h._cache[key]
    grouped = irr_decompose(*regular_corep(h), seed)
    irreps = sorted((f for f, _ in grouped),
                    key=lambda f: char_sort_key(f.dim, f.char_vec()))
    total = sum(f.dim ** 2 for f in irreps)
    if total != h.dim:
        raise PeterWeylMismatch(f"sum dim^2 = {total} != dim(H) = {h.dim}")
    h._cache[key] = irreps
    return irreps


# -- the action of Lambda on coreps and on Irr ----------------------------------

def act(r: int, u: Corep, alpha: np.ndarray, lam: FiniteGroup) -> Corep:
    """r . u = (id (x) alpha*_{r^{-1}})(u), alpha the stack of the alpha*_r."""
    return Corep(u.parent, np.einsum("pc,ijc->ijp", alpha[lam.inverse(r)], u.entries))


def irr_action(h: HopfData, lam: FiniteGroup, alpha: np.ndarray,
               seed: int = DEFAULT_SEED) -> GroupAction:
    """The permutation action of Lambda on the canonical list irr_enumerate(h).

    Each moved irrep r . x_i is matched against every irrep y_j of its
    dimension by both routes of mor_dim, all candidates at once (mor_dims).
    The checks run in (r, i, j) order, so the first failure is the one
    pair-by-pair mor_dim calls would raise.
    """
    irreps = irr_enumerate(h, seed)
    n = len(irreps)
    rows = [(r, i) for r in lam.elements() for i in range(n)]
    moved = [act(r, irreps[i], alpha, lam) for r, i in rows]
    same_dim = [[j for j, y in enumerate(irreps) if y.dim == m.dim] for m in moved]
    counts = mor_dims(moved, irreps, [(row, j) for row, js in enumerate(same_dim)
                                      for j in js])
    perm = np.zeros((lam.order, n), dtype=int)
    for row, (r, i) in enumerate(rows):
        matches = [j for j in same_dim[row] if next(counts) >= 1]
        if len(matches) != 1:
            raise OrbitResolutionFailure(
                f"r={r} moves irrep {i} to {len(matches)} candidates")
        perm[r, i] = matches[0]
    return GroupAction(lam, perm)
