"""The semidirect product of a finite quantum group with a finite group.

The product Hopf algebra, which hopf.product_algebra builds, lives on the
basis e_i (x) delta_r, indexed as r * dim(base) + i (blocks by group element,
base index fastest). Sub-instances
over principal subgroups are cached on the top-level instance; all coset and
conjugation bookkeeping happens in global Lambda coordinates. Moving a corep
or a coefficient vector between principal subgroups (restriction, the
translation r . U, zero extension) indexes its block axis by the local
indices that `Subgroup.to_local` gives. The covariance law of a pair
(U_G, U_Lambda) is checked for every element of Lambda0 in one array
expression over the stacked automorphism matrices `alpha_mats`, the slices
of the action `alpha` (hopf.action_from_group_hom) at Lambda0's elements.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._linalg import TOL_VERIFY
from .corep import Corep
from .errors import NotCovariant, ValidationError
from .groups import FiniteGroup, Subgroup, conjugate_subgroup, full_subgroup
from .hopf import HopfData, product_algebra, verify_axioms
from .projective import ProjectiveRep, ordinary_rep


class SemidirectInstance:
    """A quantum group G x| Lambda0 together with its building data.

    For the top-level instance, subgroup covers all of Lambda. Sub-instances
    share the same base algebra and draw their automorphisms from the parent;
    over the one-element subgroup the product is the base algebra itself.
    Only the top-level instance (top is None) verifies the Hopf axioms, and it
    keeps the report as `axioms`.
    """

    def __init__(self, base: HopfData, lam_full: FiniteGroup,
                 alpha: np.ndarray, subgroup: Subgroup,
                 top: "SemidirectInstance | None" = None):
        self.base = base
        self.lam_full = lam_full
        self.alpha = alpha  # (|Lambda|, d, d), indexed by *global* Lambda elements
        self.subgroup = subgroup
        self.lam = subgroup.group
        # alpha_mats[r_local] is the matrix of alpha*_r, r = subgroup element
        self.alpha_mats = alpha[list(subgroup.elements)]
        # G x| {e} is G itself, so it shares the base's cached artifacts
        self.product = (base if self.lam.order == 1
                        else product_algebra(base, self.lam, self.alpha_mats))
        self._principal_cache: dict = {self.subgroup.elements: self}
        if top is None:
            self.top = self
            self.axioms = verify_axioms(self.product)
            if not self.axioms["pass"]:
                raise ValidationError(
                    f"semidirect product fails Hopf axioms (max {self.axioms['max']:.2e})")
        else:
            self.top = top

    # -- indexing ---------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.product.dim

    # -- principal subgroups ----------------------------------------------------

    @cached_property
    def over_identity(self) -> "SemidirectInstance":
        """The instance over {e}, whose product is the base itself."""
        return self.principal(Subgroup(self.lam_full, (self.lam_full.identity,)))

    def principal(self, sub: Subgroup) -> "SemidirectInstance":
        """The (cached) instance over a subgroup, given in global coordinates."""
        top = self.top
        if not sub.is_subset_of(top.subgroup):
            raise ValidationError("subgroup is not contained in Lambda")
        cached = top._principal_cache.get(sub.elements)
        if cached is None:
            cached = SemidirectInstance(top.base, top.lam_full, top.alpha, sub, top=top)
            top._principal_cache[sub.elements] = cached
        return cached

    def __repr__(self):
        return (f"SemidirectInstance(base dim {self.base.dim}, "
                f"Lambda0 {list(self.subgroup.elements)})")


def build(base: HopfData, lam: FiniteGroup,
          alpha: np.ndarray) -> SemidirectInstance:
    """Assemble G x| Lambda and verify all Hopf axioms."""
    return SemidirectInstance(base, lam, alpha, full_subgroup(lam))


def restrict_corep(inst: SemidirectInstance, u: Corep, sub: Subgroup) -> Corep:
    """Drop the delta_r components with r outside the subgroup (the map phi).

    u may live on any principal instance of inst's top-level instance.
    """
    own = instance_of_corep(inst, u)
    idx = own.subgroup.to_local(sub.elements)
    n = u.dim
    blocks = u.entries.reshape(n, n, own.lam.order, own.base.dim)[:, :, idx]
    return Corep(own.principal(sub).product, blocks.reshape(n, n, -1))


# -- covariant pairs -------------------------------------------------------------

def check_covariant(inst: SemidirectInstance, ug: Corep, ul: ProjectiveRep):
    """Residual of sum_k f_ik(r) u_kj = sum_k f_kj(r) alpha*_r(u_ik), with witness.

    The witness is the first (row-major) local (r, i, j) attaining the worst
    residual, None if every residual vanishes.
    """
    f, e = ul.mats, ug.entries
    lhs = np.einsum("rik,kjc->rijc", f, e)
    rhs = np.einsum("rkj,ikc->rijc", f, e) @ inst.alpha_mats.transpose(0, 2, 1)[:, None]
    res = np.abs(lhs - rhs).max(axis=-1)
    worst = float(res.max())
    witness = tuple(int(x) for x in np.unravel_index(res.argmax(), res.shape))
    return worst <= TOL_VERIFY, worst, witness if worst > 0 else None


def join_covariant(inst: SemidirectInstance, ug: Corep, mats) -> Corep:
    """U = (U_G)_12 (U_Lambda)_13, U_ij = sum_k u_ik (x) f_kj, once ordinary_rep
    certifies mats as the representation U_Lambda and check_covariant the pair."""
    ul = ordinary_rep(inst.lam, mats)
    ok, worst, witness = check_covariant(inst, ug, ul)
    if not ok:
        raise NotCovariant(f"covariance residual {worst:.2e} at (r, i, j) = {witness}")
    n = ug.dim
    entries = np.einsum("ikc,rkj->ijrc", ug.entries, ul.mats)
    return Corep(inst.product, entries.reshape(n, n, inst.dim))


# -- the r. action and zero extension ------------------------------------------

def instance_of_corep(inst: SemidirectInstance, u: Corep) -> SemidirectInstance:
    """The principal instance whose product algebra u is a corep of; a corep
    of the base is one of G x| {e}, built if not yet cached."""
    top = inst.top
    if u.parent is top.base:
        return top.over_identity
    for cand in top._principal_cache.values():
        if cand.product is u.parent:
            return cand
    raise ValidationError("corep does not belong to any cached principal instance")


def act_corep(inst: SemidirectInstance, r: int, u: Corep) -> Corep:
    """r . U = (id (x) alpha*_{r^{-1}} (x) Adj*_{r^{-1}})(U).

    U is a corep of G x| Lambda0 (where Lambda0 = inst_of(u).subgroup), a base
    corep being one of G x| {e}; the result is a corep of G x| r Lambda0 r^{-1}.
    """
    top = inst.top
    lam = top.lam_full
    own = instance_of_corep(inst, u).subgroup
    moved = conjugate_subgroup(own, r)
    # block s of the result is block r^{-1} s r of U, moved by alpha*_{r^{-1}};
    # moved.elements sorts the r h r^{-1}, so the blocks of own's h come in
    # the order that sorts their conjugates
    idx = np.argsort(lam.conjugate(r, own.elements))
    n = u.dim
    blocks = u.entries.reshape(n, n, own.order, top.base.dim)[:, :, idx]
    entries = blocks @ top.alpha[lam.inverse(r)].T
    return Corep(top.principal(moved).product, entries.reshape(n, n, -1))


def extend(inst: SemidirectInstance, sub_inst: SemidirectInstance,
           vec: np.ndarray) -> np.ndarray:
    """Zero-fill an element of A (x) C(Lambda0) into A (x) C(Lambda)."""
    d = inst.base.dim
    out = np.zeros((inst.lam.order, d), dtype=complex)
    out[inst.subgroup.to_local(sub_inst.subgroup.elements)] = vec.reshape(-1, d)
    return out.reshape(-1)
