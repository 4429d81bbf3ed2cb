"""Small objects that only the tests build (trivial and direct-sum
representations, the trivial action, the trivial subgroup, base coreps viewed
over G x| {e}, the shipped instance files), the (co)commutativity tests of a
Hopf algebra, and the dense conjugation isomorphism that act_corep is
checked against."""

import json
from pathlib import Path

import numpy as np

from semirep._linalg import TOL_ACCEPT, TOL_VERIFY, max_abs
from semirep.cohomology import trivial_cochain2
from semirep.corep import Corep
from semirep.corpus import build_instance
from semirep.errors import CocycleMismatch, ValidationError
from semirep.groups import FiniteGroup, Subgroup, conjugate_subgroup
from semirep.hopf import HopfData, QAutomorphism
from semirep.projective import ProjectiveRep


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def is_commutative(h: HopfData) -> bool:
    return max_abs(h.mult - h.mult.transpose(1, 0, 2)) <= TOL_VERIFY


def is_cocommutative(h: HopfData) -> bool:
    return max_abs(h.comult - h.comult.transpose(0, 2, 1)) <= TOL_VERIFY


def trivial_corep(h: HopfData, dim: int = 1) -> Corep:
    entries = np.zeros((dim, dim, h.dim), dtype=complex)
    for i in range(dim):
        entries[i, i] = h.unit
    return Corep(h, entries)


def direct_sum(u: Corep, w: Corep) -> Corep:
    h = u.parent
    n1, n2 = u.dim, w.dim
    entries = np.zeros((n1 + n2, n1 + n2, h.dim), dtype=complex)
    entries[:n1, :n1] = u.entries
    entries[n1:, n1:] = w.entries
    return Corep(h, entries)


def trivial_rep(group: FiniteGroup, dim: int = 1) -> ProjectiveRep:
    mats = np.broadcast_to(np.eye(dim), (group.order, dim, dim)).copy()
    return ProjectiveRep(group, mats, trivial_cochain2(group))


def proj_direct_sum(v1: ProjectiveRep, v2: ProjectiveRep) -> ProjectiveRep:
    if max_abs(v1.cocycle.values - v2.cocycle.values) > TOL_ACCEPT:
        raise CocycleMismatch("direct sum requires equal cocycles")
    n1, n2 = v1.dim, v2.dim
    mats = np.zeros((v1.group.order, n1 + n2, n1 + n2), dtype=complex)
    mats[:, :n1, :n1] = v1.mats
    mats[:, n1:, n1:] = v2.mats
    return ProjectiveRep(v1.group, mats, v1.cocycle)


def trivial_action(h: HopfData, lam: FiniteGroup) -> list[QAutomorphism]:
    eye = np.eye(h.dim, dtype=complex)
    return [QAutomorphism(h, eye.copy()) for _ in lam.elements()]


def embed_base_corep(inst, u: Corep) -> Corep:
    """View a corep of G as a corep of G x| {e} (the trivial principal piece)."""
    target = inst.principal(trivial_subgroup(inst.top.lam_full))
    if u.parent is not inst.base:
        raise ValidationError("expected a corepresentation of the base")
    return Corep(target.product, u.entries.copy())


INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def shipped_instance(name: str):
    """The instance in instances/instance_<name>.json."""
    return build_instance(json.loads((INSTANCES / f"instance_{name}.json").read_text()))


def conjugation_iso(inst, sub: Subgroup, r: int) -> np.ndarray:
    """The Hopf *-isomorphism alpha*_r (x) Adj*_r from G x| Lambda0 to G x| rLambda0r^-1.

    The dense matrix maps coefficient vectors on the *target* instance (over
    r Lambda0 r^{-1}) to coefficient vectors on the source (over Lambda0),
    implementing the pullback e_i (x) delta_{r s r^{-1}} -> alpha*_r(e_i) (x) delta_s.
    """
    top = inst.top
    target = conjugate_subgroup(sub, r)
    d = top.base.dim
    m_r = top.alpha[r].matrix
    mat = np.zeros((sub.order * d, target.order * d), dtype=complex)
    for s_local, s in enumerate(sub.elements):
        t_local = target.to_local(top.lam_full.conjugate(r, s))
        mat[s_local * d:(s_local + 1) * d, t_local * d:(t_local + 1) * d] = m_r
    return mat
