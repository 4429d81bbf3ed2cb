"""Induction from principal subgroups, induced characters, Mackey criterion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import (TOL_BUILD, TOL_NONZERO, TOL_VERIFY, as_int, max_abs,
                      max_abs_each)
from .corep import Corep, compress, mor_dim, verify_corep
from .errors import (CovarianceFailure, FormulaMismatch, OracleDisagreement,
                     ProjectionNotInvariant, ValidationError)
from .groups import Subgroup, conjugate_intersection, left_cosets
from .projective import ordinary_rep
from .semidirect import (SemidirectInstance, act_corep, extend, instance_of_corep,
                         join_covariant, restrict_corep, split_covariant)


@dataclass(frozen=True, eq=False)
class InducedRep:
    result: Corep
    isometry: np.ndarray = field(repr=False)  # columns embed K into l2(Lambda) (x) H


def induce(inst: SemidirectInstance, u: Corep) -> InducedRep:
    """Induce a corep of G x| Lambda0 up to G x| Lambda.

    Builds the right-regular Lambda part and the twisted direct sum of the
    G part on l2(Lambda) (x) H, checks the invariance of the projection onto
    the covariant subspace K, and compresses. K is indexed by the right
    cosets Lambda0\\Lambda: the vector for s depends only on Lambda0 s.
    """
    top = inst.top
    sub_inst = instance_of_corep(inst, u)
    sub = sub_inst.subgroup
    lam = top.lam_full
    n = u.dim
    nl = lam.order
    ug, ul = split_covariant(sub_inst, u)

    span = np.arange(nl)
    # W~_Lambda(s): delta_r (x) xi -> delta_{r s^{-1}} (x) xi; shift[s, t, r] = [ts = r]
    shift = lam.mult.T[:, :, None] == span
    wl = ordinary_rep(lam, np.einsum("str,ij->stirj", shift, np.eye(n)).reshape(
        nl, nl * n, nl * n))

    # W~_G = sum_s e_{s,s} (x) (id (x) alpha*_s)(U_G)
    wg_entries = np.zeros((nl, n, nl, n, top.base.dim), dtype=complex)
    wg_entries[span, :, span] = ug.entries @ top.alpha_mats.transpose(0, 2, 1)[:, None]
    wg = Corep(top.base, wg_entries.reshape(nl * n, nl * n, -1))

    # pi = |Lambda0|^{-1} sum_{r0, s} e_{r0 s, s} (x) U_Lambda(r0); r0 -> r0 s is
    # injective, so every block is set at most once
    r0 = np.array(sub.elements)[:, None]
    pi = np.zeros((nl, n, nl, n), dtype=complex)
    pi[lam.mult[r0, span], :, span] = ul.mats[:, None]
    pi = pi.reshape(nl * n, nl * n) / sub.order

    res = max_abs(pi @ pi - pi)
    if res > TOL_VERIFY:
        raise ProjectionNotInvariant(f"pi is not a projection (residual {res:.2e})")
    comm = max_abs_each(pi @ wl.mats - wl.mats @ pi)
    bad = np.flatnonzero(comm > TOL_VERIFY)
    if len(bad):
        raise ProjectionNotInvariant(
            f"pi does not commute with W~_Lambda({bad[0]}) ({comm[bad[0]]:.2e})")
    res = max_abs(np.einsum("ik,kjc->ijc", pi, wg.entries)
                  - np.einsum("ikc,kj->ijc", wg.entries, pi))
    if res > TOL_VERIFY:
        raise ProjectionNotInvariant(f"pi does not commute with W~_G ({res:.2e})")

    # Explicit orthonormal basis of K = range(pi): one block per right coset
    # Lambda0 s, the column block of s holding U_Lambda(r0) in row block r0 s.
    # The inverses of left coset representatives are a right transversal.
    right = lam.inv[[rep for rep, _ in left_cosets(sub)]]
    basis = np.zeros((nl, n, len(right), n), dtype=complex)
    basis[lam.mult[r0, right], :, np.arange(len(right))] = ul.mats[:, None]
    isometry = basis.reshape(nl * n, -1) / np.sqrt(sub.order)
    if max_abs(isometry.conj().T @ isometry - np.eye(isometry.shape[1])) > TOL_VERIFY:
        raise ProjectionNotInvariant("coset basis of K is not orthonormal")
    if max_abs(pi @ isometry - isometry) > TOL_VERIFY:
        raise ProjectionNotInvariant("coset basis does not lie in range(pi)")

    big = join_covariant(top, wg, wl)
    result = compress(big, isometry)
    report = verify_corep(result)
    if not report["pass"]:
        raise CovarianceFailure(
            f"induced corep fails verification (max {report['max']:.2e})")
    return InducedRep(result=result, isometry=isometry)


def induced_character(inst: SemidirectInstance, u: Corep) -> np.ndarray:
    """Character of Ind(U), by the averaged sum over all of Lambda.

    Both the |Lambda0|^{-1}-weighted full sum and the coset-representative sum
    are evaluated and must agree to TOL_BUILD.
    """
    top = inst.top
    sub_inst = instance_of_corep(inst, u)
    sub = sub_inst.subgroup
    lam = top.lam_full

    full = np.zeros(top.dim, dtype=complex)
    for r in lam.elements():
        moved = act_corep(top, r, u)
        target = instance_of_corep(top, moved)
        full += extend(top, target, moved.char_vec())
    full /= sub.order

    coset = np.zeros(top.dim, dtype=complex)
    for rep, _ in left_cosets(sub):
        moved = act_corep(top, rep, u)
        target = instance_of_corep(top, moved)
        coset += extend(top, target, moved.char_vec())

    if max_abs(full - coset) > TOL_BUILD:
        raise FormulaMismatch(
            f"full-sum and coset-sum induced characters differ by "
            f"{max_abs(full - coset):.2e}")
    return full


def _meet_pairing(top: SemidirectInstance, x: Corep, y: Corep, meet: Subgroup) -> complex:
    """Haar pairing of the characters of x and y restricted to G x| meet."""
    chi_x = restrict_corep(top, x, meet).char_vec()
    chi_y = restrict_corep(top, y, meet).char_vec()
    return top.principal(meet).product.pair(chi_x, chi_y)


def ind_mor_dim(inst: SemidirectInstance, u: Corep, w: Corep) -> int:
    """dim Mor(Ind(U), Ind(W)) by the double-sum intertwiner formula.

    The value is cross-checked against mor_dim on the explicitly constructed
    induced corepresentations.
    """
    top = inst.top
    lam = top.lam_full
    theta = instance_of_corep(inst, u).subgroup
    xi = instance_of_corep(inst, w).subgroup
    translates_u = {r: act_corep(top, r, u) for r in lam.elements()}
    translates_w = {r: act_corep(top, r, w) for r in lam.elements()}
    total = 0.0
    for r in lam.elements():
        for s in lam.elements():
            meet = conjugate_intersection([theta, xi], [r, s])
            pairing = _meet_pairing(top, translates_u[r], translates_w[s], meet)
            total += pairing.real * meet.order / lam.order
            if abs(pairing.imag) > TOL_NONZERO:
                raise OracleDisagreement("character pairing has an imaginary part")
    total /= theta.order * xi.order
    value = as_int(total)
    direct = mor_dim(induce(inst, u).result, induce(inst, w).result)
    if direct != value:
        raise OracleDisagreement(
            f"intertwiner formula gives {value}, direct mor_dim gives {direct}")
    return value


def mackey_irreducible(inst: SemidirectInstance, u: Corep) -> bool:
    """Mackey's criterion for irreducibility of Ind(U), U irreducible required."""
    top = inst.top
    lam = top.lam_full
    sub = instance_of_corep(inst, u).subgroup
    if mor_dim(u, u) != 1:
        raise ValidationError("Mackey criterion requires an irreducible input")
    sub_set = set(sub.elements)
    translates = {r: act_corep(top, r, u) for r in lam.elements()}
    for r in lam.elements():
        for s in lam.elements():
            if lam.mul(lam.inverse(r), s) in sub_set:
                continue
            meet = conjugate_intersection([sub, sub], [r, s])
            if as_int(_meet_pairing(top, translates[r], translates[s], meet)) != 0:
                return False
    return True
