"""Induction from principal subgroups, induced characters, Mackey criterion.

Ind(U) is built in closed form on the right cosets Lambda0\\Lambda, one copy
of U's space per coset (Serre, Linear Representations of Finite Groups, 7.1;
Mackey, Ann. of Math. 55, 1952).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import TOL_BUILD, TOL_NONZERO, as_int, max_abs
from .corep import Corep, mor_dim, verify_corep
from .errors import (CovarianceFailure, FormulaMismatch, OracleDisagreement,
                     ValidationError)
from .groups import Subgroup, conjugate_intersection, left_cosets
from .semidirect import (SemidirectInstance, act_corep, extend, instance_of_corep,
                         join_covariant, restrict_corep)


@dataclass(frozen=True, eq=False)
class InducedRep:
    result: Corep


def induce(inst: SemidirectInstance, u: Corep) -> InducedRep:
    """Induce a corep U of G x| Lambda0 up to G x| Lambda, in closed form.

    One copy of U's space per right coset Lambda0 s_j, s_j the inverse of the
    j-th left coset representative. U_G is U's block at the identity, U_Lambda
    its blocks contracted with the base counit. The G part is block-diagonal,
    block j being (id (x) alpha*_{s_j})(U_G), and Ind(t)[j, k] is
    U_Lambda(s_j t s_k^{-1}) when that lies in Lambda0, 0 otherwise.
    join_covariant certifies these monomial matrices as a representation (its
    law contains U_Lambda's: Ind's block on the coset Lambda0 is U_Lambda up to
    an inner automorphism) and the pair as covariant; verify_corep the result.
    """
    top = inst.top
    sub_inst = instance_of_corep(inst, u)
    sub = sub_inst.subgroup
    lam = top.lam_full
    n = u.dim
    blocks = u.entries.reshape(n, n, sub.order, top.base.dim)
    ul_mats = np.einsum("ijrc,c->rij", blocks, top.base.counit)
    right = lam.inv[[rep for rep, _ in left_cosets(sub)]]
    m = len(right)

    g_blocks = np.zeros((m, n, m, n, top.base.dim), dtype=complex)
    g_blocks[np.arange(m), :, np.arange(m)] = \
        blocks[:, :, sub.group.identity] @ top.alpha[right].transpose(0, 2, 1)[:, None]
    # moved[t, j, k] = s_j t s_k^{-1}
    moved = lam.mult[lam.mult[right].T[:, :, None], lam.inv[right]]
    t, j, k = np.nonzero(np.isin(moved, sub.elements))
    lam_mats = np.zeros((lam.order, m, n, m, n), dtype=complex)
    lam_mats[t, j, :, k] = ul_mats[sub.to_local(moved[t, j, k])]

    result = join_covariant(top, Corep(top.base, g_blocks.reshape(m * n, m * n, -1)),
                            lam_mats.reshape(lam.order, m * n, m * n))
    report = verify_corep(result)
    if not report["pass"]:
        raise CovarianceFailure(
            f"induced corep fails verification (max {report['max']:.2e})")
    return InducedRep(result=result)


def induced_character(inst: SemidirectInstance, u: Corep) -> np.ndarray:
    """Character of Ind(U), by the averaged sum over all of Lambda.

    One pass translates U by each r; the |Lambda0|^{-1}-weighted sum over all
    r and the sum over the left coset representatives must agree to TOL_BUILD.
    """
    top = inst.top
    sub = instance_of_corep(inst, u).subgroup
    reps = {rep for rep, _ in left_cosets(sub)}
    full = np.zeros(top.dim, dtype=complex)
    coset = np.zeros(top.dim, dtype=complex)
    for r in top.lam_full.elements():
        moved = act_corep(top, r, u)
        chi = extend(top, instance_of_corep(top, moved), moved.char_vec())
        full += chi
        if r in reps:
            coset += chi
    full /= sub.order

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
    if u.self_mor_dim != 1:
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
