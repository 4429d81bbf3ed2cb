"""Representation parameters and the classification/fusion pipeline.

A representation parameter (u, V, v) over an isotropy subgroup Lambda0 packs
an irreducible corep u of the base, a covariant projective representation V
of Lambda0 on the space of u, and a projective representation v with the
opposite cocycle. Distinguished parameters (Lambda0 = the full stabilizer of
[u]) induce exactly the irreducibles of G x| Lambda; fusion is computed from
incidence numbers over triple coset sums and cross-checked against two
independent oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._linalg import (DEFAULT_SEED, TOL_ACCEPT, TOL_VERIFY, as_int, as_ints,
                      first_entry_phase, kron_stack, max_abs, max_abs_each)
from .cohomology import cocycle_inverse, cocycle_product
from .corep import (Corep, conjugate, intertwiner_basis, irr_action, irr_enumerate,
                    mor_dim, tensor as corep_tensor)
from .errors import (CompletenessFailure, GramFailure, NonIntegerCoefficient,
                     NonUnitaryExtraction, NotCovariant, NotStabilized,
                     OracleDisagreement, ValidationError)
from .groups import (Subgroup, conjugate_intersection, left_cosets, orbits,
                     stabilizer)
from .induction import induce
from .oracle import module_fusion_cube
from .projective import (ProjectiveRep, contragredient, irreducible_projreps,
                         proj_mor_dim, projective_rep, pullback, rescale,
                         tensor as proj_tensor, transitional_map)
from .semidirect import (SemidirectInstance, act_corep, check_covariant,
                         join_covariant, restrict_corep)


# -- parameters -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GRParameter:
    """Generalized representation parameter: u need not be irreducible."""

    u: Corep
    V: ProjectiveRep
    v: ProjectiveRep
    lambda0: Subgroup

    def validate(self, inst: SemidirectInstance):
        if self.V.dim != self.u.dim:
            raise ValidationError("V must act on the carrier space of u")
        if self.V.group != self.lambda0.group or self.v.group != self.lambda0.group:
            raise ValidationError("V and v must be representations of lambda0")
        ok, res, _ = check_covariant(inst.principal(self.lambda0), self.u, self.V)
        if not ok:
            raise NotCovariant(f"V is not covariant with u (residual {res:.2e})")
        opp = max_abs(self.V.cocycle.values * self.v.cocycle.values - 1.0)
        if opp > TOL_ACCEPT:
            raise ValidationError(f"V and v do not have opposing cocycles ({opp:.2e})")


@dataclass(frozen=True, eq=False)
class RepParameter(GRParameter):
    """A genuine parameter: u is additionally irreducible."""

    def validate(self, inst: SemidirectInstance):
        super().validate(inst)
        if self.u.self_mor_dim != 1:
            raise ValidationError("parameter requires an irreducible u")


def stabilizer_of_class(inst: SemidirectInstance, u: Corep) -> Subgroup:
    """The r with Mor(r . u, u) != 0, by one mor_dim each: an independent
    route to the stabilizers that classify reads off irr_action."""
    lam = inst.top.lam_full
    elems = tuple(r for r in lam.elements()
                  if mor_dim(act_corep(inst, r, u), u) >= 1)
    return Subgroup(lam, elems)


def covariant_projective(inst: SemidirectInstance, u: Corep,
                         sub: Subgroup) -> ProjectiveRep:
    """The covariant projective representation of Lambda0 attached to u.

    For each r0 the unitary spanning Mor(r0 . u, u), gauged so that the first
    entry above TOL_NONZERO (row-major) is real positive; V(e) is the identity.
    """
    lam = inst.top.lam_full
    mats = np.zeros((sub.order, u.dim, u.dim), dtype=complex)
    for local, r0 in enumerate(sub.elements):
        if r0 == lam.identity:
            mats[local] = np.eye(u.dim)
            continue
        basis = intertwiner_basis(act_corep(inst, r0, u), u)
        if not basis:
            raise NotStabilized(
                f"r0 = {r0} does not stabilize the irrep: Mor(r0 . u, u) = 0")
        t = basis[0]
        t = t * np.sqrt(u.dim) / np.linalg.norm(t)
        t = t * np.conj(first_entry_phase(t))
        if max_abs(t @ t.conj().T - np.eye(u.dim)) > TOL_VERIFY:
            raise NotStabilized(f"intertwiner for r0 = {r0} is not unitary")
        mats[local] = t
    v = projective_rep(sub.group, mats)
    ok, res, _ = check_covariant(inst.principal(sub), u, v)
    if not ok:
        raise NotCovariant(f"constructed V fails covariance ({res:.2e})")
    return v


def parameters(inst: SemidirectInstance, u: Corep, sub: Subgroup,
               seed: int) -> list[RepParameter]:
    """Every parameter (u, V, v) over sub, validated: V = covariant_projective
    (NotStabilized unless sub fixes [u]) and one v per irreducible projective
    rep of sub with the opposite cocycle, in irreducible_projreps' order."""
    cov = covariant_projective(inst, u, sub)
    out = [RepParameter(u, cov, v, sub)
           for v in irreducible_projreps(sub.group, cocycle_inverse(cov.cocycle), seed)]
    for p in out:
        p.validate(inst)
    return out


# -- moving parameters around ----------------------------------------------------

def move_rep(inst: SemidirectInstance, r: int, sub: Subgroup, meet: Subgroup,
             x: ProjectiveRep) -> ProjectiveRep:
    """x, a projective rep of sub, translated by r and restricted to meet, a
    subgroup of r sub r^{-1}: (r . x)(a) = x(r^{-1} a r) for a in meet."""
    lam = inst.top.lam_full
    return pullback(x, sub.to_local(lam.conjugate(lam.inverse(r), meet.elements)),
                    meet.group)


# -- the CSR corepresentation ----------------------------------------------------

def csr_corep(inst: SemidirectInstance, p: GRParameter) -> Corep:
    """The corep of G x| Lambda0 packaged by a (generalized) parameter.

    join_covariant certifies the Lambda0 part v (x) V as an ordinary
    representation from its matrices. For a GRP this is the only check of
    that: `_FusionTables.grp` never validates the GRPs it builds, and builds
    the CSR of each distinct GRP once.
    """
    sub_inst = inst.principal(p.lambda0)
    nv, nu = p.v.dim, p.u.dim
    eye = np.eye(nv)
    ug_entries = np.einsum("ab,ijc->aibjc", eye, p.u.entries).reshape(
        nv * nu, nv * nu, inst.base.dim)
    ug = Corep(inst.base, ug_entries)
    return join_covariant(sub_inst, ug, kron_stack(p.v.mats, p.V.mats))


def param_mor_dim(inst: SemidirectInstance, p1: RepParameter, p2: RepParameter) -> int:
    """dim Mor(U1, U2) through the transitional-map route.

    Zero if [u1] != [u2]; otherwise transport V1 along a unitary intertwiner
    and count morphisms of the v's after rescaling. Cross-checked against
    mor_dim of the packaged coreps.
    """
    if p1.lambda0.elements != p2.lambda0.elements:
        raise ValidationError("parameters live over different subgroups")
    if p1.u.dim != p2.u.dim or mor_dim(p1.u, p2.u) == 0:
        value = 0
    else:
        t = intertwiner_basis(p1.u, p2.u)[0]
        t = t * np.sqrt(p1.u.dim) / np.linalg.norm(t)
        moved = ProjectiveRep(p1.lambda0.group, t @ p1.V.mats @ t.conj().T,
                              p1.V.cocycle)
        b = transitional_map(moved, p2.V)
        value = proj_mor_dim(p1.v, rescale(b, p2.v))
    direct = mor_dim(csr_corep(inst, p1), csr_corep(inst, p2))
    if direct != value:
        raise OracleDisagreement(
            f"param_mor_dim gives {value}, corep mor_dim gives {direct}")
    return value


# -- classification ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClassifiedIrr:
    """One irreducible of G x| Lambda, induced from a distinguished parameter.

    cocycle_trivial says whether the cocycle omega of the parameter's v is a
    coboundary, i.e. whether its class in H^2(Lambda0, T) is trivial; see
    classify for the criterion.
    """

    label: str
    parameter: RepParameter
    csr: Corep
    induced: Corep
    character: np.ndarray = field(repr=False)
    orbit: tuple[int, ...]
    orbit_rep: int
    cocycle_trivial: bool

    @property
    def dim(self) -> int:
        return int(self.induced.dim)


def classify(inst: SemidirectInstance, seed: int = DEFAULT_SEED) -> list[ClassifiedIrr]:
    """All irreducibles of G x| Lambda via distinguished parameters.

    One orbit representative per Lambda-orbit on Irr(G), its full stabilizer,
    the attached covariant projective V, and every irreducible v with the
    opposite cocycle omega. Distinct distinguished parameters induce
    inequivalent irreducibles, so every parameter is kept; a duplicate would
    fail the Peter-Weyl count (CompletenessFailure) or the character Gram
    matrix (GramFailure), both checked at the end.

    cocycle_trivial is "some irreducible omega-projective v is
    one-dimensional", read off the complete list that irreducible_projreps
    certifies. The criterion is exact: a one-dimensional v satisfies
    v(r) v(s) = omega(r, s) v(rs), so omega is the coboundary of v; and if
    omega is the coboundary of b, then b is itself a one-dimensional
    omega-projective representation.
    """
    top = inst.top
    lam = top.lam_full
    xs = irr_enumerate(top.base, seed)
    action = irr_action(top.base, lam, top.alpha, seed)
    h = top.product
    out: list[ClassifiedIrr] = []
    for orb in orbits(action):
        x = min(orb)
        params = parameters(top, xs[x], stabilizer(action, x), seed)
        trivial_class = any(p.v.dim == 1 for p in params)
        for p in params:
            csr = csr_corep(top, p)
            ind = induce(top, csr)
            chi = ind.result.char_vec()
            norm = h.pair(chi, chi)
            if as_int(norm) != 1:
                raise GramFailure(
                    f"induced corep from orbit {orb} has character norm {norm}")
            out.append(ClassifiedIrr(
                label=f"W{len(out)}", parameter=p, csr=csr, induced=ind.result,
                character=chi, orbit=tuple(orb), orbit_rep=x,
                cocycle_trivial=trivial_class))
    total = sum(w.dim ** 2 for w in out)
    if total != top.dim:
        raise CompletenessFailure(
            f"classification is incomplete: sum dim^2 = {total} != {top.dim}")
    chars = np.array([w.character for w in out])
    gram = h.pair_forms(chars) @ chars.T
    if max_abs(gram - np.eye(len(out))) > TOL_ACCEPT:
        raise GramFailure("character Gram matrix of classified irreps is not identity")
    return out


# -- conjugates --------------------------------------------------------------------

def conjugate_parameter(inst: SemidirectInstance, p: RepParameter) -> RepParameter:
    """(u-bar, V^c, v^c), the parameter of the conjugate representation."""
    q = RepParameter(conjugate(p.u), contragredient(p.V), contragredient(p.v), p.lambda0)
    q.validate(inst)
    return q


def conjugation_pairing(inst: SemidirectInstance, w: ClassifiedIrr,
                        candidates: list[ClassifiedIrr]) -> str:
    """Label of the classified irrep equivalent to the conjugate of w."""
    top = inst.top
    pbar = conjugate_parameter(top, w.parameter)
    chi = induce(top, csr_corep(top, pbar)).result.char_vec()
    h = top.product
    chars = np.array([c.character for c in candidates]).reshape(-1, h.dim)
    pairings = h.pair_forms(chars) @ chi
    for cand, pairing in zip(candidates, pairings):
        if as_int(pairing) == 1:
            return cand.label
    raise OracleDisagreement(f"conjugate of {w.label} matches no classified irrep")


# -- GRP reduction -----------------------------------------------------------------

def reduce_grp(inst: SemidirectInstance, g: GRParameter, u0: Corep,
               v0: ProjectiveRep, basis: list[np.ndarray] | None = None,
               big: Corep | None = None):
    """Reduce a GRP along (u0, V0); returns a RepParameter, or None when the
    isotypic component of [u0] in g.u is empty (callers score incidence 0).

    `basis` is intertwiner_basis(u0, g.u) and `big` the CSR corep of g, when
    the caller has built them already."""
    if basis is None:
        basis = intertwiner_basis(u0, g.u)
    n = len(basis)
    if n == 0:
        return None
    d0 = u0.dim
    cols = np.hstack(basis) * np.sqrt(d0)
    if max_abs(cols.conj().T @ cols - np.eye(n * d0)) > TOL_VERIFY:
        raise NonUnitaryExtraction("isotypic isometry is not orthonormal")
    # all local elements at once; the first one that fails is reported
    vp = cols.conj().T @ g.V.mats @ cols
    v1_mats = np.einsum("rki,rakbi->rab", np.conj(v0.mats),
                        vp.reshape(-1, n, d0, n, d0)) / d0
    factor_res = max_abs_each(vp - kron_stack(v1_mats, v0.mats))
    unit_res = max_abs_each(v1_mats @ v1_mats.conj().transpose(0, 2, 1) - np.eye(n))
    bad = np.flatnonzero((factor_res > TOL_ACCEPT) | (unit_res > TOL_VERIFY))
    if len(bad):
        if factor_res[bad[0]] > TOL_ACCEPT:
            raise NonUnitaryExtraction(
                f"compressed V does not factor through V0 at local element {bad[0]}")
        raise NonUnitaryExtraction("extracted factor is not unitary")
    omega1 = cocycle_product(g.V.cocycle, cocycle_inverse(v0.cocycle))
    v1_rep = ProjectiveRep(g.lambda0.group, v1_mats, omega1)
    if v1_rep.verify() > TOL_ACCEPT:
        raise NonUnitaryExtraction("extracted factor fails projectivity")
    result = RepParameter(u0, v0, proj_tensor(g.v, v1_rep), g.lambda0)
    result.validate(inst)
    # character check: the reduced CSR matches the isotypic block of the GRP's CSR
    red_chi = csr_corep(inst, result).char_vec()
    if big is None:
        big = csr_corep(inst, g)
    # the character of the block q^* big q is the trace of big against q q^*
    q = np.kron(np.eye(g.v.dim), cols)
    blk_chi = np.tensordot(np.conj(q) @ q.T, big.entries, 2)
    if max_abs(red_chi - blk_chi) > TOL_ACCEPT:
        raise OracleDisagreement("reduced CSR does not match the isotypic block")
    return result


# -- incidence numbers and fusion ---------------------------------------------------

class _FusionTables:
    """The artifacts of one fusion run, each built once per distinct input.

    Each moved u, V and v, tensor factor and GRP is interned as it is built:
    `pool` maps a content key, taken once at creation, to the first object
    with that content, and the run goes on with that object.
      corep           (id(parent), shape, entries bytes)
      projective rep  (id(group), shape, mats bytes, cocycle bytes)
      GRP             (id(u), id(V), id(v), Lambda0)
    GRPs are the only parameters interned, so their key needs no type.
    Parents and groups are matched by identity, never by ==. The pool keeps
    every interned object alive, so no id in a key is recycled within a run.

    The tables hash by identity, which on interned objects is equal content.
    A table's key is exactly what its artifact reads:
      csrs         parameter or GRP -> its CSR (classified ones from classify)
      transversals Lambda0 -> its left coset representatives
      triples      (Lambda_i) -> (reps, cap r_i Lambda_i r_i^{-1}) per coset triple
      moved        (p, r, meet) -> r . p on meet, chi of r . CSR(p) on G x| meet
      tensors      (moved x2, moved x3) -> x2 (x) x3, for x = u, V, v
      forms        (p1s, r, meet) -> the Haar forms of the stacked characters of
                   each r . p1 on G x| meet
      grps         (p2, r2, p3, r3, meet) -> the GRP and chi2 . chi3
      isotypic     (moved u1, GRP u) -> intertwiner_basis(u1, GRP u)
      reductions   (GRP, moved u1, moved V1) -> reduce_grp's result
      counts       (GRP, p1s, r, meet) -> proj_mor_dim(v1, reduced v), or 0,
                   for each moved p1
      columns      group -> ((p2, p3), N_{p2,p3}^{p1} for each p1 of the group)
                   of the last column asked for
    p1s is a tuple of parameters over one Lambda_1, in the caller's order. The
    classified parameters are split into groups, one per stabilizer Lambda_1:
    `groups` lists them, `place` maps each parameter to (its group, its
    position there), and `labels` to the label that errors name it by.
    """

    def __init__(self, inst: SemidirectInstance, classified):
        self.top = inst.top
        self.pool: dict = {}
        self.csrs = {w.parameter: w.csr for w in classified}
        self.transversals: dict = {}
        self.triples: dict = {}
        self.moved: dict = {}
        self.tensors: dict = {}
        self.forms: dict = {}
        self.grps: dict = {}
        self.isotypic: dict = {}
        self.reductions: dict = {}
        self.counts: dict = {}
        self.columns: dict = {}
        self.labels = {w.parameter: w.label for w in classified}
        by_stabilizer: dict = {}
        for p in self.labels:
            by_stabilizer.setdefault(p.lambda0.elements, []).append(p)
        self.groups = [tuple(group) for group in by_stabilizer.values()]
        self.place = {p: (i, j) for i, group in enumerate(self.groups)
                      for j, p in enumerate(group)}

    @staticmethod
    def _once(table: dict, key, build):
        if key not in table:
            table[key] = build()
        return table[key]

    def _intern(self, x):
        """The run's one object with the content of x, just built."""
        if isinstance(x, Corep):
            key = (id(x.parent), x.entries.shape, x.entries.tobytes())
        elif isinstance(x, ProjectiveRep):
            key = (id(x.group), x.mats.shape, x.mats.tobytes(), x.cocycle.values.tobytes())
        else:
            key = (id(x.u), id(x.V), id(x.v), x.lambda0.elements)
        return self.pool.setdefault(key, x)

    def transversal(self, sub: Subgroup) -> list[int]:
        """The left coset representatives of sub."""
        return self._once(self.transversals, sub.elements,
                          lambda: [z for z, _ in left_cosets(sub)])

    def coset_triples(self, subs: list[Subgroup]) -> list[tuple[tuple[int, ...], Subgroup]]:
        """(reps, cap r_i Lambda_i r_i^{-1}) for each triple of coset reps of subs."""
        return self._once(self.triples, tuple(s.elements for s in subs), lambda: [
            (reps, conjugate_intersection(subs, list(reps)))
            for reps in itertools.product(*map(self.transversal, subs))])

    def csr(self, p: GRParameter) -> Corep:
        return self._once(self.csrs, p, lambda: csr_corep(self.top, p))

    def moved_param(self, p: RepParameter, r: int,
                    meet: Subgroup) -> tuple[RepParameter, np.ndarray]:
        """r . p restricted to meet, and the character of r . CSR(p) on
        G x| meet, taken from the moved CSR and not from the moved p."""
        def build():
            u, V, v = (self._intern(x) for x in (
                act_corep(self.top, r, p.u), move_rep(self.top, r, p.lambda0, meet, p.V),
                move_rep(self.top, r, p.lambda0, meet, p.v)))
            restricted = restrict_corep(self.top, act_corep(self.top, r, self.csr(p)), meet)
            return type(p)(u, V, v, meet), restricted.char_vec()
        return self._once(self.moved, (p, r, meet.elements), build)

    def moved_forms(self, p1s: tuple, r: int, meet: Subgroup) -> np.ndarray:
        """The Haar forms of the stacked characters of r . p on meet, p in p1s:
        row i @ chi is the pairing on G x| meet of the i-th one with chi."""
        def build():
            chis = np.array([self.moved_param(p, r, meet)[1] for p in p1s])
            return self.top.principal(meet).product.pair_forms(chis)
        return self._once(self.forms, (p1s, r, meet.elements), build)

    def tensor(self, x2, x3):
        """x2 (x) x3 of two moved coreps or projective reps."""
        product = corep_tensor if isinstance(x2, Corep) else proj_tensor
        return self._once(self.tensors, (x2, x3),
                          lambda: self._intern(product(x2, x3)))

    def grp(self, p2: RepParameter, r2: int, p3: RepParameter, r3: int,
            meet: Subgroup) -> tuple[GRParameter, np.ndarray]:
        """The GRP (u2 (x) u3, V2 (x) V3, v2 (x) v3) of moved p2, p3 and chi2 . chi3
        on G x| meet; builds the GRP's CSR, the one check a GRP gets."""
        def build():
            q2, chi2 = self.moved_param(p2, r2, meet)
            q3, chi3 = self.moved_param(p3, r3, meet)
            g = self._intern(GRParameter(self.tensor(q2.u, q3.u), self.tensor(q2.V, q3.V),
                                         self.tensor(q2.v, q3.v), meet))
            self.csr(g)
            return g, self.top.principal(meet).product.product(chi2, chi3)
        return self._once(self.grps, (p2, r2, p3, r3, meet.elements), build)

    def reduction(self, g: GRParameter, q1: RepParameter):
        """reduce_grp of g along (q1.u, q1.V), with g's CSR from csrs; q1.v is not read."""
        def build():
            basis = self._once(self.isotypic, (q1.u, g.u),
                               lambda: intertwiner_basis(q1.u, g.u))
            return reduce_grp(self.top, g, q1.u, q1.V, basis, self.csrs[g])
        return self._once(self.reductions, (g, q1.u, q1.V), build)

    def reduction_counts(self, g: GRParameter, p1s: tuple, r: int,
                         meet: Subgroup) -> np.ndarray:
        """The reduction route's incidence of g with each q1 = r . p1 on meet,
        p1 in p1s: proj_mor_dim(q1.v, reduced v), or 0 when reduction(g, q1)
        is empty."""
        def build():
            counts = []
            for p1 in p1s:
                q1 = self.moved_param(p1, r, meet)[0]
                red = self.reduction(g, q1)
                counts.append(0 if red is None else proj_mor_dim(q1.v, red.v))
            return np.array(counts)
        return self._once(self.counts, (g, p1s, r, meet.elements), build)


def _entry_name(tables: _FusionTables, p1, p2, p3) -> str:
    return "N" + "".join(f"[{tables.labels[p]}]" for p in (p1, p2, p3))


def incidence(tables: _FusionTables, p1s: tuple, p2: RepParameter, p3: RepParameter,
              reps, meet: Subgroup) -> np.ndarray:
    """The incidence numbers of (p1, p2, p3) at coset representatives reps,
    with meet cap r_i Lambda_i r_i^{-1}, for every p1 of p1s (one Lambda_1).

    The character route pairs every moved chi1 with chi2 . chi3 in one
    product of Haar forms; the reduction route counts proj_mor_dim(v1,
    reduced v) once per GRP and moved p1. Both must agree on every entry.
    Artifacts come from, and go to, the fusion run's tables, whose labels
    name the entries.
    """
    forms = tables.moved_forms(p1s, reps[0], meet)
    grp, chi23 = tables.grp(p2, reps[1], p3, reps[2], meet)
    m_char = as_ints(forms @ chi23)
    m_proj = tables.reduction_counts(grp, p1s, reps[0], meet)
    bad = np.flatnonzero(m_char != m_proj)
    if len(bad):
        i = bad[0]
        raise OracleDisagreement(
            f"incidence routes disagree on {_entry_name(tables, p1s[i], p2, p3)} at "
            f"coset reps {tuple(reps)}: characters {m_char[i]}, reduction {m_proj[i]}")
    return m_char


def _formula_column(tables: _FusionTables, p1s: tuple, p2: RepParameter,
                    p3: RepParameter) -> np.ndarray:
    """N_{p2,p3}^{p1} = sum of m |meet| / |Lambda| over the coset triples of
    incidence m, for every p1 of p1s (one Lambda_1), summed in integers;
    raises NonIntegerCoefficient unless |Lambda| divides every sum."""
    total = 0
    for reps, meet in tables.coset_triples([p1s[0].lambda0, p2.lambda0, p3.lambda0]):
        total = total + incidence(tables, p1s, p2, p3, reps, meet) * meet.order
    order = tables.top.lam_full.order
    entries, rest = np.divmod(total, order)
    bad = np.flatnonzero(rest)
    if len(bad):
        i = bad[0]
        raise NonIntegerCoefficient(
            f"coset sum {total[i]} of {_entry_name(tables, p1s[i], p2, p3)} is not a "
            f"multiple of |Lambda| = {order}")
    return entries


FUSION_ROUTES = ("formula", "characters", "modules")


@dataclass(frozen=True, eq=False)
class FusionTable:
    irreps: list[ClassifiedIrr]
    coefficients: np.ndarray = field(repr=False)  # int cube N[w1][w2][w3]
    evaluated: dict  # route -> number of entries it computed

    def entry(self, i: int, j: int, k: int) -> int:
        return int(self.coefficients[i, j, k])

    def agreement(self) -> str:
        """The agreement line, derived from the recorded route counts.

        Raises unless every route evaluated every entry of the cube.
        """
        want = len(self.irreps) ** 3
        short = {r: self.evaluated.get(r, 0) for r in FUSION_ROUTES
                 if self.evaluated.get(r, 0) != want}
        if short:
            raise OracleDisagreement(
                f"fusion routes did not each evaluate all {want} entries: {short}")
        return f"{len(FUSION_ROUTES)}/{len(FUSION_ROUTES)} methods agree"


def fusion_entry(w1: ClassifiedIrr, w2: ClassifiedIrr, w3: ClassifiedIrr,
                 tables: _FusionTables) -> int:
    """N_{w2,w3}^{w1} by the coset-sum formula over the fusion run's tables.

    The formula runs by columns: the first entry asked for over a given
    (w2, w3) and stabilizer group of w1 evaluates that group's whole column
    in _formula_column, and the other entries of the column are read from
    it, so a caller that asks column by column evaluates each column once.
    """
    group, pos = tables.place[w1.parameter]
    pair = (w2.parameter, w3.parameter)
    last = tables.columns.get(group)
    if last is None or last[0] != pair:
        last = tables.columns[group] = (pair, _formula_column(
            tables, tables.groups[group], *pair).tolist())
    return last[1][pos]


def fusion(inst: SemidirectInstance, classified: list[ClassifiedIrr]) -> FusionTable:
    """The full fusion cube, three-way checked.

    Every entry is computed by (1) the coset-sum incidence formula, (2) the
    Haar pairing of characters on G x| Lambda, and (3) dual-algebra module
    homs; any disagreement raises. No route is skipped or sampled, and the
    table records how many entries each route evaluated.

    The cube is filled one (w2, w3) column at a time. Its formula entries
    come from fusion_entry, which evaluates the w1 that share a stabilizer
    Lambda_1 together: their column walks the coset triples of (Lambda_1,
    Lambda_2, Lambda_3) once, and at each triple `incidence` gets the
    character route's incidence of every such w1 in one product and compares
    it, entry by entry, with the reduction route's. The characters route
    pairs chi2 . chi3 with the Haar forms of all classified characters in one
    product, and module_fusion_cube counts the module homs in one batch per
    w2. The three routes are then compared on the whole column. Everything
    else is built once per distinct input, by content, and shared through
    the run's tables; _FusionTables lists them.
    """
    top = inst.top
    h = top.product
    k = len(classified)
    tables = _FusionTables(top, classified)
    modules = module_fusion_cube([w.induced for w in classified])
    forms = h.pair_forms(np.array([w.character for w in classified]))
    cube = np.zeros((k, k, k), dtype=int)
    evaluated = dict.fromkeys(FUSION_ROUTES, 0)
    for i2, w2 in enumerate(classified):
        for i3, w3 in enumerate(classified):
            found = {
                "formula": np.array([fusion_entry(w1, w2, w3, tables) for w1 in classified]),
                "characters": as_ints(forms @ h.product(w2.character, w3.character)),
                "modules": modules[:, i2, i3],
            }
            for route, column in found.items():
                evaluated[route] += len(column)
            formula = found["formula"]
            bad = np.flatnonzero((formula != found["characters"]) | (formula != found["modules"]))
            if len(bad):
                i1 = bad[0]
                raise OracleDisagreement(
                    f"fusion N[{classified[i1].label}][{w2.label}][{w3.label}]: formula "
                    f"{formula[i1]}, characters {found['characters'][i1]}, "
                    f"modules {found['modules'][i1]}")
            cube[:, i2, i3] = formula
    return FusionTable(irreps=list(classified), coefficients=cube, evaluated=evaluated)
