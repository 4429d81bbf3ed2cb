"""A call-logging spy, and small objects that only the tests build (trivial
and direct-sum representations, the trivial action, the trivial subgroup, base
coreps viewed over G x| {e}, conjugation instances C(K) x| lam and the inner
action of Z2^2 on Q8, a HopfData with empty caches), dense
copies of a HopfData's tensors and the dense structure constants of its dual
algebra, the float generating-set reference that the exact
HopfData.generators() is checked against, raw_hopf documents, among them the
shipped instances on a rescaled basis, whose comult is no table, the
(co)commutativity tests of a Hopf algebra, the dense conjugation isomorphism
that act_corep is checked against, the split of a corep into its covariant
pair, the l2(Lambda) (x) H construction that every induced corep is checked
against, element-by-element and einsum references of the batched
group-relation checks and corep contractions, the two-step
translate-then-restrict reference of a moved parameter, the module-hom
systems over all d coefficient slices that the generator-slice systems are
checked against, fusion entries and incidence numbers over fresh tables, and
the algebraic identities every fusion cube satisfies."""

import itertools

import numpy as np

from semirep._linalg import (RANK_RTOL, TOL_ACCEPT, TOL_VERIFY, check_commutant,
                             compress_stack, decompose, hom_space_dim, max_abs,
                             max_abs_each, module_hom_basis)
from semirep.cohomology import Cochain1, Cochain2, trivial_cochain2
from semirep.corep import (Corep, compress, intertwiner_basis, regular_corep, tensor,
                           verify_corep)
from semirep.corpus import build_instance, instance_spec
from semirep.errors import (CocycleMismatch, CovarianceFailure, NonUnitaryExtraction,
                            NotProjective, NotScalarRelated, ValidationError)
from semirep.groups import (FiniteGroup, Subgroup, conjugate_intersection,
                            conjugate_subgroup, cyclic_group, direct_product, left_cosets,
                            quaternion_group, symmetric_group)
from semirep.hopf import HopfData
from semirep.mackey import _FusionTables, fusion_entry, incidence
from semirep.projective import ProjectiveRep, ordinary_rep, pullback
from semirep.semidirect import act_corep, instance_of_corep, join_covariant


def spy(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs (args, result) per call."""
    fn = getattr(module, name)
    log = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return log


def fresh(h: HopfData) -> HopfData:
    """The same tensors with empty caches."""
    return HopfData(h.mult, h.unit, h.comult, h.counit, h.antipode, h.star, h.haar)


TENSORS = ("mult", "unit", "comult", "counit", "antipode", "star", "haar")


def dense(h: HopfData, name: str) -> np.ndarray:
    """A dense copy of one of the tensors of h; mult and comult, which h holds
    as their nonzeros, as (d, d, d) arrays."""
    if name not in ("mult", "comult"):
        return getattr(h, name).copy()
    keys, vals = getattr(h, name)
    out = np.zeros(h.dim ** 3, dtype=complex)
    out[keys] = vals
    return out.reshape((h.dim,) * 3)


def dual_algebra(h: HopfData):
    """Dense structure constants of the dual *-algebra A^.

    Returns (mult_hat, star_hat): f_a f_b = sum_k mult_hat[a, b, k] f_k where
    f_a is the dual basis, and coeffs(phi^*) = star_hat @ conj(coeffs(phi)).
    """
    mult_hat = dense(h, "comult").transpose(1, 2, 0)
    # phi^*(x) = conj(phi(S(x)^*)): f_a^*(e_k) = conj((star @ conj(antipode))[a, k])
    star_hat = (np.conj(h.star) @ h.antipode).T
    return mult_hat, star_hat


def _orthonormal_span(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the columns of vectors, the rank read
    from their singular values with RANK_RTOL."""
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, :np.count_nonzero(s > RANK_RTOL * max(1.0, s[0]))]


def generating_subset(h: HopfData, candidates) -> np.ndarray:
    """The float reference of HopfData.generators(): the candidate indices
    a, in their order, that a greedy pass keeps, f_a joining unless it lies
    in the subalgebra of A^ the kept ones generate. Raises ValidationError
    unless the kept f_a generate A^.

    The subalgebra is the span of the kept f_a's words, closed in floating
    point from the unit of A^ (the counit) under the left multiplications by
    the kept f_a, coeffs(f_a phi) = mult_hat[a].T @ coeffs(phi); f_a lies in
    it iff e_a's component outside the span is at most RANK_RTOL.
    """
    d = h.dim
    lefts = dual_algebra(h)[0].transpose(0, 2, 1)
    span = _orthonormal_span(h.counit[:, None])
    gens: list[int] = []
    for a in candidates:
        if span.shape[1] == d:
            break
        if np.linalg.norm(np.eye(d)[a] - span @ np.conj(span[a])) <= RANK_RTOL:
            continue
        gens.append(int(a))
        while True:
            grown = _orthonormal_span(np.hstack([span, *(lefts[gens] @ span)]))
            if grown.shape[1] == span.shape[1]:
                break
            span = grown
    if span.shape[1] < d:
        raise ValidationError(
            f"dual basis elements {gens} generate a subalgebra of dimension "
            f"{span.shape[1]} < {d}")
    return np.array(gens, dtype=int)


def complexify(arr) -> list:
    """An array as nested lists with [re, im] pairs, as raw_hopf files hold it."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def raw_spec_from(h: HopfData, lam_table, action_mats, name="raw") -> dict:
    """The raw_hopf document of h with Lambda's table and the matrices of alpha*_r."""
    return {
        "name": name,
        "kind": "raw_hopf",
        "base": {t: complexify(dense(h, t)) for t in TENSORS},
        "lambda": {"order": len(lam_table), "table": lam_table},
        "action": [complexify(m) for m in action_mats],
    }


def rescaled_spec(name: str) -> dict:
    """The shipped instance `name` as a raw_hopf document on the basis
    e'_i = s_i e_i of its base, s_i = 2 on odd i and 1 on even i.

    Coefficient vectors change as x' = D^-1 x, D = diag(s), so
    mult'[i, j, k] = mult[i, j, k] s_i s_j / s_k, comult'[i, j, k] =
    comult[i, j, k] s_i / (s_j s_k), unit' = D^-1 unit, counit' = D counit,
    haar' = D haar, and antipode, star and every alpha*_r become D^-1 M D.
    Some nonzero of comult' is not 1, so comult' is no table.
    """
    spec = instance_spec(name)
    inst = build_instance(spec)
    h = inst.base
    s = np.where(np.arange(h.dim) % 2, 2.0, 1.0)
    similar = s / s[:, None]  # (D^-1 M D)[i, j] = M[i, j] s_j / s_i
    rescaled = HopfData.from_dense(
        mult=dense(h, "mult") * s[:, None, None] * s[:, None] / s,
        unit=h.unit / s,
        comult=dense(h, "comult") * s[:, None, None] / s[:, None] / s,
        counit=h.counit * s, antipode=h.antipode * similar, star=h.star * similar,
        haar=h.haar * s)
    out = raw_spec_from(rescaled, spec["lambda"]["table"], inst.alpha * similar,
                        name=f"{spec['name']}, rescaled by 2 on odd indices")
    return dict(out, seed=spec["seed"])


def trivial_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, (g.identity,))


def is_commutative(h: HopfData) -> bool:
    mult = dense(h, "mult")
    return max_abs(mult - mult.transpose(1, 0, 2)) <= TOL_VERIFY


def is_cocommutative(h: HopfData) -> bool:
    comult = dense(h, "comult")
    return max_abs(comult - comult.transpose(0, 2, 1)) <= TOL_VERIFY


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


def trivial_action(h: HopfData, lam: FiniteGroup) -> np.ndarray:
    """The stack of alpha*_r = id, one per element of lam."""
    return np.broadcast_to(np.eye(h.dim, dtype=complex), (lam.order, h.dim, h.dim))


def embed_base_corep(inst, u: Corep) -> Corep:
    """View a corep of G as a corep of G x| {e} (the trivial principal piece)."""
    target = inst.principal(trivial_subgroup(inst.top.lam_full))
    if u.parent is not inst.base:
        raise ValidationError("expected a corepresentation of the base")
    return Corep(target.product, u.entries.copy())


def conjugation_spec(n, base, lam, embed):
    """C(K) x| lam for a subgroup K of S_n, given by its S_n indices `base`;
    r acts by conjugation with the S_n permutation embed(r)."""
    sn = symmetric_group(n)
    perms = sorted(itertools.permutations(range(n)))
    k = Subgroup(sn, base)
    act = []
    for r in lam.elements():
        s = perms.index(embed(r))
        act.append([k.to_local(sn.mul(sn.mul(s, g), sn.inverse(s))) for g in k.elements])
    return {"name": f"C(K), |K| = {k.order} in S{n}, x| group of order {lam.order}",
            "kind": "function_algebra",
            "base": {"order": k.order, "table": k.group.mult.tolist()},
            "lambda": {"order": lam.order, "table": lam.mult.tolist()},
            "action": act}


def q8_inner_action():
    """Z2 x Z2 -> Inn(Q8), (a, b) -> conjugation with i^a j^b; the element
    (a, b) of direct_product is packed as 2 a + b."""
    q8 = quaternion_group()
    i, j = 2, 4  # quaternion_group lists 1, -1, i, -i, j, -j, k, -k
    hom = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s = q8.mul(i if a else q8.identity, j if b else q8.identity)
        hom.append([q8.mul(q8.mul(s, g), q8.inverse(s)) for g in q8.elements()])
    return q8, direct_product(cyclic_group(2), cyclic_group(2)), hom


def conjugation_iso(inst, sub: Subgroup, r: int) -> np.ndarray:
    """The Hopf *-isomorphism alpha*_r (x) Adj*_r from G x| Lambda0 to G x| rLambda0r^-1.

    The dense matrix maps coefficient vectors on the *target* instance (over
    r Lambda0 r^{-1}) to coefficient vectors on the source (over Lambda0),
    implementing the pullback e_i (x) delta_{r s r^{-1}} -> alpha*_r(e_i) (x) delta_s.
    """
    top = inst.top
    target = conjugate_subgroup(sub, r)
    d = top.base.dim
    m_r = top.alpha[r]
    mat = np.zeros((sub.order * d, target.order * d), dtype=complex)
    for s_local, s in enumerate(sub.elements):
        t_local = target.to_local(top.lam_full.conjugate(r, s))
        mat[s_local * d:(s_local + 1) * d, t_local * d:(t_local + 1) * d] = m_r
    return mat


# -- element-by-element references of the batched group-relation checks ---------
#
# The library checks every relation between group elements over the whole
# multiplication table in one array expression. These are the same checks as
# explicit loops over elements, with the same residuals, witnesses, exception
# classes and messages; tests compare the two.

def _loop_is_cocycle(omega):
    g = omega.group
    w = omega.values
    worst = 0.0
    worst_triple = None
    for r in g.elements():
        for s in g.elements():
            rs = g.mul(r, s)
            for t in g.elements():
                lhs = w[r, g.mul(s, t)] * w[s, t]
                rhs = w[r, s] * w[rs, t]
                res = abs(lhs - rhs)
                if res > worst:
                    worst, worst_triple = res, (r, s, t)
    return worst <= TOL_VERIFY, worst, worst_triple


def _loop_coboundary(b):
    g = b.group
    vals = np.empty((g.order, g.order), dtype=complex)
    for r in g.elements():
        for s in g.elements():
            vals[r, s] = b(r) * b(s) / b(g.mul(r, s))
    return Cochain2(g, vals)


def _loop_cocycle_of(group, mats):
    mats = np.asarray(mats, dtype=complex)
    dim = mats.shape[1]
    n = group.order
    vals = np.empty((n, n), dtype=complex)
    worst = 0.0
    for r in range(n):
        for s in range(n):
            rs = group.mul(r, s)
            prod = mats[r] @ mats[s]
            w = np.trace(mats[rs].conj().T @ prod) / dim
            if abs(w) < 1e-8:
                raise NotProjective(f"V({r})V({s}) is orthogonal to V({r}*{s})")
            w /= abs(w)
            worst = max(worst, max_abs(prod - w * mats[rs]))
            vals[r, s] = w
    if worst > TOL_ACCEPT:
        raise NotProjective(f"projectivity residual {worst} exceeds {TOL_ACCEPT}")
    omega = Cochain2(group, vals)
    ok, res, triple = _loop_is_cocycle(omega)
    if not ok:
        raise NotProjective(f"extracted cochain fails cocycle law at {triple} ({res})")
    return omega


def _loop_verify(v: ProjectiveRep) -> float:
    """ProjectiveRep.verify, element by element."""
    g = v.group
    eye = np.eye(v.dim)
    worst = max_abs(v.mats[g.identity] - eye)
    for r in g.elements():
        worst = max(worst, max_abs(v.mats[r] @ v.mats[r].conj().T - eye))
        for s in g.elements():
            res = v.mats[r] @ v.mats[s] - v.cocycle(r, s) * v.mats[g.mul(r, s)]
            worst = max(worst, max_abs(res))
    return worst


def _loop_proj_tensor_mats(v1: ProjectiveRep, v2: ProjectiveRep) -> np.ndarray:
    return np.stack([np.kron(v1.mats[r], v2.mats[r]) for r in v1.group.elements()])


def _loop_transitional_map(v1: ProjectiveRep, v2: ProjectiveRep) -> Cochain1:
    g = v1.group
    vals = np.empty(g.order, dtype=complex)
    for r in g.elements():
        ratio = np.trace(v2.mats[r] @ v1.mats[r].conj().T) / v1.dim
        if abs(ratio) < 1e-8:
            raise NotScalarRelated(f"V2({r}) is orthogonal to V1({r})")
        ratio /= abs(ratio)
        if max_abs(v2.mats[r] - ratio * v1.mats[r]) > TOL_ACCEPT:
            raise NotScalarRelated(f"V2({r}) is not a scalar multiple of V1({r})")
        vals[r] = ratio
    return Cochain1(g, vals)


def _loop_regular_twisted_mats(group: FiniteGroup, omega) -> np.ndarray:
    n = group.order
    mats = np.zeros((n, n, n), dtype=complex)
    for r in group.elements():
        for s in group.elements():
            mats[r, group.mul(r, s), s] = omega(r, s)
    return mats


def _loop_check_covariant(inst, ug: Corep, ul: ProjectiveRep):
    worst, witness = 0.0, None
    for r_local in inst.lam.elements():
        f = ul.mats[r_local]
        m = inst.alpha[inst.subgroup.elements[r_local]]
        lhs = np.einsum("ik,kjc->ijc", f, ug.entries)
        rhs = np.einsum("kj,ikc->ijc", f, ug.entries) @ m.T
        res = np.abs(lhs - rhs)
        local_worst = float(res.max())
        if local_worst > worst:
            ij = np.unravel_index(np.argmax(res.max(axis=-1)), (ug.dim, ug.dim))
            worst, witness = local_worst, (r_local, int(ij[0]), int(ij[1]))
    return worst <= TOL_VERIFY, worst, witness


def _loop_join_covariant_entries(inst, ug: Corep, mats) -> np.ndarray:
    """The entries join_covariant builds for a covariant pair."""
    n = ug.dim
    entries = np.zeros((n, n, inst.lam.order, inst.base.dim), dtype=complex)
    for r_local in inst.lam.elements():
        entries[:, :, r_local, :] = np.einsum("ikc,kj->ijc", ug.entries, mats[r_local])
    return entries.reshape(n, n, inst.dim)


def _loop_grp_factor(g, u0: Corep, v0: ProjectiveRep):
    """The factor V1 with (compressed V) = V1 (x) V0 that reduce_grp extracts
    from a GRP g, or None for an empty isotypic component."""
    basis = intertwiner_basis(u0, g.u)
    n = len(basis)
    if n == 0:
        return None
    d0 = u0.dim
    cols = np.zeros((g.u.dim, n * d0), dtype=complex)
    for a, t in enumerate(basis):
        cols[:, a * d0:(a + 1) * d0] = t * np.sqrt(d0)
    order = g.lambda0.order
    v1_mats = np.zeros((order, n, n), dtype=complex)
    for local in range(order):
        vp = cols.conj().T @ g.V.mats[local] @ cols
        block = vp.reshape(n, d0, n, d0)
        v1 = np.einsum("ki,akbi->ab", np.conj(v0.mats[local]), block) / d0
        if max_abs(block - np.einsum("ab,ij->aibj", v1, v0.mats[local])) > TOL_ACCEPT:
            raise NonUnitaryExtraction(
                f"compressed V does not factor through V0 at local element {local}")
        if max_abs(v1 @ v1.conj().T - np.eye(n)) > TOL_VERIFY:
            raise NonUnitaryExtraction("extracted factor is not unitary")
        v1_mats[local] = v1
    return v1_mats


def _loop_coset_isometry(top, sub: Subgroup, ul: ProjectiveRep) -> np.ndarray:
    """The orthonormal basis of K = range(pi), one column block per right
    coset Lambda0 s: block s holds U_Lambda(r0) / sqrt|Lambda0| in row block
    r0 s."""
    lam = top.lam_full
    n = ul.dim
    nl = lam.order
    cols = []
    for rep, _ in left_cosets(sub):
        s = lam.inverse(rep)
        for a in range(n):
            vec = np.zeros(nl * n, dtype=complex)
            for r0_local, r0 in enumerate(sub.elements):
                t = lam.mul(r0, s)
                vec[t * n:(t + 1) * n] += ul.mats[r0_local][:, a]
            cols.append(vec / np.sqrt(sub.order))
    return np.array(cols).T


# -- an induced corep through l2(Lambda) (x) H -----------------------------------

def split_covariant(inst, u: Corep) -> tuple[Corep, ProjectiveRep]:
    """U -> (U_G, U_Lambda) via the counits of the two factors, U_Lambda
    certified as an ordinary representation."""
    blocks = u.entries.reshape(u.dim, u.dim, inst.lam.order, inst.base.dim)
    ug = Corep(inst.base, blocks[:, :, inst.lam.identity].copy())
    mats = np.einsum("ijrc,c->rij", blocks, inst.base.counit)
    return ug, ordinary_rep(inst.lam, mats)


def reference_induce(inst, u: Corep) -> Corep:
    """Ind(U) as the compression of a corep on l2(Lambda) (x) H to its
    covariant subspace K, the reference that induction.induce is checked
    against.

    W~_Lambda is the right-regular representation of Lambda on l2(Lambda)
    tensored with id_H, W~_G = sum_s e_{s,s} (x) (id (x) alpha*_s)(U_G), and
    pi = |Lambda0|^{-1} sum_{r0, s} e_{r0 s, s} (x) U_Lambda(r0) projects onto
    K. pi must be a projection commuting with every W~_Lambda(s) and with
    W~_G, and the coset basis of K must be orthonormal and lie in range(pi);
    the joined corep (W~_G, W~_Lambda) is then compressed to that basis.
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

    wg_entries = np.zeros((nl, n, nl, n, top.base.dim), dtype=complex)
    wg_entries[span, :, span] = ug.entries @ top.alpha_mats.transpose(0, 2, 1)[:, None]
    wg = Corep(top.base, wg_entries.reshape(nl * n, nl * n, -1))

    # r0 -> r0 s is injective, so every block of pi is set at most once
    r0 = np.array(sub.elements)[:, None]
    pi = np.zeros((nl, n, nl, n), dtype=complex)
    pi[lam.mult[r0, span], :, span] = ul.mats[:, None]
    pi = pi.reshape(nl * n, nl * n) / sub.order

    res = max_abs(pi @ pi - pi)
    if res > TOL_VERIFY:
        raise ValidationError(f"pi is not a projection (residual {res:.2e})")
    comm = max_abs_each(pi @ wl.mats - wl.mats @ pi)
    bad = np.flatnonzero(comm > TOL_VERIFY)
    if len(bad):
        raise ValidationError(
            f"pi does not commute with W~_Lambda({bad[0]}) ({comm[bad[0]]:.2e})")
    res = max_abs(np.einsum("ik,kjc->ijc", pi, wg.entries)
                  - np.einsum("ikc,kj->ijc", wg.entries, pi))
    if res > TOL_VERIFY:
        raise ValidationError(f"pi does not commute with W~_G ({res:.2e})")

    isometry = _loop_coset_isometry(top, sub, ul)
    if max_abs(isometry.conj().T @ isometry - np.eye(isometry.shape[1])) > TOL_VERIFY:
        raise ValidationError("coset basis of K is not orthonormal")
    if max_abs(pi @ isometry - isometry) > TOL_VERIFY:
        raise ValidationError("coset basis does not lie in range(pi)")

    result = compress(join_covariant(top, wg, wl.mats), isometry)
    report = verify_corep(result)
    if not report["pass"]:
        raise CovarianceFailure(
            f"induced corep fails verification (max {report['max']:.2e})")
    return result


# -- a moved parameter in two steps --------------------------------------------

def translate_param(inst, r: int, p):
    """r . (u, V, v) over r Lambda0 r^{-1}: (r . V)(r a r^{-1}) = V(a)."""
    lam = inst.top.lam_full
    sub_to = conjugate_subgroup(p.lambda0, r)
    idx = p.lambda0.to_local(lam.conjugate(lam.inverse(r), sub_to.elements))
    return type(p)(act_corep(inst, r, p.u), pullback(p.V, idx, sub_to.group),
                   pullback(p.v, idx, sub_to.group), sub_to)


def restrict_param(p, sub_to: Subgroup):
    """(u, V, v) restricted to a (global) subgroup sub_to of its Lambda0."""
    idx = p.lambda0.to_local(sub_to.elements)
    return type(p)(p.u, pullback(p.V, idx, sub_to.group),
                   pullback(p.v, idx, sub_to.group), sub_to)


# -- einsum references of the corep contractions -------------------------------

def _einsum_corep_tensor(u: Corep, w: Corep) -> np.ndarray:
    """The entries of corep.tensor(u, w) by one optimized einsum."""
    h = u.parent
    prod = np.einsum("ija,klb,abc->ikjlc", u.entries, w.entries, dense(h, "mult"),
                     optimize=True)
    n = u.dim * w.dim
    return prod.reshape(n, n, h.dim)


def _einsum_verify_corep(u: Corep) -> dict:
    """verify_corep(u) with its contractions as optimized einsums."""
    h = u.parent
    e = u.entries
    res = {}
    lhs = np.einsum("ijc,cab->ijab", e, dense(h, "comult"))
    rhs = np.einsum("ika,kjb->ijab", e, e)
    res["comodule"] = max_abs(lhs - rhs)
    res["counit"] = max_abs(np.einsum("ijc,c->ij", e, h.counit) - np.eye(u.dim))
    star_e = np.einsum("pc,ijc->ijp", h.star, np.conj(e))
    mult = dense(h, "mult")
    row = np.einsum("ika,jkb,abp->ijp", e, star_e, mult, optimize=True)
    col = np.einsum("kia,kjb,abp->ijp", star_e, e, mult, optimize=True)
    target = np.einsum("ij,p->ijp", np.eye(u.dim), h.unit)
    res["unitary_rows"] = max_abs(row - target)
    res["unitary_cols"] = max_abs(col - target)
    res["max"] = max(res.values())
    res["pass"] = res["max"] < TOL_VERIFY
    return res


# -- module-hom systems over all d coefficient slices ---------------------------
#
# The library stacks only the slices of a generating set of the dual algebra
# (Corep.coeff_slices). These are the same systems over every slice
# (id (x) f_a)(u), a = 0..d-1; tests compare the two.

def all_slices(u: Corep) -> np.ndarray:
    """Every coefficient slice of u, stacked along the first axis."""
    return np.moveaxis(u.entries, 2, 0)


def all_slice_mor_dim(u: Corep, w: Corep) -> int:
    return hom_space_dim(all_slices(u), all_slices(w))


def all_slice_module_fusion_cube(coreps: list[Corep]) -> np.ndarray:
    k = len(coreps)
    cube = np.zeros((k, k, k), dtype=int)
    for i2, w2 in enumerate(coreps):
        for i3, w3 in enumerate(coreps):
            t = all_slices(tensor(w2, w3))
            for i1, w1 in enumerate(coreps):
                cube[i1, i2, i3] = hom_space_dim(all_slices(w1), t)
    return cube


def all_slice_oracle_irr_dims(h: HopfData, seed: int) -> list[int]:
    reg, comm = regular_corep(h)
    slices = all_slices(reg)
    check_commutant(slices, comm)
    pieces = decompose(slices, comm, lambda s: module_hom_basis(s, s), compress_stack,
                       lambda a, b: (a.shape[1:] == b.shape[1:]
                                     and hom_space_dim(a, b) >= 1), seed)
    return sorted(f.shape[1] for f, _ in pieces)


# -- fusion entries outside a fusion run ------------------------------------------

def standalone_entry(inst, w1, w2, w3) -> int:
    """fusion_entry over fresh tables that hold only the three classified irreps."""
    return fusion_entry(w1, w2, w3, _FusionTables(inst, (w1, w2, w3)))


def standalone_incidence(inst, ws, reps) -> int:
    """incidence of three classified irreps at the meet cap r_i Lambda_i r_i^{-1},
    over fresh tables that hold only those irreps."""
    p1, p2, p3 = (w.parameter for w in ws)
    meet = conjugate_intersection([p.lambda0 for p in (p1, p2, p3)], list(reps))
    return int(incidence(_FusionTables(inst, ws), (p1,), p2, p3, reps, meet)[0])


def check_fusion_identities(n: np.ndarray, dims: np.ndarray, bar: np.ndarray) -> None:
    """Assert the identities of a fusion cube N[w1][w2][w3] = N_{w2 w3}^{w1},
    given each irrep's dimension and the index bar[w] of its conjugate:
    - Frobenius reciprocity: N[w1][w2][w3] = N[w2][w1][conj(w3)];
    - the dimension identity: sum_w1 N[w1][w2][w3] dim w1 = dim w2 dim w3;
    - a unique unit t with N[:][t][:] the identity, and N[t][w][conj(w)] = 1.
    """
    k = len(dims)
    assert n.shape == (k, k, k) and (n >= 0).all()
    assert np.array_equal(bar[bar], np.arange(k))

    assert np.array_equal(n, n.transpose(1, 0, 2)[:, :, bar])
    assert np.array_equal(np.einsum("abc,a->bc", n, dims), np.outer(dims, dims))

    units = [t for t in range(k) if np.array_equal(n[:, t, :], np.eye(k, dtype=int))]
    assert len(units) == 1
    t = units[0]
    assert dims[t] == 1 and bar[t] == t
    assert all(n[t, i, bar[i]] == 1 for i in range(k))
