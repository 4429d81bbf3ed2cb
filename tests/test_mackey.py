import numpy as np
import pytest

from semirep import cli, corep, mackey
from semirep._linalg import DEFAULT_SEED, max_abs
from semirep.cohomology import cocycle_inverse, cocycle_product
from semirep.corep import Corep, irr_action, irr_enumerate, mor_dim, verify_corep
from semirep.corpus import INSTANCES, instance
from semirep.errors import CompletenessFailure, NotStabilized, ValidationError
from semirep.groups import all_subgroups, full_subgroup, stabilizer
from semirep.induction import induce, mackey_irreducible
from semirep.mackey import (GRParameter, RepParameter, classify,
                            conjugate_parameter, conjugation_pairing,
                            covariant_projective, csr_corep, fusion,
                            move_rep, param_mor_dim, reduce_grp, stabilizer_of_class)
from semirep.projective import ProjectiveRep, irreducible_projreps
from semirep.semidirect import act_corep

from helpers import (proj_direct_sum, restrict_param, spy, standalone_incidence,
                     translate_param, trivial_rep, trivial_subgroup)


def classified(inst, cache={}):
    key = id(inst)
    if key not in cache:
        cache[key] = classify(inst)
    return cache[key]


def trivial_base_char(inst):
    return next(u for u in irr_enumerate(inst.base)
                if u.dim == 1 and max_abs(u.entries[0, 0] - inst.base.unit) < 1e-9)


# -- covariant projective -------------------------------------------------------

def test_covariant_projective_trivial_subgroup(inst_a):
    u = irr_enumerate(inst_a.base)[0]
    v = covariant_projective(inst_a, u, trivial_subgroup(inst_a.lam_full))
    assert v.dim == u.dim and v.group.order == 1
    assert np.allclose(v.cocycle.values, 1.0)


def test_covariant_projective_trivial_char(inst_a):
    u = trivial_base_char(inst_a)
    v = covariant_projective(inst_a, u, full_subgroup(inst_a.lam_full))
    assert np.allclose(v.mats, 1.0)  # gauge forces V = 1 for 1-dim fixed chars
    assert np.allclose(v.cocycle.values, 1.0)


def test_covariant_projective_b_scalars(inst_b):
    # chi_{11} is swap-fixed; its V is scalar with coboundary-trivial cocycle
    fixed = [u for u in irr_enumerate(inst_b.base)
             if mor_dim(act_corep(inst_b, 1, u), u) == 1]
    for u in fixed:
        v = covariant_projective(inst_b, u, full_subgroup(inst_b.lam_full))
        assert v.dim == 1
        vs = irreducible_projreps(v.group, v.cocycle)
        assert any(w.dim == 1 for w in vs)  # class is trivial


def test_covariant_projective_not_stabilized(inst_a):
    omega = next(u for u in irr_enumerate(inst_a.base)
                 if max_abs(u.entries[0, 0] - inst_a.base.unit) > 1e-6)
    with pytest.raises(NotStabilized):
        covariant_projective(inst_a, omega, full_subgroup(inst_a.lam_full))


def test_stabilizer_of_class_matches_action(inst_c):
    xs = irr_enumerate(inst_c.base)
    action = irr_action(inst_c.base, inst_c.lam_full, inst_c.alpha)
    for i, u in enumerate(xs):
        assert stabilizer_of_class(inst_c, u).elements == \
            stabilizer(action, i).elements


# -- csr coreps -------------------------------------------------------------------

def test_csr_corep_trivial_parameter(inst_a):
    sub = trivial_subgroup(inst_a.lam_full)
    u = irr_enumerate(inst_a.base)[1]
    v_cov = covariant_projective(inst_a, u, sub)
    p = RepParameter(u, v_cov, trivial_rep(sub.group), sub)
    p.validate(inst_a)
    csr = csr_corep(inst_a, p)
    assert csr.dim == u.dim
    assert np.max(np.abs(csr.entries - u.entries)) < 1e-12


def test_csr_corep_sign_twist_induces_sign_rep(inst_a):
    # x = trivial char, v = sign of Z2: a 1-dim corep of G x| Lambda
    full = full_subgroup(inst_a.lam_full)
    u = trivial_base_char(inst_a)
    v_cov = covariant_projective(inst_a, u, full)
    sgn = next(v for v in irreducible_projreps(full.group, v_cov.cocycle)
               if not np.allclose(v.character(), 1.0))
    p = RepParameter(u, v_cov, sgn, full)
    csr = csr_corep(inst_a, p)
    assert csr.dim == 1
    assert verify_corep(csr)["pass"]
    ind = induce(inst_a, csr)
    assert ind.result.dim == 1
    assert mor_dim(ind.result, ind.result) == 1


def test_csr_irreducible_iff_v_irreducible(inst_a):
    full = full_subgroup(inst_a.lam_full)
    u = trivial_base_char(inst_a)
    v_cov = covariant_projective(inst_a, u, full)
    vs = irreducible_projreps(full.group, cocycle_inverse(v_cov.cocycle))
    for v in vs:
        assert mor_dim(csr_corep(inst_a, RepParameter(u, v_cov, v, full)),
                       csr_corep(inst_a, RepParameter(u, v_cov, v, full))) == 1
    red = proj_direct_sum(vs[0], vs[1])
    grp = GRParameter(u, v_cov, red, full)
    csr = csr_corep(inst_a, grp)
    assert mor_dim(csr, csr) == 2


# -- param_mor_dim ----------------------------------------------------------------

def test_param_mor_dim_cases(inst_b):
    full = full_subgroup(inst_b.lam_full)
    fixed = [u for u in irr_enumerate(inst_b.base)
             if mor_dim(act_corep(inst_b, 1, u), u) == 1]
    u1, u2 = fixed
    v1 = covariant_projective(inst_b, u1, full)
    v2 = covariant_projective(inst_b, u2, full)
    vs1 = irreducible_projreps(full.group, cocycle_inverse(v1.cocycle))
    vs2 = irreducible_projreps(full.group, cocycle_inverse(v2.cocycle))
    p = RepParameter(u1, v1, vs1[0], full)
    assert param_mor_dim(inst_b, p, p) == 1
    q = RepParameter(u1, v1, vs1[1], full)
    assert param_mor_dim(inst_b, p, q) == 0  # same (u, V), inequivalent v
    r = RepParameter(u2, v2, vs2[0], full)
    assert param_mor_dim(inst_b, p, r) == 0  # [u1] != [u2]


# -- classification ---------------------------------------------------------------

def test_classify_dims(inst_a, inst_b, inst_c):
    assert sorted(w.dim for w in classified(inst_a)) == [1, 1, 2]
    assert sorted(w.dim for w in classified(inst_b)) == [1, 1, 1, 1, 2]
    assert sorted(w.dim for w in classified(inst_c)) == [1, 1, 1, 1, 2, 2]


def test_classify_peter_weyl(inst_a, inst_b, inst_c, inst_d):
    for inst, total in ((inst_a, 6), (inst_b, 8), (inst_c, 12), (inst_d, 12)):
        cl = classified(inst)
        assert sum(w.dim ** 2 for w in cl) == total


def test_classify_e_giso_instance(inst_e):
    cl = classified(inst_e)
    assert sorted(w.dim for w in cl) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
    assert sum(w.dim ** 2 for w in cl) == 36


def test_classified_matches_irr_enumerate(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        cl = classified(inst)
        enum = irr_enumerate(inst.product)
        assert sorted(w.dim for w in cl) == sorted(u.dim for u in enum)
        # pair off by equivalence
        for w in cl:
            matches = [u for u in enum if u.dim == w.dim and
                       mor_dim(w.induced, u) == 1]
            assert len(matches) == 1


def test_classified_irreducible_and_mackey(inst_a, inst_b, inst_c):
    for inst in (inst_a, inst_b, inst_c):
        for w in classified(inst):
            assert mor_dim(w.induced, w.induced) == 1
            assert mackey_irreducible(inst, w.csr)


def test_classify_translation_invariance(inst_c):
    # a translated parameter induces an equivalent representation
    h = inst_c.product
    for w in classified(inst_c):
        for r in inst_c.lam_full.elements():
            moved = translate_param(inst_c, r, w.parameter)
            chi = induce(inst_c, csr_corep(inst_c, moved)).result.char_vec()
            assert np.max(np.abs(chi - w.character)) < 1e-9


def test_classify_cocycle_flags(inst_a, inst_e):
    assert all(w.cocycle_trivial for w in classified(inst_a))
    assert all(w.cocycle_trivial for w in classified(inst_e))


@pytest.mark.parametrize("name", "ABCDEFGH")
def test_parameters_over_each_stabilizer_reproduce_classify(name, request):
    """classify's parameters, in order, are those of parameters(u, Lambda0)
    over each orbit representative u, with Lambda0 from stabilizer_of_class."""
    inst = request.getfixturevalue(f"inst_{name.lower()}")
    cl = classified(inst)
    xs = irr_enumerate(inst.base)
    rebuilt = [q for x in dict.fromkeys(w.orbit_rep for w in cl)
               for q in mackey.parameters(inst, xs[x], stabilizer_of_class(inst, xs[x]),
                                          DEFAULT_SEED)]
    assert len(rebuilt) == len(cl)
    for w, q in zip(cl, rebuilt):
        p = w.parameter
        assert type(q) is RepParameter and q.u is p.u
        assert q.lambda0.elements == p.lambda0.elements
        for x, y in ((p.V, q.V), (p.v, q.v)):
            assert np.array_equal(x.mats, y.mats)
            assert np.array_equal(x.cocycle.values, y.cocycle.values)


def test_duplicate_parameter_fails_completeness(inst_a, monkeypatch, capsys):
    """A parameter listed twice induces the same irreducible twice; classify
    keeps it, so the Peter-Weyl count raises and `irr` exits 2."""
    real = irreducible_projreps

    def doubled(*args, **kwargs):
        vs = real(*args, **kwargs)
        first = vs[0]
        return vs + [ProjectiveRep(first.group, first.mats.copy(), first.cocycle)]

    monkeypatch.setattr("semirep.mackey.irreducible_projreps", doubled)
    with pytest.raises(CompletenessFailure):
        classify(inst_a)
    assert cli.main(["irr", str(INSTANCES / "instance_a.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle disagreement: classification is incomplete")


# -- conjugation -------------------------------------------------------------------

def test_conjugate_parameter_validates(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        for w in classified(inst):
            q = conjugate_parameter(inst, w.parameter)
            assert q.lambda0.elements == w.parameter.lambda0.elements


def test_conjugation_involution_a(inst_a):
    cl = classified(inst_a)
    pairing = {w.label: conjugation_pairing(inst_a, w, cl) for w in cl}
    # all irreps of S3 are self-conjugate
    assert all(v == k for k, v in pairing.items())


def test_conjugation_involution_d(inst_d):
    cl = classified(inst_d)
    pairing = {w.label: conjugation_pairing(inst_d, w, cl) for w in cl}
    # conjugation on D sends lambda_gamma to lambda_{gamma^{-1}}: an involution
    # with fixed points exactly at involutive gamma; S3 has 4 such elements
    assert sorted(pairing) == sorted(pairing.values())
    for k, v in pairing.items():
        assert pairing[v] == k
    fixed = [k for k, v in pairing.items() if v == k]
    assert len(fixed) == 8  # 4 involutive group elements x 2 characters of Z2


def test_conjugation_character_identity(inst_c):
    h = inst_c.product
    for w in classified(inst_c):
        pbar = conjugate_parameter(inst_c, w.parameter)
        chi_bar = induce(inst_c, csr_corep(inst_c, pbar)).result.char_vec()
        wbar_chi = h.star_vec(w.character)  # Kac: conjugate has starred character
        pair = h.haar_vec(h.product(h.star_vec(wbar_chi), chi_bar))
        assert abs(pair - 1.0) < 1e-9


# -- reduction ---------------------------------------------------------------------

def random_unitary(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_grp_roundtrip(inst, rng, mult=2):
    """Hand-build a GRP (Q (1_m (x) u0) Q^*, Q (V1 x V0) Q^*, v) for testing."""
    full = full_subgroup(inst.lam_full)
    u0 = trivial_base_char(inst)
    v0 = covariant_projective(inst, u0, full)
    grp_group = full.group
    chars = irreducible_projreps(grp_group, cocycle_inverse(v0.cocycle))
    idxs = rng.integers(0, len(chars), size=mult)
    v1 = chars[idxs[0]]
    for i in idxs[1:]:
        v1 = proj_direct_sum(v1, chars[i])
    q = random_unitary(mult * u0.dim, rng)
    # u = Q (1_m (x) u0) Q^*
    eye = np.eye(mult)
    big = np.einsum("ab,ijc->aibjc", eye, u0.entries).reshape(
        mult * u0.dim, mult * u0.dim, inst.base.dim)
    u = Corep(inst.base, np.einsum("ia,abc,jb->ijc", q, big, np.conj(q)))
    vmats = np.einsum("ia,rab,jb->rij",
                      q, np.stack([np.kron(v1.mats[s], v0.mats[s])
                                   for s in range(full.order)]), np.conj(q))
    v_big = ProjectiveRep(grp_group, vmats,
                          cocycle_product(v1.cocycle, v0.cocycle))
    v = chars[int(rng.integers(0, len(chars)))]
    return GRParameter(u, v_big, v, full), u0, v0, v1, v


def test_validate_decides_irreducibility_once_per_corep(inst_a, inst_c, monkeypatch):
    """A second validate with the same u runs no further mor_dim; a
    reducible u still fails with the same message."""
    logs = spy(monkeypatch, corep, "mor_dim"), spy(monkeypatch, mackey, "mor_dim")
    for inst in (inst_a, inst_c):
        for w in classify(inst):
            p = w.parameter
            fresh = RepParameter(Corep(p.u.parent, p.u.entries), p.V, p.v, p.lambda0)
            before = sum(map(len, logs))
            fresh.validate(inst)
            assert sum(map(len, logs)) == before + 1 and fresh.u.self_mor_dim == 1
            fresh.validate(inst)
            RepParameter(fresh.u, p.V, p.v, p.lambda0).validate(inst)
            assert sum(map(len, logs)) == before + 1
    g = build_grp_roundtrip(inst_a, np.random.default_rng(21), mult=2)[0]
    with pytest.raises(ValidationError, match="^parameter requires an irreducible u$"):
        RepParameter(g.u, g.V, g.v, g.lambda0).validate(inst_a)
    assert g.u.self_mor_dim == 4  # u = 1_2 (x) u0


def test_reduce_grp_identity_case(inst_a):
    full = full_subgroup(inst_a.lam_full)
    u0 = trivial_base_char(inst_a)
    v0 = covariant_projective(inst_a, u0, full)
    v = irreducible_projreps(full.group, cocycle_inverse(v0.cocycle))[0]
    g = GRParameter(u0, v0, v, full)
    red = reduce_grp(inst_a, g, u0, v0)
    assert red is not None
    assert red.v.dim == v.dim  # extracted factor is the scalar 1
    assert param_mor_dim(inst_a, red, RepParameter(u0, v0, v, full)) == 1


def test_reduce_grp_multiplicity_two_roundtrip(inst_a, inst_b):
    rng = np.random.default_rng(21)
    for inst in (inst_a, inst_b):
        for _ in range(5):
            g, u0, v0, v1, v = build_grp_roundtrip(inst, rng, mult=2)
            red = reduce_grp(inst, g, u0, v0)
            assert red is not None
            # red.v = v x V1_extracted; characters of the extracted factor
            # must match the hand-built V1 (same-cocycle equivalence)
            assert red.v.dim == v.dim * 2
            want = v.character() * v1.character()
            assert np.max(np.abs(red.v.character() - want)) < 1e-9


def test_reduce_grp_empty_isotypic(inst_a):
    full = full_subgroup(inst_a.lam_full)
    u0 = trivial_base_char(inst_a)
    v0 = covariant_projective(inst_a, u0, full)
    v = irreducible_projreps(full.group, cocycle_inverse(v0.cocycle))[0]
    # GRP carried by a corep with no trivial isotypic component
    others = [u for u in irr_enumerate(inst_a.base)
              if max_abs(u.entries[0, 0] - inst_a.base.unit) > 1e-6]
    sub = trivial_subgroup(inst_a.lam_full)
    w0 = covariant_projective(inst_a, others[0], sub)
    g = GRParameter(others[0], w0, trivial_rep(sub.group), sub)
    red = reduce_grp(inst_a, g, restrict_param(
        GRParameter(u0, v0, v, full), sub).u, w0)
    assert red is None


@pytest.mark.parametrize("name", ["E", "F"])
def test_restrict_param_sits_on_target_group(name, request):
    """Restriction (move_rep by the identity) to a global subgroup reads V and
    v at their local indices and puts them, with their cocycles, on the
    target's own group (F's last parameter has a 2-dim v with a nontrivial
    cocycle)."""
    inst = request.getfixturevalue("inst_e") if name == "E" else instance(name)
    e = inst.lam_full.identity
    for w in classified(inst):
        p = w.parameter
        for sub in all_subgroups(inst.lam_full):
            if not sub.is_subset_of(p.lambda0):
                with pytest.raises(ValidationError):
                    move_rep(inst, e, p.lambda0, sub, p.V)
                continue
            locs = [p.lambda0.to_local(x) for x in sub.elements]
            for old in (p.V, p.v):
                new = move_rep(inst, e, p.lambda0, sub, old)
                assert new.group is sub.group and new.cocycle.group is sub.group
                assert np.array_equal(new.mats, old.mats[locs])
                assert np.array_equal(new.cocycle.values,
                                      old.cocycle.values[np.ix_(locs, locs)])


# -- incidence and fusion ----------------------------------------------------------

def test_incidence_full_subgroups_is_plain_mor(inst_d):
    cl = classified(inst_d)
    w1, w2, w3 = cl[0], cl[1], cl[2]
    e = inst_d.lam_full.identity
    m = standalone_incidence(inst_d, (w1.parameter, w2.parameter, w3.parameter),
                             (e, e, e))
    from semirep.corep import tensor
    direct = mor_dim(w1.csr, tensor(w2.csr, w3.csr))
    assert m == direct


def test_incidence_coset_invariance(inst_a, inst_c):
    rng = np.random.default_rng(3)
    for inst in (inst_a, inst_c):
        cl = classified(inst)
        lam = inst.lam_full
        for _ in range(5):
            ws = [cl[int(i)] for i in rng.integers(0, len(cl), 3)]
            params = tuple(w.parameter for w in ws)
            reps = tuple(int(r) for r in rng.integers(0, lam.order, 3))
            base = standalone_incidence(inst, params, reps)
            shifted = tuple(
                lam.mul(r, p.lambda0.elements[int(rng.integers(p.lambda0.order))])
                for r, p in zip(reps, params))
            assert standalone_incidence(inst, params, shifted) == base


def test_incidence_2dim_triple_instance_a(inst_a):
    cl = classified(inst_a)
    two = next(w for w in cl if w.dim == 2)
    lam = inst_a.lam_full
    total = 0.0
    for z1, _ in [(r, None) for r in lam.elements()]:
        for z2 in lam.elements():
            for z3 in lam.elements():
                m = standalone_incidence(inst_a, (two.parameter,) * 3, (z1, z2, z3))
                total += m / 2.0  # [Lambda : {e}] = 2
    assert abs(total - 1.0) < 1e-9


def test_fusion_table_a(inst_a):
    cl = classified(inst_a)
    table = fusion(inst_a, cl)
    triv = next(i for i, w in enumerate(cl)
                if np.max(np.abs(w.character - inst_a.product.unit)) < 1e-9)
    k = len(cl)
    for i in range(k):
        for j in range(k):
            assert table.entry(i, triv, j) == (1 if i == j else 0)
            assert table.entry(i, j, triv) == (1 if i == j else 0)
    two = next(i for i, w in enumerate(cl) if w.dim == 2)
    assert sorted(table.entry(i, two, two) for i in range(k)) == [1, 1, 1]


def test_fusion_frobenius_identity(inst_a, inst_c):
    from semirep.corep import tensor
    for inst in (inst_a, inst_c):
        cl = classified(inst)
        table = fusion(inst, cl)
        h = inst.product
        for i1, w1 in enumerate(cl):
            for i2, w2 in enumerate(cl):
                w2bar_param = conjugate_parameter(inst, w2.parameter)
                w2bar = induce(inst, csr_corep(inst, w2bar_param)).result
                for i3, w3 in enumerate(cl):
                    lhs = table.entry(i1, i2, i3)
                    rhs = mor_dim(tensor(w2bar, w1.induced), w3.induced)
                    assert lhs == rhs


def test_fusion_d_matches_group_structure(inst_d):
    cl = classified(inst_d)
    table = fusion(inst_d, cl)
    k = len(cl)
    # all 1-dim: the cube is a group law table (exactly one 1 per (w2, w3))
    for j in range(k):
        for l in range(k):
            col = [table.entry(i, j, l) for i in range(k)]
            assert sorted(col) == [0] * (k - 1) + [1]
