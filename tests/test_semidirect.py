import numpy as np
import pytest

from semirep.corep import Corep, act, irr_enumerate, mor_dim, verify_corep
from semirep.corpus import instance
from semirep.errors import NotCovariant
from semirep.groups import (all_subgroups, conjugate_subgroup, cyclic_group,
                            full_subgroup)
from semirep.hopf import (function_algebra, haar_solve, is_kac, product_algebra,
                          verify_axioms)
from semirep.oracle import oracle_irr_dims
from semirep.projective import ordinary_rep
from semirep.semidirect import (act_corep, build, check_covariant, extend,
                                instance_of_corep, join_covariant, restrict_corep)

from helpers import (TENSORS, conjugation_iso, dense, embed_base_corep,
                     is_cocommutative, is_commutative, split_covariant, trivial_action,
                     trivial_rep, trivial_subgroup)


def test_build_axioms_all_instances(inst_a, inst_b, inst_c, inst_d):
    for inst in (inst_a, inst_b, inst_c, inst_d):
        rep = verify_axioms(inst.product)
        assert rep["pass"], rep
        assert inst.dim == inst.base.dim * inst.lam.order


def test_trivial_lambda_is_base():
    z3 = cyclic_group(3)
    base = function_algebra(z3)
    lam = cyclic_group(1)
    inst = build(base, lam, trivial_action(base, lam))
    assert inst.dim == base.dim
    assert np.max(np.abs(dense(inst.product, "mult") - dense(base, "mult"))) < 1e-15
    assert np.max(np.abs(dense(inst.product, "comult") - dense(base, "comult"))) < 1e-15


@pytest.mark.parametrize("name", "ABCDEFGH")
def test_trivial_principal_product_is_base(name, request):
    """G x| {e} is G: the instance over {e} takes the base algebra itself,
    whose tensors the product construction reproduces exactly."""
    inst = request.getfixturevalue(f"inst_{name.lower()}")
    sub_inst = inst.principal(trivial_subgroup(inst.lam_full))
    assert sub_inst.product is inst.base
    built = product_algebra(inst.base, sub_inst.lam, sub_inst.alpha_mats)
    for tensor in TENSORS:
        assert np.array_equal(dense(built, tensor), dense(inst.base, tensor))


def test_instance_a_commutative_dual_blocks(inst_a):
    assert is_commutative(inst_a.product)
    assert sorted(oracle_irr_dims(inst_a.product)) == [1, 1, 2]


def test_instance_c_noncommutative_noncocommutative(inst_c):
    h = inst_c.product
    assert h.dim == 12
    assert not is_commutative(h)
    assert not is_cocommutative(h)


def test_haar_closed_form(inst_a, inst_b, inst_c):
    for inst in (inst_a, inst_b, inst_c):
        eta = haar_solve(inst.product)
        n = inst.lam.order
        expected = np.concatenate([inst.base.haar / n] * n)
        assert np.max(np.abs(eta - expected)) < 1e-12
        assert np.max(np.abs(inst.product.haar - expected)) < 1e-15


def test_kac_propagation(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        assert is_kac(inst.product) == is_kac(inst.base) is True


def test_restrict_principal(inst_a):
    full = inst_a.principal(full_subgroup(inst_a.lam_full))
    assert full is inst_a
    triv = inst_a.principal(trivial_subgroup(inst_a.lam_full))
    assert triv.dim == inst_a.base.dim
    assert verify_axioms(triv.product)["pass"]


def test_restrict_corep_dims_unitarity(inst_b):
    reg = irr_enumerate(inst_b.product)
    sub = trivial_subgroup(inst_b.lam_full)
    for u in reg:
        r = restrict_corep(inst_b, u, sub)
        assert r.dim == u.dim
        assert verify_corep(r)["pass"]
    # restriction to all of Lambda is the identity
    full = restrict_corep(inst_b, reg[0], full_subgroup(inst_b.lam_full))
    assert np.max(np.abs(full.entries - reg[0].entries)) < 1e-15


def test_restrict_to_trivial_is_g_part(inst_a):
    u = irr_enumerate(inst_a.product)[0]
    ug, _ = split_covariant(inst_a, u)
    r = restrict_corep(inst_a, u, trivial_subgroup(inst_a.lam_full))
    assert np.max(np.abs(r.entries - ug.entries)) < 1e-12


def test_split_join_roundtrip(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        for u in irr_enumerate(inst.product):
            ug, ul = split_covariant(inst, u)
            back = join_covariant(inst, ug, ul.mats)
            assert np.max(np.abs(back.entries - u.entries)) < 1e-12
            ug2, ul2 = split_covariant(inst, back)
            assert np.max(np.abs(ug2.entries - ug.entries)) < 1e-12
            assert np.max(np.abs(ul2.mats - ul.mats)) < 1e-12


def test_join_covariant_positive_case(inst_a):
    # omega (+) omega^2 with the swap matrix is a covariant pair on A
    base = inst_a.base
    irr = irr_enumerate(base)
    # identify the two nontrivial characters of Z3
    chars = [u for u in irr if np.max(np.abs(u.char_vec() - base.unit)) > 1e-6]
    omega, omega2 = chars
    entries = np.zeros((2, 2, base.dim), dtype=complex)
    entries[0, 0] = omega.entries[0, 0]
    entries[1, 1] = omega2.entries[0, 0]
    ug = Corep(base, entries)
    swap = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], dtype=complex)
    ul = ordinary_rep(inst_a.lam, swap)
    ok, worst, _ = check_covariant(inst_a, ug, ul)
    assert ok, worst
    joined = join_covariant(inst_a, ug, ul.mats)
    assert verify_corep(joined)["pass"]


def test_covariance_negative_case(inst_a):
    base = inst_a.base
    irr = irr_enumerate(base)
    chars = [u for u in irr if np.max(np.abs(u.char_vec() - base.unit)) > 1e-6]
    omega = chars[0]
    sign = ordinary_rep(inst_a.lam, np.array([[[1.0]], [[-1.0]]]))
    ok, worst, witness = check_covariant(inst_a, omega, sign)
    assert not ok and worst > 0.5 and witness is not None
    with pytest.raises(NotCovariant):
        join_covariant(inst_a, omega, sign.mats)


def test_trivial_lambda_part_with_trivial_action_covariant(inst_d):
    base = inst_d.base
    u = irr_enumerate(base)[1]
    triv = trivial_rep(inst_d.lam, u.dim)
    ok, worst, _ = check_covariant(inst_d, u, triv)
    assert ok, worst


def test_conj_iso_intertwines_comultiplication(inst_c):
    lam = inst_c.lam_full
    sub = trivial_subgroup(lam)
    for r in lam.elements():
        m = conjugation_iso(inst_c, sub, r)
        src = inst_c.principal(sub)
        dst = inst_c.principal(conjugate_subgroup(sub, r))
        # (m (x) m) Delta_target = Delta_source m
        lhs = np.einsum("ijk,pj,qk->ipq", dense(dst.product, "comult"), m, m, optimize=True)
        rhs = np.einsum("ki,kpq->ipq", m, dense(src.product, "comult"), optimize=True)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_act_corep_laws(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        lam = inst.lam_full
        sub = trivial_subgroup(lam)
        base_irr = irr_enumerate(inst.base)
        u = embed_base_corep(inst, base_irr[-1])
        e = lam.identity
        assert np.max(np.abs(act_corep(inst, e, u).entries - u.entries)) < 1e-12
        for r in lam.elements():
            for s in lam.elements():
                lhs = act_corep(inst, lam.mul(r, s), u)
                rhs = act_corep(inst, r, act_corep(inst, s, u))
                assert lhs.parent is rhs.parent
                assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12


def test_base_corep_resolves_on_a_fresh_instance():
    """A corep of the base is one of G x| {e}, even before anything cached
    the principal instance over {e}."""
    inst = instance("A")
    u = irr_enumerate(inst.base)[0]
    own = instance_of_corep(inst, u)
    assert own.product is u.parent and own.subgroup.elements == (inst.lam_full.identity,)
    for r in inst.lam_full.elements():
        moved = act_corep(inst, r, u)
        ref = act(r, u, inst.alpha, inst.lam_full)
        assert moved.parent is ref.parent
        assert np.max(np.abs(moved.entries - ref.entries)) <= 1e-12


def test_act_corep_inside_subgroup_is_equivalent(inst_c):
    # r in Lambda0: r.U is equivalent to U over the same instance
    lam = inst_c.lam_full
    full = full_subgroup(lam)
    for u in irr_enumerate(inst_c.product):
        for r in lam.elements():
            moved = act_corep(inst_c, r, u)
            assert moved.parent is u.parent
            assert mor_dim(moved, u) >= 1


@pytest.mark.parametrize("name", "abcdefgh")
def test_act_corep_matches_dense_conjugation_iso(name, request):
    """Indexing the block axis by Subgroup.to_local gives what the dense
    pullback along alpha*_{r^{-1}} (x) Adj*_{r^{-1}} gives, on every principal
    subgroup and every r (G and H have a nonabelian Lambda)."""
    inst = request.getfixturevalue(f"inst_{name}")
    lam = inst.lam_full
    rng = np.random.default_rng(2)
    for sub in all_subgroups(lam):
        src = inst.principal(sub)
        u = Corep(src.product, rng.standard_normal((2, 2, src.dim))
                  + 1j * rng.standard_normal((2, 2, src.dim)))
        for r in lam.elements():
            moved = act_corep(inst, r, u)
            target = conjugate_subgroup(sub, r)
            assert moved.parent is inst.principal(target).product
            iso = conjugation_iso(inst, target, lam.inverse(r))
            dense = np.einsum("pc,ijc->ijp", iso, u.entries)
            assert np.max(np.abs(moved.entries - dense)) < 1e-12


def test_act_corep_characters(inst_a):
    lam = inst_a.lam_full
    u = irr_enumerate(inst_a.product)[1]
    for r in lam.elements():
        moved = act_corep(inst_a, r, u)
        iso = conjugation_iso(inst_a, instance_of_corep(inst_a, moved).subgroup,
                              lam.inverse(r))
        # chi_{r.U} = (alpha*_{r^{-1}} (x) Adj*_{r^{-1}})(chi_U)
        assert np.max(np.abs(moved.char_vec() - iso @ u.char_vec())) < 1e-12


def test_extend(inst_a):
    sub = trivial_subgroup(inst_a.lam_full)
    sub_inst = inst_a.principal(sub)
    vec = sub_inst.product.unit
    out = extend(inst_a, sub_inst, vec)
    # 1_A (x) indicator({e})
    d = inst_a.base.dim
    expected = np.zeros(inst_a.dim, dtype=complex)
    expected[:d] = inst_a.base.unit  # identity of Z2 is local index 0
    assert np.max(np.abs(out - expected)) < 1e-15
    # h~_Lambda(extend(x)) = [Lambda : Lambda0]^{-1} h~_{Lambda0}(x)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(sub_inst.dim) + 1j * rng.standard_normal(sub_inst.dim)
        lhs = inst_a.product.haar_vec(extend(inst_a, sub_inst, x))
        rhs = sub_inst.product.haar_vec(x) / 2
        assert abs(lhs - rhs) < 1e-12


def test_extend_full_subgroup_is_identity(inst_a):
    sub_inst = inst_a.principal(full_subgroup(inst_a.lam_full))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(inst_a.dim)
    assert np.max(np.abs(extend(inst_a, sub_inst, x) - x)) < 1e-15


def test_oracle_dims_large_instances(inst_e):
    # the 36-dim regular module splits by its closed-form commutant
    assert oracle_irr_dims(inst_e.product) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
