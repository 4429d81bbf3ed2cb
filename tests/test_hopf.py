import numpy as np
import pytest

from semirep._linalg import check_commutant, module_hom_basis
from semirep.corep import regular_corep
from semirep.errors import (NotAntihomomorphism, NotAutomorphism, NoUniqueHaar,
                            OracleDisagreement)
from semirep.groups import cyclic_group, symmetric_group
from semirep.hopf import (HopfData, action_from_group_hom, dual_algebra,
                          function_algebra, group_algebra, haar_solve, is_kac,
                          trivial_action, verify_axioms)


def test_function_algebra_trivial_group():
    g = cyclic_group(1)
    h = function_algebra(g)
    assert h.dim == 1
    assert abs(h.haar_vec(h.unit) - 1.0) < 1e-15
    rep = verify_axioms(h)
    assert rep["pass"] and rep["max"] < 1e-12


def test_function_algebra_z3_axioms():
    h = function_algebra(cyclic_group(3))
    rep = verify_axioms(h)
    assert rep["max"] < 1e-12, rep
    assert h.is_commutative()
    assert not h.is_cocommutative() or True  # Z3 is abelian so also cocommutative
    assert h.is_cocommutative()


def test_function_algebra_s3():
    h = function_algebra(symmetric_group(3))
    rep = verify_axioms(h)
    assert rep["max"] < 1e-12
    assert h.is_commutative() and not h.is_cocommutative()
    assert is_kac(h)


def test_group_algebra_s3():
    h = group_algebra(symmetric_group(3))
    rep = verify_axioms(h)
    assert rep["max"] < 1e-12
    assert not h.is_commutative() and h.is_cocommutative()
    assert is_kac(h)
    e = symmetric_group(3).identity
    expected = np.zeros(6)
    expected[e] = 1.0
    assert np.allclose(h.haar, expected)


def test_abelian_duality_dims_and_residuals():
    z4 = cyclic_group(4)
    a = function_algebra(z4)
    b = group_algebra(z4)
    assert a.dim == b.dim
    assert verify_axioms(a)["max"] < 1e-12
    assert verify_axioms(b)["max"] < 1e-12


def test_corrupted_comult_fails():
    h = function_algebra(cyclic_group(3))
    bad = HopfData(h.mult, h.unit, h.comult + 0.05, h.counit, h.antipode, h.star, h.haar)
    rep = verify_axioms(bad)
    assert not rep["pass"]
    assert rep["coassociativity"] > 1e-3 or rep["counit"] > 1e-3


def test_haar_solve_matches_stored():
    for h in (function_algebra(symmetric_group(3)), group_algebra(symmetric_group(3))):
        eta = haar_solve(h)
        assert np.max(np.abs(eta - h.haar)) < 1e-12


def test_haar_solve_uniform_and_delta_e():
    g = cyclic_group(3)
    assert np.max(np.abs(haar_solve(function_algebra(g)) - 1.0 / 3)) < 1e-12
    got = haar_solve(group_algebra(g))
    expected = np.zeros(3)
    expected[g.identity] = 1.0
    assert np.max(np.abs(got - expected)) < 1e-12


def test_haar_solve_rejects_non_coalgebra():
    h = function_algebra(cyclic_group(2))
    broken = HopfData(h.mult, h.unit, np.zeros_like(h.comult), h.counit,
                      h.antipode, h.star, h.haar)
    with pytest.raises(NoUniqueHaar):
        haar_solve(broken)


def test_action_inversion_on_z3():
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    h = function_algebra(z3)
    hom = [np.array([0, 1, 2]), np.array([0, 2, 1])]
    autos = action_from_group_hom(h, z2, hom, kind="function")
    assert all(a.residual() < 1e-12 for a in autos)
    # alpha*_1(delta_g) = delta_{-g}
    vec = np.zeros(3)
    vec[1] = 1.0
    assert np.allclose(autos[1](vec), np.array([0, 0, 1.0]))


def test_action_trivial():
    h = function_algebra(cyclic_group(3))
    autos = trivial_action(h, cyclic_group(2))
    assert all(np.allclose(a.matrix, np.eye(3)) for a in autos)


def conj_by_transposition_perm():
    s3 = symmetric_group(3)
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    return np.array([s3.mul(s3.mul(t12, x), t12) for x in s3.elements()])


def test_action_conjugation_on_group_algebra():
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    h = group_algebra(s3)
    hom = [np.arange(6), conj_by_transposition_perm()]
    autos = action_from_group_hom(h, z2, hom, kind="group")
    assert all(a.residual() < 1e-12 for a in autos)
    for a in autos:
        assert np.max(np.abs(h.haar @ a.matrix - h.haar)) < 1e-12


def test_action_rejects_non_automorphism():
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    h = function_algebra(z3)
    hom = [np.array([0, 1, 2]), np.array([1, 0, 2])]  # not an automorphism of Z3
    with pytest.raises((NotAutomorphism, NotAntihomomorphism)):
        action_from_group_hom(h, z2, hom, kind="function")


def test_action_rejects_non_homomorphism():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    h = function_algebra(z4)
    # both entries are automorphisms but r -> alpha_r is not a homomorphism
    hom = [np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3])]
    autos = action_from_group_hom(h, z2, hom, kind="function")  # trivial: fine
    assert len(autos) == 2
    bad = [np.array([0, 3, 2, 1]), np.array([0, 1, 2, 3])]  # alpha_e = inversion
    with pytest.raises((NotAutomorphism, NotAntihomomorphism)):
        action_from_group_hom(h, z2, bad, kind="function")


def test_dual_algebra_associative_and_blocks():
    for h, expected in ((function_algebra(symmetric_group(3)), [1, 1, 2]),
                        (group_algebra(symmetric_group(3)), [1, 1, 1, 1, 1, 1])):
        mult_hat, star_hat = dual_algebra(h)
        assoc = np.einsum("ijm,mkl->ijkl", mult_hat, mult_hat) \
            - np.einsum("jkm,iml->ijkl", mult_hat, mult_hat)
        assert np.max(np.abs(assoc)) < 1e-12
        # star is involutive on the dual
        assert np.max(np.abs(star_hat @ np.conj(star_hat) - np.eye(h.dim))) < 1e-12
        # block dims via the module decomposition of the regular corep slices
        from semirep.oracle import oracle_irr_dims
        assert oracle_irr_dims(h) == expected


def _pairing_algebra(case, request):
    """The product algebra of a shipped instance, a principal sub-instance of
    E, or the base of a raw_hopf instance."""
    from semirep.corpus import build_instance, instance
    from semirep.groups import Subgroup
    if case == "F":
        return instance("F").product
    if len(case) == 1:
        return request.getfixturevalue(f"inst_{case.lower()}").product
    if case == "E principal":
        inst = request.getfixturevalue("inst_e")
        return inst.principal(Subgroup(inst.lam_full, (0, 1))).product
    h = group_algebra(symmetric_group(3))

    def pairs(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    spec = {"kind": "raw_hopf",
            "base": {k: pairs(getattr(h, k)) for k in
                     ("mult", "unit", "comult", "counit", "antipode", "star", "haar")},
            "lambda": {"order": 1, "table": [[0]]},
            "action": [pairs(np.eye(h.dim, dtype=complex))]}
    return build_instance(spec).base


@pytest.mark.parametrize("case", [*"ABCDEF", "E principal", "raw_hopf base"])
def test_pair_matches_product_route(case, request):
    """pair(x, y) through the Gram matrix equals h(x^* y) through the product."""
    h = _pairing_algebra(case, request)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = rng.standard_normal((2, h.dim)) + 1j * rng.standard_normal((2, h.dim))
        reference = h.haar_vec(h.product(h.star_vec(x), y))
        assert abs(h.pair(x, y) - reference) <= 1e-12


@pytest.mark.parametrize("case", ["A", "C[S3]", "raw_hopf base"])
def test_regular_commutant_spans_module_homs(case, request):
    """The closed-form commutant of the regular corep spans the Sylvester
    nullspace of its slices."""
    h = group_algebra(symmetric_group(3)) if case == "C[S3]" \
        else _pairing_algebra(case, request)
    reg, comm = regular_corep(h)
    slices = reg.coeff_slices()
    homs = np.stack([t.reshape(-1) for t in module_hom_basis(slices, slices)])
    flat = comm.reshape(len(comm), -1)
    rank = np.linalg.matrix_rank
    assert rank(flat) == rank(homs) == rank(np.vstack([flat, homs])) == h.dim


def test_corrupted_regular_commutant_raises(inst_a):
    reg, comm = regular_corep(inst_a.product)
    slices = reg.coeff_slices()
    check_commutant(slices, comm)
    for bad in (comm.transpose(1, 0, 2), slices):
        with pytest.raises(OracleDisagreement):
            check_commutant(slices, bad)
