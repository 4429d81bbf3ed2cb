import itertools
import tracemalloc

import numpy as np
import pytest

from semirep import hopf
from semirep._linalg import TOL_VERIFY, check_commutant, max_abs, module_hom_basis
from semirep.corep import regular_corep
from semirep.errors import (NotAntihomomorphism, NotAutomorphism, NoUniqueHaar,
                            OracleDisagreement)
from semirep.groups import Subgroup, all_subgroups, cyclic_group, symmetric_group
from semirep.hopf import (HopfData, action_from_group_hom, automorphism_residuals,
                          function_algebra, group_algebra, haar_solve, is_kac,
                          verify_axioms)
from semirep.semidirect import build

from helpers import (TENSORS, conjugation_spec, dense, dual_algebra, fresh,
                     generating_subset, is_cocommutative, is_commutative, spy,
                     trivial_action)
from test_random_instances import ALL as SWEEP_FAMILY


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
    assert is_commutative(h)
    assert is_cocommutative(h)  # Z3 is abelian


def test_function_algebra_s3():
    h = function_algebra(symmetric_group(3))
    rep = verify_axioms(h)
    assert rep["max"] < 1e-12
    assert is_commutative(h) and not is_cocommutative(h)
    assert is_kac(h)


def test_group_algebra_s3():
    h = group_algebra(symmetric_group(3))
    rep = verify_axioms(h)
    assert rep["max"] < 1e-12
    assert not is_commutative(h) and is_cocommutative(h)
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
    bad = HopfData.from_dense(dense(h, "mult"), h.unit, dense(h, "comult") + 0.05,
                              h.counit, h.antipode, h.star, h.haar)
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
    broken = HopfData.from_dense(dense(h, "mult"), h.unit, np.zeros_like(dense(h, "comult")),
                                 h.counit, h.antipode, h.star, h.haar)
    with pytest.raises(NoUniqueHaar):
        haar_solve(broken)


def test_action_inversion_on_z3():
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    h = function_algebra(z3)
    hom = [np.array([0, 1, 2]), np.array([0, 2, 1])]
    alpha = action_from_group_hom(h, z2, hom, kind="permutation")
    assert max(automorphism_residuals(h, alpha)) < 1e-12
    # alpha*_1(delta_g) = delta_{-g}
    vec = np.zeros(3)
    vec[1] = 1.0
    assert np.allclose(alpha[1] @ vec, np.array([0, 0, 1.0]))


def test_action_trivial():
    h = function_algebra(cyclic_group(3))
    alpha = trivial_action(h, cyclic_group(2))
    assert alpha.shape == (2, 3, 3) and np.array_equal(alpha, np.stack([np.eye(3)] * 2))


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
    alpha = action_from_group_hom(h, z2, hom, kind="permutation")
    assert max(automorphism_residuals(h, alpha)) < 1e-12
    assert np.max(np.abs(h.haar @ alpha - h.haar)) < 1e-12


def test_action_rejects_non_automorphism():
    z3 = cyclic_group(3)
    z2 = cyclic_group(2)
    h = function_algebra(z3)
    hom = [np.array([0, 1, 2]), np.array([1, 0, 2])]  # not an automorphism of Z3
    with pytest.raises(NotAutomorphism, match=r"^alpha\*_1 fails the automorphism check"):
        action_from_group_hom(h, z2, hom, kind="permutation")


def test_action_rejects_non_homomorphism():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    h = function_algebra(z4)
    # both entries are automorphisms but r -> alpha_r is not a homomorphism
    hom = [np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3])]
    alpha = action_from_group_hom(h, z2, hom, kind="permutation")  # trivial: fine
    assert alpha.shape == (2, 4, 4)
    bad = [np.array([0, 3, 2, 1]), np.array([0, 1, 2, 3])]  # alpha_e = inversion
    with pytest.raises(NotAntihomomorphism, match=r"at \(0, 0\) \(1\.00e\+00\)$"):
        action_from_group_hom(h, z2, bad, kind="permutation")


def _loop_antihomomorphism_failure(lam, mats):
    """The message of the first (r, s), row-major, with alpha*_(rs) !=
    alpha*_s alpha*_r, checked one pair at a time; None if there is none."""
    for r in lam.elements():
        for s in lam.elements():
            res = max_abs(mats[lam.mul(r, s)] - mats[s] @ mats[r])
            if res > TOL_VERIFY:
                return f"alpha*_(rs) != alpha*_s alpha*_r at ({r}, {s}) ({res:.2e})"
    return None


def test_action_stack_and_antihomomorphism_witness(inst_g):
    """G's S3 acts on C(Z2 x Z2) by all six automorphisms. The action is one
    read-only stack that every principal instance slices. Reassigning the
    automorphisms to the elements of S3 by a bijection fixing the identity
    gives genuine automorphisms; when the map is not a homomorphism, the
    first failing (r, s) in row-major order is the one a loop finds."""
    from semirep.corpus import instance_spec
    lam, h = inst_g.lam_full, inst_g.base
    perms = np.array(instance_spec("G")["action"])
    alpha = action_from_group_hom(h, lam, perms, kind="permutation")
    eye = np.eye(h.dim)
    assert np.array_equal(alpha, np.stack([eye[:, perms[lam.inverse(r)]]
                                           for r in lam.elements()]))
    assert np.array_equal(inst_g.alpha, alpha) and not alpha.flags.writeable
    with pytest.raises(ValueError):
        alpha[0, 0, 0] = 1
    for sub in all_subgroups(lam):
        assert np.array_equal(inst_g.principal(sub).alpha_mats, alpha[list(sub.elements)])
    witnesses = set()
    for rest in itertools.permutations(range(1, lam.order)):
        hom = perms[[0, *rest]]
        mats = np.stack([eye[:, hom[lam.inverse(r)]] for r in lam.elements()])
        expected = _loop_antihomomorphism_failure(lam, mats)
        if expected is None:
            assert np.array_equal(action_from_group_hom(h, lam, hom, "permutation"), mats)
            continue
        with pytest.raises(NotAntihomomorphism) as err:
            action_from_group_hom(h, lam, hom, kind="permutation")
        assert str(err.value) == expected
        witnesses.add(expected.split(" at ")[1].split(" (")[0])
    assert len(witnesses) > 1, witnesses


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


def _raw_hopf_instance(lam, mats):
    """C[S3] given as raw_hopf data, lam acting by the matrices mats."""
    from semirep.corpus import build_instance
    h = group_algebra(symmetric_group(3))

    def pairs(arr):
        return np.stack([arr.real, arr.imag], axis=-1).tolist()
    spec = {"kind": "raw_hopf",
            "base": {k: pairs(dense(h, k)) for k in TENSORS},
            "lambda": {"order": lam.order, "table": lam.mult.tolist()},
            "action": [pairs(m) for m in mats]}
    return build_instance(spec)


def _pairing_algebra(case, request):
    """The product algebra of a shipped instance, a principal sub-instance of
    E, or the base of a raw_hopf instance."""
    from semirep.corpus import instance
    if case == "F":
        return instance("F").product
    if len(case) == 1:
        return request.getfixturevalue(f"inst_{case.lower()}").product
    if case == "E principal":
        inst = request.getfixturevalue("inst_e")
        return inst.principal(Subgroup(inst.lam_full, (0, 1))).product
    return _raw_hopf_instance(cyclic_group(1), [np.eye(6, dtype=complex)]).base


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
    slices = reg.coeff_slices
    homs = np.stack([t.reshape(-1) for t in module_hom_basis(slices, slices)])
    flat = comm.reshape(len(comm), -1)
    rank = np.linalg.matrix_rank
    assert rank(flat) == rank(homs) == rank(np.vstack([flat, homs])) == h.dim


def test_corrupted_regular_commutant_raises(inst_a):
    reg, comm = regular_corep(inst_a.product)
    slices = reg.coeff_slices
    check_commutant(slices, comm)
    for bad in (comm.transpose(1, 0, 2), slices):
        with pytest.raises(OracleDisagreement):
            check_commutant(slices, bad)


# -- sparse axiom residuals against the dense reference ---------------------------

def _dense_verify_axioms(h: HopfData) -> dict:
    """The dense einsum form of verify_axioms, kept only as a reference."""
    d = h.dim
    res: dict[str, float] = {}
    eye = np.eye(d)
    mult, comult = dense(h, "mult"), dense(h, "comult")

    # the d^5 contractions run as BLAS tensordots over m, then a transpose
    # to ijkl
    assoc = np.tensordot(mult, mult, axes=(2, 0)) \
        - np.tensordot(mult, mult, axes=(2, 1)).transpose(2, 0, 1, 3)
    res["associativity"] = max_abs(assoc)
    res["unit"] = max(
        max_abs(np.einsum("i,ijk->jk", h.unit, mult) - eye),
        max_abs(np.einsum("j,ijk->ik", h.unit, mult) - eye))

    coassoc = np.tensordot(comult, comult, axes=(1, 0)).transpose(0, 2, 3, 1) \
        - np.tensordot(comult, comult, axes=(2, 0))
    res["coassociativity"] = max_abs(coassoc)
    res["counit"] = max(
        max_abs(np.einsum("ijk,j->ik", comult, h.counit) - eye),
        max_abs(np.einsum("ijk,k->ij", comult, h.counit) - eye))

    lhs = np.tensordot(mult, comult, axes=(2, 0))
    # sum over a, then d, then (b, c): [i,b,c,p] and [j,c,b,q] -> [i,p,j,q]
    rhs = np.tensordot(np.tensordot(comult, mult, axes=(1, 0)),
                       np.tensordot(comult, mult, axes=(2, 1)),
                       axes=([1, 2], [2, 1])).transpose(0, 2, 1, 3)
    res["comult_multiplicative"] = max_abs(lhs - rhs)
    res["comult_unital"] = max_abs(np.einsum("i,ijk->jk", h.unit, comult)
                                   - np.outer(h.unit, h.unit))
    res["counit_multiplicative"] = max_abs(
        np.einsum("ijk,k->ij", mult, h.counit) - np.outer(h.counit, h.counit))

    res["star_involutive"] = max_abs(h.star @ np.conj(h.star) - eye)
    lhs = np.einsum("ijk,pk->ijp", np.conj(mult), h.star)
    rhs = np.tensordot(h.star, np.tensordot(h.star, mult, axes=(0, 0)), axes=(0, 1))
    res["star_antimultiplicative"] = max_abs(lhs - rhs)
    lhs = np.einsum("ki,kpq->ipq", h.star, comult)
    rhs = np.tensordot(np.tensordot(np.conj(comult), h.star, axes=(1, 1)), h.star,
                       axes=(1, 1))
    res["comult_star"] = max_abs(lhs - rhs)

    left = np.einsum("ijk,lj,lkp->ip", comult, h.antipode, mult, optimize=True)
    right = np.einsum("ijk,lk,jlp->ip", comult, h.antipode, mult, optimize=True)
    target = np.outer(h.counit, h.unit)
    res["antipode"] = max(max_abs(left - target), max_abs(right - target))

    res["haar_unital"] = abs(complex(h.haar @ h.unit) - 1.0)
    res["haar_invariance"] = max(
        max_abs(np.einsum("ijk,j->ik", comult, h.haar) - np.outer(h.haar, h.unit)),
        max_abs(np.einsum("ijk,k->ij", comult, h.haar) - np.outer(h.haar, h.unit)))
    gram = h.gram()
    res["haar_hermitian"] = max_abs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_positivity"] = max(0.0, float(-eigs.min()))

    res["max"] = max(v for k, v in res.items() if k != "max") if res else 0.0
    res["pass"] = res["max"] < TOL_VERIFY
    return res


PERMS3 = sorted(itertools.permutations(range(3)))


@pytest.fixture(scope="module")
def s4_rung(rung_instance):
    return rung_instance.product


@pytest.mark.parametrize("case", [*"ABCDEFG", "raw_hopf base", "rung"])
def test_sparse_residuals_equal_dense_reference(case, request, s4_rung, monkeypatch):
    """With the default blocks and with blocks of at most 7 term pairs, in
    which every leading index is a block of its own."""
    h = s4_rung if case == "rung" else _pairing_algebra(case, request)
    ref = _dense_verify_axioms(h)
    assert verify_axioms(h) == ref
    monkeypatch.setattr(hopf, "JOIN_TERMS", 7)
    assert verify_axioms(h) == ref


def test_sparse_residuals_equal_dense_reference_on_e_principals(inst_e):
    for sub in all_subgroups(inst_e.lam_full):
        h = inst_e.principal(sub).product
        assert verify_axioms(h) == _dense_verify_axioms(h), sub.elements


CORRUPTIONS = {  # tensor -> axioms a dense perturbation of it must break
    "mult": ("associativity", "comult_multiplicative", "star_antimultiplicative"),
    "comult": ("coassociativity", "comult_multiplicative", "comult_star"),
    "star": ("star_involutive", "star_antimultiplicative", "comult_star"),
    "antipode": ("antipode",),
    "unit": ("unit", "comult_unital"),
    "counit": ("counit", "counit_multiplicative"),
    "haar": ("haar_unital", "haar_invariance"),
}


def _corrupted(h: HopfData, name: str) -> HopfData:
    """h with a dense random perturbation of size 0.05 added to one tensor."""
    rng = np.random.default_rng(11)
    tensors = {k: dense(h, k) for k in TENSORS}
    shape = tensors[name].shape
    tensors[name] += 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return HopfData.from_dense(**tensors)


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_tensor_breaks_its_axioms(name, inst_c):
    bad = _corrupted(inst_c.product, name)
    rep, ref = verify_axioms(bad), _dense_verify_axioms(bad)
    assert set(rep) == set(ref)
    for key in CORRUPTIONS[name]:
        assert rep[key] > 1e-3, (key, rep[key])
    for key in rep:
        assert abs(rep[key] - ref[key]) <= 1e-12, (key, rep[key], ref[key])
    assert not rep["pass"] and not ref["pass"]


@pytest.mark.parametrize("name", ["mult", "comult", "star"])
def test_single_entry_corruption_matches_dense_reference(name, inst_a):
    """A change at one index leaves keys that only one side of an axiom reaches."""
    h = inst_a.product
    rng = np.random.default_rng(5)
    for _ in range(6):
        tensors = {k: dense(h, k) for k in TENSORS}
        at = tuple(rng.integers(h.dim, size=tensors[name].ndim))
        tensors[name][at] += 0.05
        bad = HopfData.from_dense(**tensors)
        rep, ref = verify_axioms(bad), _dense_verify_axioms(bad)
        for key in rep:
            assert abs(rep[key] - ref[key]) <= 1e-12, (at, key, rep[key], ref[key])
        assert not rep["pass"]


@pytest.mark.parametrize("name", ["mult", "comult", "star"])
def test_sliced_contractions_match_dense_reference(name, inst_c, monkeypatch):
    """With windows of a few term pairs, every join is evaluated in many
    windows, and entries that sum into one output key still meet in one."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", 7)
    bad = _corrupted(inst_c.product, name)
    rep, ref = verify_axioms(bad), _dense_verify_axioms(bad)
    for key in rep:
        assert abs(rep[key] - ref[key]) <= 1e-12, (key, rep[key], ref[key])


def _sparse(arr):
    flat = arr.reshape(-1)
    idx = np.flatnonzero(flat)
    return idx, flat[idx]


def _check_windows(pairs, windows):
    """Windows cover the leading indices of pairs in order, each holding at
    most JOIN_TERMS term pairs or a single leading index."""
    assert windows[0][0] == 0 and windows[-1][1] == len(pairs)
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    assert all(hi == lo + 1 or pairs[lo:hi].sum() <= hopf.JOIN_TERMS for lo, hi in windows)


def _dense_of_blocks(block, windows, shape):
    """The dense output of a _join, after checking that each block's keys are
    sorted, unique and of leading index inside its window."""
    lead, got = int(np.prod(shape[1:])), np.zeros(int(np.prod(shape)), dtype=complex)
    for lo, hi in windows:
        keys, vals = block(lo, hi)
        assert np.all(np.diff(keys) > 0) and np.all(keys >= lo * lead)
        assert np.all(keys < hi * lead)
        got[keys] = vals
    return got.reshape(shape)


def _random_split(n, rng):
    cuts = np.unique(rng.integers(0, n + 1, size=3))
    bounds = [0, *cuts[(cuts > 0) & (cuts < n)].tolist(), n]
    return list(zip(bounds, bounds[1:]))


@pytest.mark.parametrize("subscripts", ["ijm,mkl->ijkl", "iml,mjk->ijkl", "ki,kpq->ipq",
                                        "ibcp,jcbq->ijpq", "jap,ai->ijp", "ab,cd->dbca",
                                        "ijk,rpk->rijp", "ribp,rbj->rijp"])
@pytest.mark.parametrize("join_terms", [1, 5, 1 << 18])
def test_join_matches_einsum(subscripts, join_terms, monkeypatch):
    """Every letter ranges over 4 but r over 6; the operands are swapped
    where the output's first letter is the second operand's. pairs counts
    the term pairs of each leading index, and the blocks over _windows or
    over any other split of the leading indices give the einsum."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
    size = {c: 6 if c == "r" else 4 for c in "abcdijklmpqr"}
    rng = np.random.default_rng(len(subscripts) + join_terms)
    (sa, sb), out = subscripts.split("->")[0].split(","), subscripts.split("->")[1]
    shapes = [[size[c] for c in s] for s in (sa, sb)]
    a, b = (rng.standard_normal(sh) * (rng.random(sh) < 0.4) + 0j for sh in shapes)
    shape = tuple(size[c] for c in out)
    pairs, block = hopf._join(subscripts, _sparse(a), _sparse(b), size)
    assert np.array_equal(pairs, np.einsum(f"{sa},{sb}->{out[0]}", a != 0, b != 0,
                                           dtype=int))
    windows = list(hopf._windows(pairs))
    _check_windows(pairs, windows)
    want = np.einsum(subscripts, a, b)
    for split in (windows, _random_split(shape[0], rng)):
        assert max_abs(_dense_of_blocks(block, split, shape) - want) <= 1e-12


def test_leading_index_larger_than_a_block(monkeypatch):
    """The terms of one leading index form one window however many they are;
    a leading index without terms joins a window only while it fits."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", 2)
    size = {c: 3 for c in "ijk"}
    a = np.zeros((3, 3)) + 0j
    a[0] = [1, 2, 3]  # leading index 0 meets all of b: 9 term pairs
    a[2, 1] = 4
    b = np.arange(1, 10).reshape(3, 3) + 0j
    pairs, block = hopf._join("ij,jk->ik", _sparse(a), _sparse(b), size)
    assert list(pairs) == [9, 0, 3]
    windows = list(hopf._windows(pairs))
    assert windows == [(0, 1), (1, 2), (2, 3)]
    assert list(block(0, 1)[0]) == [0, 1, 2] and not len(block(1, 2)[0])
    assert max_abs(_dense_of_blocks(block, windows, (3, 3)) - a @ b) == 0
    monkeypatch.setattr(hopf, "JOIN_TERMS", 4)
    assert list(hopf._windows(np.array([3, 0, 9, 1, 1, 0]))) == [(0, 2), (2, 3), (3, 6)]


def _given(n, lead, keys=(), vals=()):
    """A _join result (pairs, block) of leading size n holding the given
    sorted unique keys, one term pair each."""
    keys, vals = np.array(keys, dtype=np.int64), np.array(vals, dtype=complex)

    def block(lo, hi):
        at = slice(*np.searchsorted(keys, [lo * lead, hi * lead]))
        return keys[at], vals[at]
    return np.bincount(keys // lead, minlength=n), block


def test_residual_covers_both_supports(monkeypatch):
    """Keys on one side only count with their full value, from either side;
    the residual is the worst per leading index (here key // 4), whatever
    the windows."""
    one, other = _given(2, 4, [1, 5], [1.0, 3.0]), _given(2, 4, [1, 2], [1.0, 2.0])
    for join_terms in (1, 3, 1 << 14):
        monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
        for lhs, rhs in ((one, other), (other, one)):
            assert list(hopf._residual(lhs, rhs, (2, 4))) == [2.0, 3.0]
        assert list(hopf._residual(_given(2, 4), _given(2, 4), (2, 4))) == [0.0, 0.0]


def test_residual_covers_disjoint_leading_indices(monkeypatch):
    """A side with no terms counts the other with its full values, and
    supports that share no key, or no leading index, keep both."""
    lhs = _given(4, 4, [0, 2, 9, 12, 14], [1.0, 5.0, 2.0, 1.0, 7.0])
    rhs = _given(4, 4, [0, 4, 9, 12], [1.5, 6.0, 2.0, 1.0])
    empty, disjoint = _given(4, 4), _given(4, 4, [1, 13], [-4.0, 0.5j])
    rows_02, rows_13 = _given(4, 4, [1, 10], [3.0, 2.0]), _given(4, 4, [4, 15], [1.0, 6.0])
    cases = [(lhs, rhs, [5.0, 6.0, 0.0, 7.0]), (rhs, lhs, [5.0, 6.0, 0.0, 7.0]),
             (lhs, empty, [5.0, 0.0, 2.0, 7.0]), (empty, rhs, [1.5, 6.0, 2.0, 1.0]),
             (lhs, disjoint, [5.0, 0.0, 2.0, 7.0]), (disjoint, rhs, [4.0, 6.0, 2.0, 1.0]),
             (rows_02, rows_13, [3.0, 1.0, 2.0, 6.0])]
    for join_terms in (1, 3, 1 << 14):
        monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
        for left, right, want in cases:
            assert list(hopf._residual(left, right, (4, 4))) == want


def test_both_sides_of_every_identity_see_the_same_windows(inst_c, monkeypatch):
    """Every block of every join, _contract's included, holds at most
    JOIN_TERMS term pairs or one leading index, and the two sides of each
    identity are evaluated on one sequence of windows. C's product has
    tables, so only comult_multiplicative joins, and its action, a stack of
    permutation matrices, joins nowhere; a dense perturbation of comult is no
    table and joins for all seven identities."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", 7)
    join, residual, calls, subscripts = hopf._join, hopf._residual, [], []

    def spy_join(*args):
        subscripts.append(args[0])
        pairs, block = join(*args)

        def spy_block(lo, hi):
            assert hi == lo + 1 or pairs[lo:hi].sum() <= hopf.JOIN_TERMS
            spy_block.seen.append((lo, hi))
            return block(lo, hi)
        spy_block.seen = []
        return pairs, spy_block

    def spy_residual(lhs, rhs, shape):
        # the antipode's target side serves two identities
        before = len(lhs[1].seen), len(rhs[1].seen)
        worst = residual(lhs, rhs, shape)
        calls.append((lhs[1].seen[before[0]:], rhs[1].seen[before[1]:], lhs[0] + rhs[0]))
        return worst
    monkeypatch.setattr(hopf, "_join", spy_join)
    monkeypatch.setattr(hopf, "_residual", spy_residual)
    assert verify_axioms(inst_c.product)["pass"]
    assert max(automorphism_residuals(inst_c.base, inst_c.alpha)) < TOL_VERIFY
    assert len(calls) == 1  # comult_multiplicative
    assert subscripts == ["iab,acp->ibcp", "jcd,bdq->jcbq", "ibcp,jcbq->ijpq",
                          "ijk,kpq->ijpq"]
    assert not verify_axioms(_corrupted(inst_c.product, "comult"))["pass"]
    assert len(calls) == 8  # all seven axiom identities
    for left, right, pairs in calls:
        assert left == right and len(left) > 1
        _check_windows(pairs, left)


# -- the table certificate of coassociativity --------------------------------------

def _table_generators_like_reference(h: HopfData) -> HopfData:
    """h with empty caches, after checking that its comult is a table and
    that its exact generators are generating_subset's float choice."""
    h = fresh(h)
    assert hopf._tables(h).comult is not None
    assert np.array_equal(h.generators(), generating_subset(h, range(h.dim)))
    return h


@pytest.mark.parametrize("case", [*(f"{name} {part}" for name in "ABCDEFGH"
                                    for part in ("base", "product")),
                                  "rung", "E principals"])
def test_table_certificate_matches_references(case, request, s4_rung):
    """The residuals of the rung and of E's principals, already compared with
    the dense reference above, are not compared again."""
    if case == "rung":
        _table_generators_like_reference(s4_rung)
    elif case == "E principals":
        inst = request.getfixturevalue("inst_e")
        for sub in all_subgroups(inst.lam_full):
            _table_generators_like_reference(inst.principal(sub).product)
    else:
        name, part = case.split()
        h = _table_generators_like_reference(
            getattr(request.getfixturevalue(f"inst_{name.lower()}"), part))
        assert verify_axioms(h) == _dense_verify_axioms(h)


@pytest.mark.parametrize("label,alg,hom", SWEEP_FAMILY, ids=[s[0] for s in SWEEP_FAMILY])
def test_table_certificate_on_the_sweep_family(label, alg, hom):
    z2 = cyclic_group(2)
    inst = build(alg, z2, action_from_group_hom(alg, z2, hom, "permutation"))
    for h in (alg, inst.product):
        h = _table_generators_like_reference(h)
        assert verify_axioms(h) == _dense_verify_axioms(h)


@pytest.mark.parametrize("name", "AG")
def test_moved_entry_outside_the_generator_rows_fails_coassociativity(name, request):
    """Moving f_a f_b = f_k to another f_k', for a row a outside the
    generators and a, b not the unit's index, keeps comult a table with the
    counit identity and the same generators. The table is no longer
    associative, so some y among the generators sees it (Light's test)."""
    h = request.getfixturevalue(f"inst_{name.lower()}").product
    d, gens = h.dim, h.generators()
    (unit,) = np.flatnonzero(h.counit)
    keys = h.comult[0]
    k, a, b = np.unravel_index(keys, (d, d, d))
    movable = np.flatnonzero(~np.isin(a, gens) & (a != unit) & (b != unit))
    rng = np.random.default_rng(7)
    for at in rng.choice(movable, size=3, replace=False):
        moved = keys.copy()
        moved[at] = np.ravel_multi_index(((k[at] + rng.integers(1, d)) % d, a[at], b[at]),
                                         (d, d, d))
        bad = HopfData(h.mult, h.unit, (np.sort(moved), h.comult[1]), h.counit,
                       h.antipode, h.star, h.haar)
        assert hopf._tables(bad).comult is not None
        assert np.array_equal(bad.generators(), gens)
        rep, ref = verify_axioms(bad), _dense_verify_axioms(bad)
        assert rep["coassociativity"] == ref["coassociativity"] == 1.0
        for key in rep:
            assert abs(rep[key] - ref[key]) <= 1e-12, (key, rep[key], ref[key])
        assert not rep["pass"]


@pytest.mark.parametrize("flaw", ["values of one half", "a shared (a, b)", "counit"])
def test_coassociativity_joins_unless_comult_is_a_table(flaw, inst_a, monkeypatch):
    """comult with nonzeros other than 1 or two of them at one (a, b), or a
    counit whose identity fails, is no table: coassociativity joins, and
    every residual equals the dense reference."""
    h = inst_a.product
    tensors = {name: getattr(h, name) for name in TENSORS}
    keys, vals = h.comult
    if flaw == "values of one half":
        tensors["comult"] = (keys, vals / 2)
    elif flaw == "a shared (a, b)":
        # f_a f_b = f_k + f_(k + 1) for the first nonzero (k, a, b)
        shared = (keys[0] + h.dim ** 2) % h.dim ** 3
        tensors["comult"] = (np.sort(np.append(keys, shared)), np.append(vals, 1))
    else:
        tensors["counit"] = h.counit / 2
    bad = HopfData(**tensors)
    certified = spy(monkeypatch, hopf, "_table_associativity")
    joins = spy(monkeypatch, hopf, "_join")
    rep, ref = verify_axioms(bad), _dense_verify_axioms(bad)
    assert hopf._tables(bad).comult is None and certified == []
    assert [args[0] for args, _ in joins if args[1] is args[2] is bad.comult] == [
        "iml,mjk->ijkl", "ijm,mkl->ijkl"]
    for key in rep:
        assert abs(rep[key] - ref[key]) <= 1e-12, (key, rep[key], ref[key])
    assert not rep["pass"]


def test_half_table_certifies_coassociativity_alone(inst_c, monkeypatch):
    """A dense perturbation of mult keeps comult a table: coassociativity is
    certified on the dual table, y over the generators, and every other
    identity joins."""
    bad = _corrupted(inst_c.product, "mult")
    ref = _dense_verify_axioms(bad)
    certified = spy(monkeypatch, hopf, "_table_associativity")
    joins = spy(monkeypatch, hopf, "_join")
    rep = verify_axioms(bad)
    tables = hopf._tables(bad)
    assert tables.comult is not None and tables.mult is None
    assert [(args[0], args[1]) for args, _ in certified] == [(tables.comult, bad.generators())]
    assert [args[0] for args, _ in joins] == [
        "ijm,mkl->ijkl", "jkm,iml->ijkl",  # associativity
        "iab,acp->ibcp", "jcd,bdq->jcbq", "ibcp,jcbq->ijpq", "ijk,kpq->ijpq",
        "ijk,pk->ijp", "bj,bap->jap", "jap,ai->ijp",  # star_antimultiplicative
        "ki,kpq->ipq", "ijk,pj->ikp", "ikp,qk->ipq",  # comult_star
        "i,p->ip", "ijk,lj->ikl", "ikl,lkp->ip", "ijk,lk->ijl", "ijl,jlp->ip"]  # antipode
    assert rep["coassociativity"] == ref["coassociativity"] == 0.0
    assert set(rep) == set(ref)
    for key in rep:
        assert abs(rep[key] - ref[key]) <= 1e-12, (key, rep[key], ref[key])
    assert rep["associativity"] > 1e-3 and not rep["pass"]


# -- the table certificates of the other identities -------------------------------

def _with(h: HopfData, **tensors) -> HopfData:
    """h with the given tensors replaced, and empty caches."""
    return HopfData(**{name: tensors.get(name, getattr(h, name)) for name in TENSORS})


@pytest.mark.parametrize("name", "ACGH")
def test_moved_mult_entry_matches_dense_reference(name, request):
    """Moving e_i e_j = e_k to another e_k' keeps mult a table, so the
    associativity and star residuals are certified on it; they are the dense
    ones."""
    h = request.getfixturevalue(f"inst_{name.lower()}").product
    d, keys = h.dim, h.mult[0]
    rng = np.random.default_rng(19)
    for at in rng.choice(len(keys), size=3, replace=False):
        moved = keys.copy()
        moved[at] += (keys[at] + rng.integers(1, d)) % d - keys[at] % d
        bad = _with(h, mult=(np.sort(moved), h.mult[1]))
        assert hopf._tables(bad).mult is not None
        rep = verify_axioms(bad)
        assert rep == _dense_verify_axioms(bad), at
        assert rep["associativity"] == 1.0 and not rep["pass"]


@pytest.mark.parametrize("name", "ACGH")
def test_swapped_star_images_match_dense_reference(name, request):
    """Swapping two columns of star keeps it a permutation matrix, so the
    star identities are certified on the tables; they are the dense ones."""
    h = request.getfixturevalue(f"inst_{name.lower()}").product
    rng = np.random.default_rng(29)
    for _ in range(3):
        i, j = rng.choice(h.dim, size=2, replace=False)
        star = h.star.copy()
        star[:, [i, j]] = star[:, [j, i]]
        bad = _with(h, star=star)
        assert hopf._tables(bad).star is not None
        rep = verify_axioms(bad)
        assert rep == _dense_verify_axioms(bad), (i, j)
        assert not rep["pass"]
        # a column copied over another maps two basis elements to one: no
        # permutation, so the star identities join
        star[:, i] = star[:, j]
        bad = _with(h, star=star)
        assert hopf._tables(bad).star is None
        assert verify_axioms(bad) == _dense_verify_axioms(bad), (i, j)


@pytest.mark.parametrize("name", "ACGH")
def test_moved_antipode_column_matches_dense_reference(name, request):
    """Moving one column of the antipode to another place keeps it a
    permutation matrix, so its identity counts integers on the tables; the
    count is the dense residual."""
    h = request.getfixturevalue(f"inst_{name.lower()}").product
    rng = np.random.default_rng(31)
    for _ in range(3):
        a, b = (int(x) for x in rng.choice(h.dim, size=2, replace=False))
        cols = list(range(h.dim))
        cols.insert(b, cols.pop(a))
        bad = _with(h, antipode=h.antipode[:, cols])
        assert hopf._tables(bad).antipode is not None
        rep = verify_axioms(bad)
        assert rep == _dense_verify_axioms(bad), (a, b)
        assert rep["antipode"] >= 1.0 and not rep["pass"]


@pytest.mark.parametrize("name", "ACFGH")
def test_non_automorphism_permutation_matches_join_route(name, request, monkeypatch):
    """A basis permutation that is no automorphism of the base is checked on
    its tables with no join; its residual is the dense one, and the
    NotAutomorphism message is the join route's, byte for byte. The first
    permutation is the antipode's, g -> g^-1: on C[S3] (C, H) only
    multiplicativity fails, on C(D4) (F) only the comultiplication's
    identity."""
    h = request.getfixturevalue(f"inst_{name.lower()}").base
    z2, eye, d = cyclic_group(2), np.eye(h.dim), h.dim
    rng = np.random.default_rng(37)
    perms = [np.argmax(h.antipode, axis=0), *(rng.permutation(d) for _ in range(8))]
    joins = spy(monkeypatch, hopf, "_join")
    got = [automorphism_residuals(h, np.stack([eye, eye[:, p]])).tolist() for p in perms]
    assert joins == []
    assert got == [[0.0, _dense_automorphism_residual(h, eye[:, p])] for p in perms]
    failing = [p for p, res in zip(perms, got) if res[1] > 0]
    assert failing
    for perm in failing:
        hom = [np.arange(d), perm]
        with pytest.raises(NotAutomorphism) as on_tables:
            action_from_group_hom(h, z2, hom, "permutation")
        with monkeypatch.context() as patch:
            patch.setattr(hopf, "_tables", lambda h: hopf._Tables(*[None] * 4))
            with pytest.raises(NotAutomorphism) as joined:
                action_from_group_hom(h, z2, hom, "permutation")
        assert str(on_tables.value) == str(joined.value) == (
            "alpha*_1 fails the automorphism check (1.00e+00)")


def test_table_associativity_on_every_2x2_table(monkeypatch):
    """Every mult table on two basis elements, 0 included; some fail only at
    triples with e_i e_j = 0, which the mirror check meets. With JOIN_TERMS
    below d, each slice holds one nonzero."""
    d = 2
    for join_terms in (1 << 14, 1):
        monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
        for entries in itertools.product(range(d + 1), repeat=d * d):
            table = np.full((d + 1, d + 1), d)
            table[:d, :d] = np.reshape(entries, (d, d))
            mult = np.zeros((d, d, d))
            i, j = np.nonzero(table[:d, :d] < d)
            mult[i, j, table[i, j]] = 1
            assoc = np.tensordot(mult, mult, axes=(2, 0)) \
                - np.tensordot(mult, mult, axes=(2, 1)).transpose(2, 0, 1, 3)
            assert hopf._table_associativity(table, np.arange(d)) == max_abs(assoc), entries


def _closure(table: np.ndarray, middle) -> set:
    """The indices of the words of length >= 1 in middle, 0 (index d) left out."""
    d = len(table) - 1
    words = set(middle)
    while True:
        more = {int(table[a, b]) for a in words for b in words} - {d}
        if more <= words:
            return words
        words |= more


@pytest.mark.parametrize("join_terms", [1 << 14, 1])
def test_table_associativity_on_generating_middles_of_every_unital_3x3_table(
        join_terms, monkeypatch):
    """Light's test on the sparse scan: for every table on three basis
    elements with e_0 the unit, and every middle set that generates it with
    e_0, the certificate is the dense residual. Some tables fail only at
    triples with x y = 0; with JOIN_TERMS below d each slice holds one
    product, and the two halves of the scan have unequal lengths."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
    d = 3
    tested, zero_only = 0, 0
    for entries in itertools.product(range(d + 1), repeat=(d - 1) ** 2):
        table = np.full((d + 1, d + 1), d)
        table[0, :d] = table[:d, 0] = np.arange(d)
        table[1:d, 1:d] = np.reshape(entries, (d - 1, d - 1))
        mult = np.zeros((d, d, d))
        i, j = np.nonzero(table[:d, :d] < d)
        mult[i, j, table[i, j]] = 1
        assoc = np.tensordot(mult, mult, axes=(2, 0)) \
            - np.tensordot(mult, mult, axes=(2, 1)).transpose(2, 0, 1, 3)
        x, y, _ = np.nonzero(np.abs(assoc).max(axis=3))
        zero_only += len(x) > 0 and np.all(table[x, y] == d)
        for size in range(1, d + 1):
            for middle in itertools.combinations(range(d), size):
                if _closure(table, middle) | {0} != set(range(d)):
                    continue
                tested += 1
                assert hopf._table_associativity(table, np.array(middle)) \
                    == max_abs(assoc), (entries, middle)
    assert tested > 4 ** 4 and zero_only > 0


def _random_table_algebra(d: int, rng) -> HopfData:
    """Random tables, no Hopf algebra: e_i e_j = e_T[i, j] or 0 at random,
    f_a f_b likewise except that f_0 is the dual unit (so the counit e_0^*
    is exact), star and antipode random permutations, unit random 0/1 and
    haar random integers, so that every residual is exact."""
    every = np.arange(d)
    tm = rng.integers(d + 1, size=(d, d))
    tc = rng.integers(d + 1, size=(d, d))
    tc[0], tc[:, 0] = every, every
    i, j = np.nonzero(tm < d)
    a, b = np.nonzero(tc < d)
    eye = np.eye(d)
    return HopfData(((i * d + j) * d + tm[i, j], np.ones(len(i))), rng.integers(2, size=d),
                    (np.sort(tc[a, b] * d * d + a * d + b), np.ones(len(a))), eye[0],
                    eye[:, rng.permutation(d)], eye[:, rng.permutation(d)],
                    rng.integers(-2, 3, size=d))


@pytest.mark.parametrize("join_terms", [1 << 14, 7])
def test_random_tables_match_dense_reference(join_terms, monkeypatch):
    """Random tables break most identities; every residual is the dense
    one, and so is each automorphism residual of a random permutation."""
    monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
    rng = np.random.default_rng(41)
    for d in (2, 3, 4, 5) * 6:
        h = _random_table_algebra(d, rng)
        assert all(part is not None for part in hopf._tables(h))
        assert verify_axioms(h) == _dense_verify_axioms(h)
        mats = np.eye(d)[:, np.stack([rng.permutation(d) for _ in range(3)])].transpose(1, 0, 2)
        assert automorphism_residuals(h, mats).tolist() == [
            _dense_automorphism_residual(h, m) for m in mats]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rung_verification_builds_no_d4_array(s4_rung):
    """At dim 48 one complex d^4 array is 81 MiB; the residuals hold one
    window of each side at a time."""
    rep, peak = _traced_peak(lambda: verify_axioms(fresh(s4_rung)))
    assert rep["pass"]
    assert peak < 8 * 2 ** 20, peak


@pytest.fixture(scope="module")
def s4_s3():
    """C(S4) x| S3, S3 in S4 as the permutations fixing 3, acting by conjugation."""
    from semirep.corpus import build_instance
    return build_instance(conjugation_spec(4, range(24), symmetric_group(3),
                                           lambda r: (*PERMS3[r], 3))).product


def test_dim_144_instance_verifies(s4_s3):
    assert s4_s3.dim == 144
    rep, peak = _traced_peak(lambda: verify_axioms(s4_s3))
    assert rep["pass"], rep
    assert peak < 32 * 2 ** 20, peak


def test_dim_144_haar_solve_in_small_memory(s4_s3):
    """The dense invariance system, 2 d^2 x d complex entries, would take
    91 MiB; it is folded into a running QR block by block."""
    eta, peak = _traced_peak(lambda: haar_solve(s4_s3))
    assert max_abs(eta - s4_s3.haar) < TOL_VERIFY
    assert peak < 32 * 2 ** 20, peak


def test_a5_instance_verifies():
    """C(A5) x| Z2, A5 the even permutations in S5, Z2 acting by conjugation
    with the transposition (0 1); dim 120."""
    from semirep.corpus import build_instance
    even = [i for i, p in enumerate(sorted(itertools.permutations(range(5))))
            if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]
    spec = conjugation_spec(5, even, cyclic_group(2),
                             lambda r: (1, 0, 2, 3, 4) if r else (0, 1, 2, 3, 4))
    inst, peak = _traced_peak(lambda: build_instance(spec))
    assert inst.base.dim == 60 and inst.dim == 120
    assert inst.axioms["pass"], inst.axioms
    assert peak < 32 * 2 ** 20, peak


def test_dim_240_instance_verifies():
    """C(S5) x| Z2, Z2 acting by conjugation with the transposition (0 1);
    its dense mult and comult alone would take 221 MB each."""
    from semirep.corpus import build_instance
    spec = conjugation_spec(5, range(120), cyclic_group(2),
                            lambda r: (1, 0, 2, 3, 4) if r else (0, 1, 2, 3, 4))
    inst, peak = _traced_peak(lambda: build_instance(spec))
    assert inst.dim == 240
    assert inst.axioms["pass"], inst.axioms
    assert peak < 64 * 2 ** 20, peak


# -- automorphism residuals and the Gram matrix against their dense references ----

def _dense_automorphism_residual(h: HopfData, m: np.ndarray) -> float:
    """The dense einsum form of one automorphism residual, kept only as a reference."""
    mult, comult = dense(h, "mult"), dense(h, "comult")
    worst = max_abs(m @ h.unit - h.unit)
    worst = max(worst, max_abs(h.counit @ m - h.counit))
    lhs = np.einsum("ijk,pk->ijp", mult, m)
    rhs = np.einsum("ai,bj,abp->ijp", m, m, mult)
    worst = max(worst, max_abs(lhs - rhs))
    worst = max(worst, max_abs(m @ h.star - h.star @ np.conj(m)))
    lhs = np.einsum("ijk,pj,qk->ipq", comult, m, m)
    rhs = np.einsum("ki,kpq->ipq", m, comult)
    return max(worst, max_abs(lhs - rhs))


def _dense_gram(h: HopfData) -> np.ndarray:
    """The dense einsum form of HopfData.gram, kept only as a reference."""
    return np.einsum("li,ljk,k->ij", h.star, dense(h, "mult"), h.haar)


def _action_instance(case, request):
    from semirep.corpus import instance
    if case == "F":
        return instance("F")
    if case == "raw_hopf matrix":  # Z2 conjugating by a transposition, as matrices
        z2 = cyclic_group(2)
        return _raw_hopf_instance(z2, action_from_group_hom(
            group_algebra(symmetric_group(3)), z2,
            [np.arange(6), conj_by_transposition_perm()], kind="permutation"))
    if case == "rung":
        return request.getfixturevalue("rung_instance")
    return request.getfixturevalue(f"inst_{case.lower()}")


# 1 << 18 term pairs exceed every join of these instances, so each identity is
# one window; with 7, each leading index is a window of its own.
@pytest.mark.parametrize("join_terms", [1 << 18, 7])
@pytest.mark.parametrize("case", [*"ABCDEFG", "raw_hopf matrix", "rung"])
def test_automorphism_residual_equals_dense_reference(case, join_terms, request,
                                                      monkeypatch):
    """G's Lambda (order 6) is larger than its base (dim 4)."""
    inst = _action_instance(case, request)
    monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
    assert len(inst.alpha) == inst.lam_full.order > 1
    mats = inst.alpha
    got = automorphism_residuals(inst.base, mats)
    assert got.shape == (len(mats),)
    for r, m in enumerate(mats):
        assert abs(got[r] - _dense_automorphism_residual(inst.base, m)) <= 1e-12


@pytest.mark.parametrize("join_terms", [1 << 18, 7])
@pytest.mark.parametrize("case", ["A", "C", "raw_hopf matrix"])
def test_corrupted_action_matrix_raises(case, join_terms, request, monkeypatch):
    """A dense random perturbation of one action matrix is caught and named,
    and its residual equals the dense reference; so is a change at a single
    entry. The other matrices keep their residuals."""
    inst = _action_instance(case, request)
    monkeypatch.setattr(hopf, "JOIN_TERMS", join_terms)
    h, d = inst.base, inst.base.dim
    rng = np.random.default_rng(13)
    clean = automorphism_residuals(h, inst.alpha)
    for r in inst.lam_full.elements():
        dense = 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        single = np.zeros((d, d), dtype=complex)
        single[tuple(rng.integers(d, size=2))] = 0.05
        for noise in (dense, single):
            mats = inst.alpha.copy()
            mats[r] += noise
            got = automorphism_residuals(h, np.stack(mats))
            res, ref = got[r], _dense_automorphism_residual(h, mats[r])
            assert res > TOL_VERIFY and abs(res - ref) <= 1e-12, (r, res, ref)
            assert np.array_equal(np.delete(got, r), np.delete(clean, r))
            with pytest.raises(NotAutomorphism, match=rf"^alpha\*_{r} fails the automorphism"):
                action_from_group_hom(h, inst.lam_full, mats, kind="matrix")


def test_overflowing_action_residual_is_infinite():
    """Finite entries near the float limit make the residuals of alpha*_1
    overflow; each part that reaches NaN reads as inf, so the check fails at
    r = 1 although its unit residual alone is 1.0."""
    h = function_algebra(cyclic_group(4))
    huge = np.array([[1e308, 1e308, -1e308, -1e308]] * 4)
    with np.errstate(all="ignore"):
        got = automorphism_residuals(h, np.stack([np.eye(4), huge]))
    assert got.tolist() == [0.0, np.inf]


def test_nan_haar_state_fails_the_axioms():
    """No residual of verify_axioms is dropped for being NaN: a Haar vector
    with a NaN entry fails, where a max over the report kept 0.0, and each
    Haar residual reads inf, where Python's abs kept haar_unital at nan and
    max(0.0, nan) turned haar_positivity into 0.0."""
    h = function_algebra(cyclic_group(2))
    haar = h.haar.copy()
    haar[0] = np.nan
    with np.errstate(all="ignore"):
        report = verify_axioms(HopfData(h.mult, h.unit, h.comult, h.counit,
                                        h.antipode, h.star, haar))
    assert report["max"] == np.inf and not report["pass"]
    for key in ("haar_unital", "haar_invariance", "haar_hermitian", "haar_positivity"):
        assert report[key] == np.inf, key


@pytest.mark.parametrize("case", [*"ABCDEF", "raw_hopf base", "rung"])
def test_gram_equals_dense_reference(case, request, rung_instance):
    """On the product algebra and on the base of each instance."""
    inst = rung_instance if case == "rung" else None
    if len(case) == 1:
        inst = _action_instance(case, request)
    algebras = [_pairing_algebra(case, request)] if inst is None \
        else [inst.product, inst.base]
    for h in algebras:
        assert max_abs(fresh(h).gram() - _dense_gram(h)) <= 1e-12


def test_gram_equals_dense_reference_on_e_principals(inst_e):
    for sub in all_subgroups(inst_e.lam_full):
        h = inst_e.principal(sub).product
        assert max_abs(fresh(h).gram() - _dense_gram(h)) <= 1e-12, sub.elements


@pytest.mark.parametrize("name", ["mult", "star", "haar"])
def test_gram_of_corrupted_tensors_equals_dense_reference(name, inst_c):
    """A dense random star, mult or haar has no symmetry that could hide a
    transposed index."""
    h = _corrupted(inst_c.product, name)
    assert max_abs(h.gram() - _dense_gram(h)) <= 1e-12


# -- stacked element operations against their einsum forms ------------------------

STACK_OPS = {  # name -> (operation on stacks x, y, its einsum form)
    "product": (lambda h, x, y: h.product(x, y),
                lambda h, x, y: np.einsum("...a,...b,abc->...c", x, y, dense(h, "mult"))),
    "coproduct": (lambda h, x, y: h.coproduct(x),
                  lambda h, x, y: np.einsum("...a,abc->...bc", x, dense(h, "comult"))),
    "star_vec": (lambda h, x, y: h.star_vec(x),
                 lambda h, x, y: np.einsum("pc,...c->...p", h.star, np.conj(x))),
}
STACK_TENSOR = {"product": "mult", "coproduct": "comult", "star_vec": "star"}


def _stack_algebra(case, request, s4_rung, op):
    """The product algebra of a shipped instance, the C(S4) x| Z2 rung, or
    C's product algebra with a dense perturbation of the tensor op reads (no
    row of a perturbed mult is zero)."""
    if case == "rung":
        return s4_rung
    if case == "corrupted":
        return _corrupted(request.getfixturevalue("inst_c").product, STACK_TENSOR[op])
    return _pairing_algebra(case, request)


@pytest.mark.parametrize("op", STACK_OPS)
@pytest.mark.parametrize("case", [*"ABCDEFGH", "rung", "corrupted"])
def test_stacked_operations_equal_einsum(case, op, request, s4_rung):
    """On single vectors and on stacks that broadcast against each other."""
    h = _stack_algebra(case, request, s4_rung, op)
    rng = np.random.default_rng(17)
    run, reference = STACK_OPS[op]
    for xs, ys in (((), ()), ((3, 1), (1, 2)), ((2, 2, 3), (3,))):
        x = rng.standard_normal((*xs, h.dim)) + 1j * rng.standard_normal((*xs, h.dim))
        y = rng.standard_normal((*ys, h.dim)) + 1j * rng.standard_normal((*ys, h.dim))
        got, want = run(h, x, y), reference(h, x, y)
        assert got.shape == want.shape
        assert max_abs(got - want) <= 1e-12, (xs, ys)
