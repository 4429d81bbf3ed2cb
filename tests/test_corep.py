import itertools

import numpy as np
import pytest

from semirep import _linalg, corep
from semirep.corep import (Corep, act, conjugate, intertwiner_basis,
                           irr_action, irr_decompose, irr_enumerate, mor_dim,
                           regular_corep, tensor, verify_corep)
from semirep.errors import (IntegerRecoveryError, OracleDisagreement,
                            OrbitResolutionFailure, ValidationError)
from semirep.groups import GroupAction, cyclic_group, quaternion_group, symmetric_group
from semirep.hopf import (action_from_group_hom, function_algebra, group_algebra)

from helpers import (_einsum_corep_tensor, _einsum_verify_corep, direct_sum, spy,
                     trivial_corep)


def test_regular_corep_valid():
    for h in (function_algebra(cyclic_group(3)),
              function_algebra(symmetric_group(3)),
              group_algebra(symmetric_group(3))):
        reg, _ = regular_corep(h)
        rep = verify_corep(reg)
        assert rep["pass"], rep


def test_trivial_corep_is_tensor_unit():
    h = function_algebra(cyclic_group(3))
    one = trivial_corep(h)
    reg, _ = regular_corep(h)
    t = tensor(one, reg)
    assert t.dim == reg.dim
    assert np.max(np.abs(t.entries - reg.entries)) < 1e-12
    t2 = tensor(reg, one)
    assert np.max(np.abs(t2.entries - reg.entries)) < 1e-12


def test_character_multiplicative_additive():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    u, w = irreps[1], irreps[2]
    cu, cw = u.char_vec(), w.char_vec()
    assert np.max(np.abs(tensor(u, w).char_vec() - h.product(cu, cw))) < 1e-9
    assert np.max(np.abs(direct_sum(u, w).char_vec() - (cu + cw))) < 1e-12


@pytest.mark.parametrize("name", "CD")
def test_contractions_equal_einsum_on_arbitrary_entries(name, request):
    """Random entries are no corep, so every residual of verify_corep is far
    from 0 and rows differ from columns; the residuals and tensor equal their
    einsum forms (C(G)- and C[G]-based product algebras)."""
    h = request.getfixturevalue(f"inst_{name.lower()}").product
    rng = np.random.default_rng(23)
    u, w = (Corep(h, rng.standard_normal((n, n, h.dim))
                  + 1j * rng.standard_normal((n, n, h.dim))) for n in (3, 2))
    got, want = verify_corep(u), _einsum_verify_corep(u)
    assert min(want[k] for k in want if k not in ("max", "pass")) > 0.1
    assert abs(want["unitary_rows"] - want["unitary_cols"]) > 1e-3
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, want[key]), key
    assert np.max(np.abs(tensor(u, w).entries - _einsum_corep_tensor(u, w))) <= 1e-12


def test_irr_enumerate_z3():
    h = function_algebra(cyclic_group(3))
    irreps = irr_enumerate(h)
    assert [u.dim for u in irreps] == [1, 1, 1]
    gram = np.array([[mor_dim(a, b) for b in irreps] for a in irreps])
    assert np.array_equal(gram, np.eye(3, dtype=int))


def test_irr_enumerate_s3_function_and_group():
    h = function_algebra(symmetric_group(3))
    dims = sorted(u.dim for u in irr_enumerate(h))
    assert dims == [1, 1, 2]
    hg = group_algebra(symmetric_group(3))
    dims_g = [u.dim for u in irr_enumerate(hg)]
    assert dims_g == [1] * 6


def test_peter_weyl_and_orthogonality():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    assert sum(u.dim ** 2 for u in irreps) == h.dim
    # Gram of characters under the Haar state is the identity
    gram = np.zeros((3, 3), dtype=complex)
    for i, a in enumerate(irreps):
        for j, b in enumerate(irreps):
            gram[i, j] = h.haar_vec(h.product(h.star_vec(a.char_vec()), b.char_vec()))
    assert np.max(np.abs(gram - np.eye(3))) < 1e-9


def test_mor_dim_trivial_in_regular():
    h = function_algebra(symmetric_group(3))
    assert mor_dim(trivial_corep(h), regular_corep(h)[0]) == 1


def test_s3_classical_fusion_smoke():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    two = [u for u in irreps if u.dim == 2][0]
    assert mor_dim(two, tensor(two, two)) == 1
    # 2 (x) 2 = 1 + sgn + 2
    mults = sorted(mor_dim(u, tensor(two, two)) for u in irreps)
    assert mults == [1, 1, 1]


def test_irr_decompose_regular_s3():
    h = function_algebra(symmetric_group(3))
    parts = irr_decompose(*regular_corep(h))
    got = sorted((u.dim, m) for u, m in parts)
    assert got == [(1, 1), (1, 1), (2, 2)]
    for u, _ in parts:
        assert verify_corep(u)["pass"]
        assert mor_dim(u, u) == 1


def test_irr_decompose_irreducible_passthrough():
    h = function_algebra(cyclic_group(3))
    u = irr_enumerate(h)[1]
    assert [(f.dim, m) for f, m in irr_decompose(u, intertwiner_basis(u, u))] == [(1, 1)]


# C[Q8]: its regular corep splits into 8 one-dimensional factors, 28 pairs
Q8_PAIRS = 28


def test_irr_enumerate_batches_its_tests(monkeypatch):
    """irr_enumerate on C[Q8] counts the pieces of its one split in one
    hom_space_dims batch and its 28 factor pairs in one more, and makes no
    pairwise mor_dim call and solves no commutant basis."""
    splits = spy(monkeypatch, _linalg, "hom_space_dims")
    pairs = spy(monkeypatch, corep, "hom_space_dims")
    pairwise = [spy(monkeypatch, corep, "mor_dim"),
                spy(monkeypatch, _linalg, "module_hom_basis")]
    irreps = irr_enumerate(group_algebra(quaternion_group()))
    assert [u.dim for u in irreps] == [1] * 8
    assert len(pairs) == 1 and len(pairs[0][0][0]) == Q8_PAIRS
    assert [counts for _, counts in splits] == [[1] * 8]
    assert pairwise == [[], []]


@pytest.mark.parametrize("route", ["nullspace", "characters"])
def test_every_factor_pair_is_compared_by_both_routes(route, monkeypatch):
    """A hom count, or a character pairing, off by one on any single one of
    C[Q8]'s 28 factor pairs raises OracleDisagreement."""
    count, pairing = corep.hom_space_dims, corep.as_int
    for k in range(Q8_PAIRS):
        with monkeypatch.context() as m:
            if route == "nullspace":
                m.setattr(corep, "hom_space_dims",
                          lambda pairs: [n + (i == k) for i, n in enumerate(count(pairs))])
            else:
                calls = iter(range(Q8_PAIRS))
                m.setattr(corep, "as_int", lambda x: pairing(x) + (next(calls) == k))
            with pytest.raises(OracleDisagreement, match="mor_dim mismatch"):
                irr_enumerate(group_algebra(quaternion_group()))


def test_mor_dim_and_mor_dims_reject_a_mixed_pair():
    """On two separately built C(Z3), the one-pair count and a batch whose
    second pair is mixed raise the same ValidationError when called, before
    any count is read."""
    u, w = (irr_enumerate(function_algebra(cyclic_group(3)))[0] for _ in range(2))
    assert u.parent is not w.parent
    assert mor_dim(u, u) == mor_dim(w, w) == 1
    raised = []
    for call in (lambda: mor_dim(u, w),
                 lambda: corep.mor_dims([u, w], [u, w], [(0, 0), (1, 0), (1, 1)])):
        with pytest.raises(ValidationError) as err:
            call()
        raised.append((type(err.value), str(err.value)))
    assert raised == [(ValidationError, "intertwiners require a common parent algebra")] * 2


def test_intertwiner_basis_vs_mor_dim():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    for a in irreps:
        for b in irreps:
            basis = intertwiner_basis(a, b)
            assert len(basis) == mor_dim(a, b)
            for t in basis:
                lhs = np.einsum("ik,kjc->ijc", t, a.entries)
                rhs = np.einsum("ikc,kj->ijc", b.entries, t)
                assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_conjugate_kac():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    for u in irreps:
        ubar = conjugate(u)
        assert verify_corep(ubar)["pass"]
        # character of conjugate = star of character, coefficientwise
        assert np.max(np.abs(ubar.char_vec() - h.star_vec(u.char_vec()))) < 1e-9
    two = [u for u in irreps if u.dim == 2][0]
    ubar = conjugate(two)
    assert mor_dim(ubar, two) == 1  # S3's 2-dim is self-conjugate


def test_frobenius_reciprocity_smoke():
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    for u in irreps:
        for w in irreps:
            wbar = conjugate(w)
            lhs = mor_dim(u, tensor(w, wbar))
            rhs = mor_dim(tensor(u, w), w)
            assert lhs == rhs


def inversion_action_z3():
    z3, z2 = cyclic_group(3), cyclic_group(2)
    h = function_algebra(z3)
    return h, z2, action_from_group_hom(h, z2, [np.array([0, 1, 2]),
                                                np.array([0, 2, 1])], "permutation")


def test_act_identity_and_law():
    h, z2, autos = inversion_action_z3()
    irreps = irr_enumerate(h)
    for u in irreps:
        assert np.max(np.abs(act(0, u, autos, z2).entries - u.entries)) < 1e-12
        for r in z2.elements():
            for s in z2.elements():
                lhs = act(z2.mul(r, s), u, autos, z2)
                rhs = act(r, act(s, u, autos, z2), autos, z2)
                assert np.max(np.abs(lhs.entries - rhs.entries)) < 1e-12
            moved = act(r, u, autos, z2)
            assert mor_dim(moved, moved) == 1


def test_irr_action_z2_on_z3():
    h, z2, autos = inversion_action_z3()
    action = irr_action(h, z2, autos)
    irreps = irr_enumerate(h)
    # the nontrivial element swaps omega and omega^2 and fixes the trivial
    triv = next(i for i, u in enumerate(irreps)
                if np.max(np.abs(u.char_vec() - h.unit)) < 1e-9)
    assert action.apply(1, triv) == triv
    others = [i for i in range(3) if i != triv]
    assert action.apply(1, others[0]) == others[1]


def test_irr_action_conjugation_on_dual_s3():
    s3, z2 = symmetric_group(3), cyclic_group(2)
    h = group_algebra(s3)
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    conj_perm = np.array([s3.mul(s3.mul(t12, x), t12) for x in s3.elements()])
    autos = action_from_group_hom(h, z2, [np.arange(6), conj_perm], "permutation")
    action = irr_action(h, z2, autos)
    assert isinstance(action, GroupAction)
    # orbit sizes on the six group-likes: two fixed points, two 2-orbits
    from semirep.groups import orbits
    sizes = sorted(len(o) for o in orbits(action))
    assert sizes == [1, 1, 2, 2]


def _pairwise_irr_action(h, lam, alpha):
    """irr_action by one mor_dim per candidate pair, in (r, i, j) order: the
    reference for its result and for which failure it raises first."""
    irreps = irr_enumerate(h)
    perm = np.zeros((lam.order, len(irreps)), dtype=int)
    for r in lam.elements():
        for i, x in enumerate(irreps):
            moved = act(r, x, alpha, lam)
            matches = [j for j, y in enumerate(irreps)
                       if y.dim == moved.dim and mor_dim(moved, y) >= 1]
            if len(matches) != 1:
                raise OrbitResolutionFailure(
                    f"r={r} moves irrep {i} to {len(matches)} candidates")
            perm[r, i] = matches[0]
    return perm


@pytest.mark.parametrize("name", "abcdefgh")
def test_irr_action_equals_pairwise_reference(name, request):
    inst = request.getfixturevalue(f"inst_{name}")
    action = irr_action(inst.base, inst.lam_full, inst.alpha)
    assert np.array_equal(action.perm,
                          _pairwise_irr_action(inst.base, inst.lam_full, inst.alpha))


def _conjugation_on_c_s3():
    """C(S3), irreps of dims 1, 1, 2, with Z2 acting by conjugation."""
    s3, z2 = symmetric_group(3), cyclic_group(2)
    h = function_algebra(s3)
    t12 = sorted(itertools.permutations(range(3))).index((1, 0, 2))
    conj_perm = np.array([s3.mul(s3.mul(t12, x), t12) for x in s3.elements()])
    autos = action_from_group_hom(h, z2, [np.arange(6), conj_perm], "permutation")
    assert [u.dim for u in irr_enumerate(h)] == [1, 1, 2]
    return h, z2, autos


def _first_failure(fn, *args):
    with pytest.raises((OracleDisagreement, OrbitResolutionFailure)) as err:
        fn(*args)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("duplicate,want", [(0, OrbitResolutionFailure),
                                            (2, OracleDisagreement)])
def test_irr_action_raises_the_pairwise_first_failure(duplicate, want, monkeypatch):
    """With a duplicated irrep and a nullspace count forced wrong on the
    2-dim pairs, the batched matching raises the failure, and the message,
    that pair-by-pair mor_dim calls in (r, i, j) order raise first: the
    duplicated 1-dim irrep fails its orbit before any 2-dim pair is checked,
    and a 2-dim pair disagrees before its orbit is resolved."""
    h, z2, autos = _conjugation_on_c_s3()
    irreps = irr_enumerate(h)
    h._cache[("irr_enumerate", _linalg.DEFAULT_SEED)] = irreps + [irreps[duplicate]]
    count = _linalg.nullity
    monkeypatch.setattr(_linalg, "nullity", lambda m: count(m) + (m.shape[-1] == 4))
    got = _first_failure(irr_action, h, z2, autos)
    assert got == _first_failure(_pairwise_irr_action, h, z2, autos)
    assert got[0] is want


def test_irr_action_raises_on_a_non_integer_pairing():
    h, z2, autos = _conjugation_on_c_s3()
    h._cache["gram"] = h.gram() / 2
    with pytest.raises(IntegerRecoveryError, match="is not within"):
        irr_action(h, z2, autos)


def test_oracle_module_route_matches_mor_dim():
    from semirep.oracle import module_hom_dim
    h = function_algebra(symmetric_group(3))
    irreps = irr_enumerate(h)
    for a in irreps:
        for b in irreps:
            assert module_hom_dim(a, b) == mor_dim(a, b)
            assert module_hom_dim(a, tensor(b, b)) == mor_dim(a, tensor(b, b))
