import numpy as np
import pytest

from semirep._linalg import module_hom_basis
from semirep.cohomology import (Cochain1, coboundary, cocycle_inverse, is_cocycle,
                                trivial_cochain2)
from semirep.errors import CocycleMismatch, NotScalarRelated
from semirep.groups import (Subgroup, all_subgroups, conjugate_subgroup, cyclic_group,
                            direct_product, symmetric_group)
from semirep.projective import (ProjectiveRep, cocycle_of, contragredient,
                                decompose_projective, irreducible_projreps,
                                ordinary_rep, proj_mor_dim, projective_rep, pullback,
                                regular_twisted_rep, rescale, tensor,
                                transitional_map)

from helpers import trivial_rep

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def pauli_rep():
    """(a, b) -> X^a Z^b on Z2 x Z2, a genuinely projective representation."""
    g = klein_group()
    mats = np.stack([np.eye(2, dtype=complex), Z, X, X @ Z])
    return projective_rep(g, mats)


def test_ordinary_rep_has_trivial_cocycle():
    z2 = cyclic_group(2)
    sign = ordinary_rep(z2, np.array([[[1.0]], [[-1.0]]]))
    assert np.allclose(sign.cocycle.values, 1.0)
    assert sign.verify() < 1e-12


def test_pauli_cocycle_antisymmetry():
    v = pauli_rep()
    g = v.group
    # oracle: direct matrix products
    assert np.allclose(X @ Z, -(Z @ X))
    i10, i01 = 2, 1  # (1,0) -> index 2, (0,1) -> index 1
    ratio = v.cocycle(i10, i01) / v.cocycle(i01, i10)
    assert abs(ratio + 1.0) < 1e-12
    assert v.verify() < 1e-12
    assert g.mul(i10, i01) == 3


def test_rescale_trivial_and_character():
    z2 = cyclic_group(2)
    sign = ordinary_rep(z2, np.array([[[1.0]], [[-1.0]]]))
    one = Cochain1(z2, np.ones(2))
    assert np.allclose(rescale(one, sign).mats, sign.mats)
    chi = Cochain1(z2, np.array([1.0, -1.0]))
    lifted = rescale(chi, sign)
    assert np.allclose(lifted.mats, np.stack([np.eye(1), np.eye(1)]))
    assert np.allclose(lifted.cocycle.values, 1.0)


def test_rescale_cocycle_bookkeeping():
    v = pauli_rep()
    rng = np.random.default_rng(4)
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[v.group.identity] = 1.0
    b = Cochain1(v.group, phases)
    out = rescale(b, v)
    expected = coboundary(b).values * v.cocycle.values
    got = cocycle_of(out.group, out.mats).values
    assert np.max(np.abs(got - expected)) < 1e-9


def test_proj_mor_dim_schur_and_mismatch():
    v = pauli_rep()
    assert proj_mor_dim(v, v) == 1
    z2 = cyclic_group(2)
    triv = trivial_rep(z2)
    sign = ordinary_rep(z2, np.array([[[1.0]], [[-1.0]]]))
    assert proj_mor_dim(triv, sign) == 0
    with pytest.raises(CocycleMismatch):
        proj_mor_dim(v, trivial_rep(v.group, 2))


def test_proj_mor_dim_matches_nullspace():
    v = pauli_rep()
    cases = [(v, v), (tensor(v, v), tensor(v, v)),
             (trivial_rep(v.group), tensor(v, contragredient(v)))]
    for a, b in cases:
        assert proj_mor_dim(a, b) == len(module_hom_basis(a.mats, b.mats))


def test_irreducible_projreps_z3_trivial():
    z3 = cyclic_group(3)
    irreps = irreducible_projreps(z3, trivial_cochain2(z3))
    assert [v.dim for v in irreps] == [1, 1, 1]
    gram = np.array([[proj_mor_dim(a, b) for b in irreps] for a in irreps])
    assert np.array_equal(gram, np.eye(3, dtype=int))


def test_irreducible_projreps_pauli_class():
    v = pauli_rep()
    irreps = irreducible_projreps(v.group, v.cocycle)
    assert [w.dim for w in irreps] == [2]
    assert proj_mor_dim(irreps[0], v) == 1


def test_irreducible_projreps_s3():
    s3 = symmetric_group(3)
    irreps = irreducible_projreps(s3, trivial_cochain2(s3))
    assert sorted(w.dim for w in irreps) == [1, 1, 2]
    assert sum(w.dim ** 2 for w in irreps) == 6
    gram = np.array([[proj_mor_dim(a, b) for b in irreps] for a in irreps])
    assert np.array_equal(gram, np.eye(3, dtype=int))


def test_irreducible_projreps_deterministic():
    v = pauli_rep()
    a = irreducible_projreps(v.group, v.cocycle, seed=9)
    b = irreducible_projreps(v.group, v.cocycle, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.mats, y.mats)


def test_tensor_contragredient_restrict():
    v = pauli_rep()
    vc = contragredient(v)
    assert np.allclose(vc.cocycle.values, cocycle_inverse(v.cocycle).values)
    tens = tensor(v, vc)
    assert np.allclose(tens.cocycle.values, 1.0)
    # Pauli (x) conj(Pauli) decomposes into the four characters of Z2 x Z2
    chars = irreducible_projreps(v.group, trivial_cochain2(v.group))
    mults = [proj_mor_dim(c, tens) for c in chars]
    assert mults == [1, 1, 1, 1]
    sub = Subgroup(v.group, (0,))
    r = pullback(v, np.array(sub.elements), sub.group)
    assert r.dim == 2 and r.group.order == 1
    sub2 = Subgroup(v.group, (0, 1))
    r2 = pullback(v, np.array(sub2.elements), sub2.group)
    assert r2.verify() < 1e-12


def twisted_s3_rep():
    """The 2-dim irrep of S3 rescaled by random phases: a projective
    representation of a nonabelian group whose cocycle table is not constant."""
    s3 = symmetric_group(3)
    two = next(w for w in irreducible_projreps(s3, trivial_cochain2(s3)) if w.dim == 2)
    phases = np.exp(2j * np.pi * np.random.default_rng(5).random(6))
    phases[s3.identity] = 1.0
    return rescale(Cochain1(s3, phases), two)


@pytest.mark.parametrize("make", [pauli_rep, twisted_s3_rep])
def test_pullback_restricts_and_translates(make):
    """Restriction and translation are both pullbacks along an index map:
    each gives a projective representation whose cocycle is the pulled-back
    cocycle, and restricting then translating by r equals translating then
    restricting to the conjugated subgroup."""
    v = make()
    g = v.group
    for sub in all_subgroups(g):
        res = pullback(v, np.array(sub.elements), sub.group)
        assert res.group is sub.group and res.cocycle.group is sub.group
        assert res.verify() < 1e-12 and is_cocycle(res.cocycle)[0]
        for r in g.elements():
            dst = conjugate_subgroup(sub, r)
            back = g.conjugate(g.inverse(r), np.array(dst.elements))
            moved = pullback(res, sub.to_local(back), dst.group)
            assert moved.verify() < 1e-12
            whole = pullback(v, g.conjugate(g.inverse(r), np.arange(g.order)), g)
            direct = pullback(whole, np.array(dst.elements), dst.group)
            assert np.array_equal(moved.mats, direct.mats)
            assert np.array_equal(moved.cocycle.values, direct.cocycle.values)


def test_tensor_of_pauli_with_itself():
    v = pauli_rep()
    tens = tensor(v, v)
    assert np.allclose(tens.cocycle.values, 1.0)
    parts = decompose_projective(tens)
    assert sorted(f.dim for f, _ in parts) == [1, 1, 1, 1]


def test_transitional_map():
    v = pauli_rep()
    assert np.allclose(transitional_map(v, v).values, 1.0)
    chi = Cochain1(v.group, np.array([1.0, -1.0, 1.0, -1.0]))
    scaled = rescale(chi, v)
    got = transitional_map(v, scaled)
    assert np.max(np.abs(got.values - chi.values)) < 1e-12
    # delta(b) must relate the two cocycles
    ratio = scaled.cocycle.values / v.cocycle.values
    assert np.max(np.abs(coboundary(got).values - ratio)) < 1e-12
    other = tensor(v, v)
    with pytest.raises((NotScalarRelated, Exception)):
        transitional_map(v, ProjectiveRep(v.group, other.mats[:, :2, :2], v.cocycle))


def test_regular_twisted_rep_unitary():
    v = pauli_rep()
    reg = regular_twisted_rep(v.group, v.cocycle)
    assert reg.verify() < 1e-12
