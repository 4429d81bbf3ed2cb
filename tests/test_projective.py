import itertools

import numpy as np
import pytest

from semirep._linalg import module_hom_basis
from semirep import projective
from semirep.cohomology import (Cochain1, Cochain2, coboundary, cocycle_inverse, is_cocycle,
                                trivial_cochain2)
from semirep.corep import irr_enumerate
from semirep.corpus import instance
from semirep.errors import CocycleMismatch, NotScalarRelated, ValidationError
from semirep.groups import (Subgroup, all_subgroups, conjugate_subgroup, cyclic_group,
                            direct_product, full_subgroup, symmetric_group)
from semirep.mackey import covariant_projective
from semirep.projective import (ProjectiveRep, cocycle_of, contragredient,
                                decompose_projective, irreducible_projreps,
                                ordinary_rep, proj_mor_dim, proj_mor_dims,
                                projective_rep, pullback, regular_twisted_rep,
                                rescale, tensor, transitional_map)

from helpers import proj_direct_sum, spy, trivial_rep

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
    """One pair at a time and in one proj_mor_dims call."""
    v = pauli_rep()
    cases = [(v, v), (tensor(v, v), tensor(v, v)),
             (trivial_rep(v.group), tensor(v, contragredient(v)))]
    want = [len(module_hom_basis(a.mats, b.mats)) for a, b in cases]
    assert [proj_mor_dim(a, b) for a, b in cases] == want
    firsts, seconds = zip(*cases)
    assert proj_mor_dims(firsts, seconds, [(k, k) for k in range(len(cases))]) == want


def nontrivial_class_reps(name):
    """On instance F (I), the one irreducible projective rep v of the class of
    order 2 (3) that the covariant V of a 2-dim (3-dim) base irrep carries,
    its rescalings by every character of the stabilizer (each equivalent to
    v), and the direct sum of v with one of them."""
    inst = instance(name)
    big = next(u for u in irr_enumerate(inst.base) if u.dim > 1)
    v_cov = covariant_projective(inst, big, full_subgroup(inst.lam_full))
    g = v_cov.group
    (v,) = irreducible_projreps(g, cocycle_inverse(v_cov.cocycle))
    chars = [Cochain1(g, c.mats[:, 0, 0])
             for c in irreducible_projreps(g, trivial_cochain2(g))]
    moved = [rescale(b, v) for b in chars]
    return [v, *moved, proj_direct_sum(v, moved[-1])]


@pytest.mark.parametrize("name,dim", [("F", 2), ("I", 3)])
def test_proj_mor_dims_on_a_nontrivial_class(name, dim):
    """Every pair of the class's reps in one proj_mor_dims call, against the
    nullspace count; a foreign cocycle on only the last pair raises
    CocycleMismatch, and a foreign group ValidationError."""
    vs = nontrivial_class_reps(name)
    assert [v.dim for v in vs] == [dim] * (len(vs) - 1) + [2 * dim]
    pairs = list(itertools.product(range(len(vs)), repeat=2))
    counts = proj_mor_dims(vs, vs, pairs)
    assert counts == [len(module_hom_basis(vs[i].mats, vs[j].mats)) for i, j in pairs]
    assert set(counts) == {1, 2, 4}
    foreign = trivial_rep(vs[0].group, dim)
    with pytest.raises(CocycleMismatch):
        proj_mor_dims(vs, [*vs, foreign], [*pairs, (0, len(vs))])
    other = nontrivial_class_reps("I" if name == "F" else "F")[0]
    with pytest.raises(ValidationError, match="^morphism spaces need a common group$"):
        proj_mor_dims(vs, [other], [(0, 0)])


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
    """Two separate groups (no shared cache) give the same matrices."""
    v, w = pauli_rep(), pauli_rep()
    a = irreducible_projreps(v.group, v.cocycle, seed=9)
    b = irreducible_projreps(w.group, w.cocycle, seed=9)
    assert v.group is not w.group
    for x, y in zip(a, b):
        assert np.array_equal(x.mats, y.mats)


def test_irreducible_projreps_is_built_once_per_cocycle_and_seed(monkeypatch):
    """The list is cached on the group, keyed by the cocycle's values and the
    seed, with read-only matrices; another seed or cocycle builds anew."""
    v = pauli_rep()
    g = v.group
    built = spy(monkeypatch, projective, "decompose_projective")
    first = irreducible_projreps(g, v.cocycle)
    assert irreducible_projreps(g, Cochain2(g, v.cocycle.values.copy())) is first
    assert len(built) == 1
    assert not any(w.mats.flags.writeable for w in first)
    with pytest.raises(ValueError):
        first[0].mats[0, 0, 0] = 0
    irreducible_projreps(g, v.cocycle, seed=3)
    assert [w.dim for w in irreducible_projreps(g, trivial_cochain2(g))] == [1] * 4
    assert len(built) == 3


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
