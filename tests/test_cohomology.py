import numpy as np
import pytest

from semirep._linalg import TOL_BUILD
from semirep.cohomology import (Cochain1, Cochain2, coboundary, cocycle_inverse,
                                cocycle_product, is_cocycle, trivial_cochain2)
from semirep.errors import ValidationError
from semirep.groups import cyclic_group, direct_product
from semirep.projective import irreducible_projreps, ordinary_rep


def klein_group():
    return direct_product(cyclic_group(2), cyclic_group(2))


def pauli_cocycle():
    """The standard nontrivial cocycle on Z2 x Z2 from the Pauli projective rep.

    Elements indexed (a, b) -> 2a + b; V(a, b) = X^a Z^b gives
    w((a,b),(c,d)) = (-1)^{bc}.
    """
    g = klein_group()
    vals = np.ones((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    vals[2 * a + b, 2 * c + d] = (-1.0) ** (b * c)
    return Cochain2(g, vals)


def test_constant_one_is_cocycle():
    g = klein_group()
    ok, res, _ = is_cocycle(trivial_cochain2(g))
    assert ok and res < 1e-15


def test_random_phases_fail_with_witness():
    g = klein_group()
    rng = np.random.default_rng(3)
    vals = np.exp(2j * np.pi * rng.random((4, 4)))
    vals[g.identity, :] = 1.0
    vals[:, g.identity] = 1.0
    ok, res, triple = is_cocycle(Cochain2(g, vals))
    assert not ok
    assert triple is not None and res > 1e-3


def test_pauli_cocycle_is_cocycle():
    ok, res, _ = is_cocycle(pauli_cocycle())
    assert ok, res


def test_coboundary_of_trivial_and_characters():
    g = cyclic_group(3)
    b = Cochain1(g, np.ones(3))
    assert np.allclose(coboundary(b).values, 1.0)
    # characters of Z3 are in ker(delta)
    for k in range(3):
        chi = Cochain1(g, np.exp(2j * np.pi * k * np.arange(3) / 3))
        assert np.allclose(coboundary(chi).values, 1.0, atol=1e-12)


def test_coboundary_random_is_cocycle():
    g = klein_group()
    rng = np.random.default_rng(11)
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[g.identity] = 1.0
    b = Cochain1(g, phases)
    ok, res, _ = is_cocycle(coboundary(b))
    assert ok and res <= 1e-12, res


def test_delta_is_group_morphism():
    g = klein_group()
    rng = np.random.default_rng(5)
    for _ in range(5):
        p1 = np.exp(2j * np.pi * rng.random(4))
        p2 = np.exp(2j * np.pi * rng.random(4))
        p1[g.identity] = p2[g.identity] = 1.0
        b1, b2 = Cochain1(g, p1), Cochain1(g, p2)
        b12 = Cochain1(g, p1 * p2)
        lhs = coboundary(b12).values
        rhs = coboundary(b1).values * coboundary(b2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cocycle_ops():
    w = pauli_cocycle()
    assert np.allclose(cocycle_product(w, cocycle_inverse(w)).values, 1.0)
    assert np.allclose(cocycle_inverse(trivial_cochain2(w.group)).values, 1.0)


def test_trivial_class_criterion():
    """[w] = 1 iff some irreducible w-projective rep is one-dimensional; on
    the abelian Klein group, independently, iff w(r, s) = w(s, r) for all r, s."""
    g = klein_group()
    rng = np.random.default_rng(2)
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[g.identity] = 1.0
    cases = [(pauli_cocycle(), False), (trivial_cochain2(g), True),
             # a coboundary with irrational phases is still trivial
             (coboundary(Cochain1(g, phases)), True)]
    for omega, trivial in cases:
        assert any(v.dim == 1 for v in irreducible_projreps(g, omega)) == trivial
        symmetric = np.max(np.abs(omega.values - omega.values.T)) < 1e-12
        assert symmetric == trivial


def test_cochain_validation():
    g = cyclic_group(2)
    with pytest.raises(ValidationError):
        Cochain1(g, np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        Cochain2(g, np.array([[1.0, -1.0], [1.0, 1.0]]))


def test_cochain2_validation_messages():
    g = cyclic_group(3)
    ones = np.ones((3, 3), dtype=complex)
    Cochain2(g, ones + 0.9 * TOL_BUILD)
    off_modulus = ones.copy()
    off_modulus[1, 2] = 1.0 + 2 * TOL_BUILD
    with pytest.raises(ValidationError, match="unit modulus"):
        Cochain2(g, off_modulus)
    for row, col in ((0, 1), (2, 0)):
        unnormalized = ones.copy()
        unnormalized[row, col] = np.exp(1j * 4 * TOL_BUILD)
        with pytest.raises(ValidationError, match="normalized"):
            Cochain2(g, unnormalized)


def test_trivial_cochain2_is_built_once_per_group():
    g = klein_group()
    omega = trivial_cochain2(g)
    assert trivial_cochain2(g) is omega
    assert np.array_equal(omega.values, np.ones((4, 4)))
    assert not omega.values.flags.writeable
    mats = np.stack([np.eye(2, dtype=complex)] * 4)
    assert ordinary_rep(g, mats).cocycle is omega
    assert trivial_cochain2(klein_group()) is not omega


def test_cochain2_with_a_nan_value_is_not_unit_modulus():
    """A NaN in the table fails the modulus check; a raw max over the table
    compared NaN > TOL_BUILD, which is False, and accepted it."""
    with pytest.raises(ValidationError, match="2-cochain values must be unit modulus"):
        Cochain2(cyclic_group(2), np.array([[1, 1], [1, np.nan]]))
