"""Module homs over a certified generating set of the dual algebra.

Every module-hom system and commutant check stacks only the coefficient
slices of HopfData.generators(). A matrix commutes with the image of an
algebra exactly when it commutes with the images of its generators, so the
counts must equal those of the same systems over all d slices
(tests/helpers.py) on every instance.
"""

import numpy as np
import pytest

from semirep import _linalg, corep
from semirep.corep import irr_enumerate, mor_dim
from semirep.errors import ValidationError
from semirep.groups import cyclic_group
from semirep.hopf import function_algebra, generating_subset
from semirep.mackey import classify
from semirep.oracle import module_fusion_cube, oracle_irr_dims

from helpers import (all_slice_module_fusion_cube, all_slice_mor_dim,
                     all_slice_oracle_irr_dims, dense, fresh, spy)

CASES = [*"ABCDEFGH", "rung"]

# Greedy by index; the dual of a group-algebra base (C, D, H) is commutative
# and spanned by idempotents, so it needs nearly every index.
GENERATOR_COUNTS = {"A": 2, "B": 3, "C": 11, "D": 11, "E": 4, "F": 4, "G": 4,
                    "H": 16, "rung": 4}


def _instance(case, request):
    name = "rung_instance" if case == "rung" else f"inst_{case.lower()}"
    return request.getfixturevalue(name)


@pytest.mark.parametrize("case", CASES)
def test_generators_are_greedy_and_certified(case, request):
    h = _instance(case, request).product
    gens = h.generators()
    assert len(gens) == GENERATOR_COUNTS[case]
    assert list(gens) == sorted(set(gens.tolist()))
    assert h.generators() is gens
    assert np.array_equal(fresh(h).generators(), gens)
    # the greedy pass over the set keeps all of it, and over the indices in
    # reverse order it finds another certified set
    assert np.array_equal(generating_subset(h, gens), gens)
    assert len(generating_subset(h, range(h.dim)[::-1]))


@pytest.mark.parametrize("case", ["A", "C", "E", "H", "rung"])
def test_non_generating_set_fails_certification(case, request):
    h = _instance(case, request).product
    gens = h.generators()
    # the last greedy choice lies outside the subalgebra the others generate
    with pytest.raises(ValidationError, match="generate a subalgebra of dimension"):
        generating_subset(h, gens[:-1])
    with pytest.raises(ValidationError, match=f"dimension 1 < {h.dim}"):
        generating_subset(h, [])


@pytest.mark.parametrize("case", CASES)
def test_mor_dim_over_generators_equals_all_slices(case, request):
    irreps = irr_enumerate(_instance(case, request).product)
    for u in irreps:
        for w in irreps:
            assert mor_dim(u, w) == all_slice_mor_dim(u, w)


@pytest.mark.parametrize("case", CASES)
def test_module_cube_over_generators_equals_all_slices(case, request):
    coreps = [w.induced for w in classify(_instance(case, request))]
    assert np.array_equal(module_fusion_cube(coreps), all_slice_module_fusion_cube(coreps))


@pytest.mark.parametrize("case", CASES)
def test_oracle_dims_over_generators_equal_all_slices(case, request):
    h = _instance(case, request).product
    assert oracle_irr_dims(h, 7) == all_slice_oracle_irr_dims(h, 7)


def test_one_dimensional_algebra_needs_no_generators():
    """A^ = C is its unit alone: every stack is empty and every map a hom."""
    h = function_algebra(cyclic_group(1))
    assert h.generators().shape == (0,)
    assert generating_subset(h, []).shape == (0,)
    (u,) = irr_enumerate(h)
    assert u.coeff_slices.shape == (0, 1, 1)
    assert mor_dim(u, u) == 1
    assert oracle_irr_dims(h) == [1]
    assert module_fusion_cube([u]).tolist() == [[[1]]]


def test_every_system_stacks_only_generator_slices(inst_e, monkeypatch):
    h = fresh(inst_e.product)
    count = len(h.generators())
    assert (count, h.dim) == (4, 36)
    commutants = spy(monkeypatch, corep, "check_commutant")
    systems = spy(monkeypatch, _linalg, "sylvester_system")

    irreps = irr_enumerate(h)
    module_fusion_cube(irreps[:3])
    mor_dim(irreps[0], irreps[1])

    # a call builds one system per index of the leading batch axes
    assert len(commutants) == 1
    assert sum(int(np.prod(out.shape[:-2])) for _, out in systems) > 27
    (slices, comm), _ = commutants[0]
    assert slices.shape == (count, h.dim, h.dim) and len(comm) == h.dim
    for (mats1, mats2), _ in systems:
        assert mats1.shape[-3] == mats2.shape[-3] == count
        assert mats1.shape[:-3] == mats2.shape[:-3]


@pytest.mark.parametrize("case", CASES)
def test_sparse_product_equals_einsum(case, request):
    h = _instance(case, request).product
    rng = np.random.default_rng(11)
    for _ in range(5):
        x, y = rng.standard_normal((2, h.dim)) + 1j * rng.standard_normal((2, h.dim))
        want = np.einsum("i,j,ijk->k", x, y, dense(h, "mult"))
        assert np.max(np.abs(h.product(x, y) - want)) <= 1e-12
