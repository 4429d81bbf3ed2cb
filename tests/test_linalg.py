import numpy as np
import pytest

from semirep import _linalg
from semirep._linalg import (hom_space_dim, hom_space_dims, module_hom_basis, nullity,
                             nullspace, sylvester_system)


def kron_system(mats1, mats2):
    """The stacked Sylvester system built one np.kron pair per slice."""
    eye1, eye2 = np.eye(mats1[0].shape[0]), np.eye(mats2[0].shape[0])
    return np.vstack([np.kron(m2, eye1) - np.kron(eye2, m1.T)
                      for m1, m2 in zip(mats1, mats2)])


def random_family(rng, count, n):
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for _ in range(count)]


@pytest.mark.parametrize("count,n1,n2", [(1, 1, 3), (3, 2, 5), (7, 4, 3), (5, 6, 2)])
def test_sylvester_system_equals_kron_blocks(count, n1, n2):
    rng = np.random.default_rng(count * 100 + n1 * 10 + n2)
    mats1 = random_family(rng, count, n1)
    mats2 = random_family(rng, count, n2)
    mats1[0][0, 0] = complex(-0.0, 0.0)  # signed zeros must come out the same too
    want = kron_system(mats1, mats2)
    got = sylvester_system(np.stack(mats1), np.stack(mats2))
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_module_hom_basis_solves_the_sylvester_equations():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_family(rng, 1, 4)[0])
    blocks = random_family(rng, 6, 2)
    # mats2 = q (b (+) b) q^*, so Hom(b, mats2) is two-dimensional
    mats2 = [q @ np.kron(np.eye(2), b) @ q.conj().T for b in blocks]
    basis = module_hom_basis(blocks, mats2)
    assert len(basis) == 2
    for t in basis:
        assert t.shape == (4, 2)
        for b, m in zip(blocks, mats2):
            assert np.max(np.abs(t @ b - m @ t)) < 1e-9


@pytest.mark.parametrize("rows,cols,rank", [(12, 5, 3), (5, 5, 2), (3, 7, 3), (2, 6, 1)])
def test_nullspace_tall_and_wide(rows, cols, rank):
    """Tall and wide matrices both return an orthonormal basis of the full
    nullspace, cols - rank rows."""
    rng = np.random.default_rng(rows * 10 + cols)
    mat = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) \
        @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
    basis = nullspace(mat)
    assert basis.shape == (cols - rank, cols)
    assert np.allclose(basis @ basis.conj().T, np.eye(cols - rank), atol=1e-12)
    assert np.max(np.abs(mat @ basis.T)) < 1e-10


@pytest.mark.parametrize("rows,cols,rank", [(12, 5, 3), (5, 5, 2), (3, 7, 3), (2, 6, 1),
                                            (6, 4, 4), (4, 6, 0)])
def test_nullity_counts_the_nullspace(rows, cols, rank):
    """nullity reads the same singular values and cutoff as nullspace."""
    rng = np.random.default_rng(rows * 10 + cols + 1)
    mat = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) \
        @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
    assert nullity(mat) == len(nullspace(mat)) == cols - rank


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_nullity_of_empty_matrices(shape):
    mat = np.zeros(shape, dtype=complex)
    assert nullity(mat) == len(nullspace(mat)) == shape[1]


def test_nullity_on_the_module_cube_of_e(inst_e):
    """The 729 Sylvester systems of E's module-route fusion cube, counted one
    by one and in batches."""
    from semirep.corep import tensor
    from semirep.mackey import classify
    from semirep.oracle import module_fusion_cube
    coreps = [w.induced for w in classify(inst_e)]
    assert len(coreps) ** 3 == 729
    pairs, counts = [], []
    for w2 in coreps:
        for w3 in coreps:
            t = tensor(w2, w3).coeff_slices
            for w1 in coreps:
                system = sylvester_system(w1.coeff_slices, t)
                count = len(nullspace(system))
                assert nullity(system) == count
                assert hom_space_dim(w1.coeff_slices, t) == count
                pairs.append((w1.coeff_slices, t))
                counts.append(count)
    assert hom_space_dims(pairs) == counts
    k = len(coreps)
    cube = np.array(counts).reshape(k, k, k).transpose(2, 0, 1)
    assert np.array_equal(module_fusion_cube(coreps), cube)


def _mixed_pairs(rng):
    """Generator-slice families of several shapes, empty ones included, some
    with a nonzero hom space (mats2 holds a copy of mats1)."""
    pairs = []
    for s, n1, n2 in [(2, 1, 1), (3, 2, 3), (0, 2, 3), (2, 1, 1), (1, 3, 2),
                      (0, 2, 3), (3, 2, 3), (2, 2, 4), (0, 1, 1), (2, 2, 4)]:
        mats1 = np.stack(random_family(rng, s, n1)) if s else np.zeros((0, n1, n1))
        mats2 = np.stack(random_family(rng, s, n2)) if s else np.zeros((0, n2, n2))
        if s and n2 >= n1:
            mats2[:, :n1, :n1] = mats1
            mats2[:, :n1, n1:] = 0
            mats2[:, n1:, :n1] = 0
        pairs.append((mats1, mats2))
    return pairs


@pytest.mark.parametrize("cells", [1, 7, _linalg.SYSTEM_CELLS])
def test_batched_counts_equal_one_by_one(cells, monkeypatch):
    """Every batch size, from one system per call up, gives the one-by-one
    counts, in the order of the pairs."""
    pairs = _mixed_pairs(np.random.default_rng(3))
    want = [int(nullity(sylvester_system(m1.astype(complex), m2.astype(complex))))
            for m1, m2 in pairs]
    assert want[2] == 6 and want[8] == 1 and want[1] == 1
    calls = []
    monkeypatch.setattr(_linalg, "SYSTEM_CELLS", cells)
    monkeypatch.setattr(_linalg, "nullity", lambda m: calls.append(m.shape) or nullity(m))
    assert hom_space_dims(pairs) == want
    assert [hom_space_dim(m1, m2) for m1, m2 in pairs] == want
    for shape in calls[:-len(pairs)]:
        assert shape[0] == 1 or shape[0] * shape[1] * shape[2] <= cells


@pytest.mark.parametrize("rows,cols", [(11, 1), (44, 4), (64, 16), (256, 64)])
def test_stacked_singular_values_equal_one_matrix_calls(rows, cols):
    rng = np.random.default_rng(rows + cols)
    stack = rng.standard_normal((5, rows, cols)) + 1j * rng.standard_normal((5, rows, cols))
    stack[1] = stack[0]  # a repeated matrix and a rank-deficient one
    stack[2, :, -1] = stack[2, :, 0]
    together = np.linalg.svd(stack, compute_uv=False)
    for mat, s in zip(stack, together):
        assert np.array_equal(s, np.linalg.svd(mat, compute_uv=False))


def test_stacked_sylvester_systems_equal_single_ones():
    rng = np.random.default_rng(8)
    mats1 = rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2))
    mats2 = rng.standard_normal((4, 3, 3, 3)) + 1j * rng.standard_normal((4, 3, 3, 3))
    together = sylvester_system(mats1, mats2)
    assert together.shape == (4, 3 * 3 * 2, 3 * 2)
    for m1, m2, system in zip(mats1, mats2, together):
        assert system.tobytes() == sylvester_system(m1, m2).tobytes()


def test_nan_residual_reads_as_inf():
    """NaN > tol is False, so a NaN residual would pass its check."""
    arr = np.array([[1.0, np.nan], [2.0, -3.0]])
    assert _linalg.max_abs(arr) == np.inf
    assert _linalg.max_abs_each(arr).tolist() == [np.inf, 3.0]
    assert _linalg.max_abs(np.zeros(0)) == 0.0
