import numpy as np
import pytest

from semirep import _linalg
from semirep._linalg import (INT_ROUND_TOL, as_int, as_ints, hom_space_dims, module_hom_basis,
                             nullity, nullspace, sylvester_system)
from semirep.errors import IntegerRecoveryError


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
                assert hom_space_dims([(w1.coeff_slices, t)])[0] == count
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
    assert [hom_space_dims([(m1, m2)])[0] for m1, m2 in pairs] == want
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


@pytest.mark.parametrize("arr", [
    np.array([[1.0, -np.inf], [2.0, np.nan]]), np.array([3 - 4j, -1j, np.nan + 0j]),
    np.array([-7, 2]), np.array([True, False]), np.array(-2.5), np.arange(12.0) - 11])
def test_max_abs_equals_the_array_reduction(arr):
    """The Python-level NaN test gives what nan_as_inf gives on the array."""
    got = _linalg.max_abs(arr)
    assert type(got) is float
    assert got == float(_linalg.nan_as_inf(np.max(np.abs(arr))))


# integers, near-integers on either side, values just inside and just outside
# the tolerance, halves, complex values with a small and a large imaginary
# part, NaN and inf
INT_CASES = [0, -3, 7.0, 2 - 1e-12, -4 + 1e-9, 5 + 0.09, 5 - 0.0999, 3.1, 2.9, 0.5, 2.5,
             -1.5, 4 + INT_ROUND_TOL * (1 + 1e-9), 1 + 0.05j, 1 + 0.1j, -2 + 0.2j,
             3 - 0.3j, 0.4 + 0.4j]
NON_FINITE = [np.nan, complex(np.nan, 0), complex(1, np.nan), np.inf, -np.inf,
              complex(1, np.inf)]
INT_CASES += NON_FINITE


def _outcome(fn, value):
    """fn's value, or the type and message of what it raised."""
    try:
        return int(fn(value))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("value", INT_CASES)
def test_as_ints_matches_as_int_on_each_value(value):
    assert _outcome(lambda x: as_ints(np.array([x]))[0], value) == _outcome(as_int, value)
    assert _outcome(lambda x: as_ints(np.array([[x]], dtype=complex))[0, 0], value) \
        == _outcome(as_int, complex(value))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_values_raise_integer_recovery_error(value):
    """A NaN or inf part is no integer: as_int and as_ints raise the error
    that cli.main turns into exit code 1, not ValueError or OverflowError."""
    message = f"value {complex(value)} is not within {INT_ROUND_TOL} of an integer"
    for fn in (as_int, lambda x: as_ints(np.array([x]))):
        with pytest.raises(IntegerRecoveryError) as info:
            fn(value)
        assert str(info.value) == message


def test_as_ints_keeps_shape_and_raises_for_the_first_failure():
    good = [v for v in INT_CASES if not isinstance(_outcome(as_int, v), tuple)]
    arr = np.array(good * 2, dtype=complex).reshape(2, -1)
    got = as_ints(arr)
    assert got.dtype.kind == "i" and got.shape == arr.shape
    assert got.tolist() == [[as_int(v) for v in row] for row in arr]
    # two failures: row-major order decides which one is reported
    arr[1, 0], arr[0, -1] = 0.5, 1 + 0.2j
    with pytest.raises(Exception) as info:
        as_ints(arr)
    assert (type(info.value), str(info.value)) == _outcome(as_int, 1 + 0.2j)
