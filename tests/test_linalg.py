import numpy as np
import pytest

from semirep._linalg import (hom_space_dim, module_hom_basis, nullity, nullspace,
                             sylvester_system)


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
    """The 729 Sylvester systems of E's module-route fusion cube."""
    from semirep.corep import tensor
    from semirep.mackey import classify
    coreps = [w.induced for w in classify(inst_e)]
    assert len(coreps) ** 3 == 729
    for w2 in coreps:
        for w3 in coreps:
            t = tensor(w2, w3).coeff_slices
            for w1 in coreps:
                system = sylvester_system(w1.coeff_slices, t)
                count = len(nullspace(system))
                assert nullity(system) == count
                assert hom_space_dim(w1.coeff_slices, t) == count
