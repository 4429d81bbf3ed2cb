"""Shared numerical helpers: tolerances, nullspaces, module homs, spectral splitting.

Module homs come from one dense solve, the nullspace of the stacked Sylvester
system; where only their number is needed, it comes from the singular values
alone (hom_space_dims). A family of such counts is batched: the systems of
equal shape are stacked along leading axes, at most SYSTEM_CELLS entries per
stack, and each stack's singular values come from one np.linalg.svd call,
which runs the same LAPACK routine on every matrix of the stack (batched
BLAS/LAPACK: Dongarra et al., Procedia Comput. Sci. 108, 2017). Every count
reads the same system, singular values and cutoff as a one-by-one count.
Callers stack only the slices of a corep's generators
(corep.Corep.coeff_slices): the slices are the images of the dual basis
elements f_a under an algebra map, and a matrix commutes with every image
exactly when it commutes with the images of generators of the algebra. So
each system has len(HopfData.generators()) row blocks, fewer than d where
comult is a table, with the same nullspace. The largest module split, the
regular one, never builds that system: its commutant is known in closed form
(corep.regular_corep), and only the small pieces it splits into are solved
for.
"""

from __future__ import annotations

import cmath
import random

import numpy as np

from .errors import IntegerRecoveryError, OracleDisagreement

# Tolerance ladder: constructions should be exact to TOL_BUILD, verified
# invariants hold to TOL_VERIFY, and fuzzy acceptance (equivalence tests on
# floating data) uses TOL_ACCEPT.
TOL_BUILD = 1e-12
TOL_VERIFY = 1e-9
TOL_ACCEPT = 1e-6
# A value above TOL_NONZERO counts as nonzero (phase gauges, orthogonality);
# an eigenvalue or singular value below TOL_DEGENERATE counts as degenerate.
TOL_NONZERO = 1e-8
TOL_DEGENERATE = 1e-10

# Relative cutoff below which a singular value counts as zero, for every
# nullspace and nullity.
RANK_RTOL = 1e-9
# Largest number of system entries (rows x columns, summed over the stack) that
# hom_space_dims hands one SVD call; a single larger system goes alone.
SYSTEM_CELLS = 2 ** 13
EIG_CLUSTER_TOL = 1e-7
INT_ROUND_TOL = 0.1
DEFAULT_SEED = 7


def as_int(value) -> int:
    """Round a float/complex known to be an integer, failing loudly otherwise
    (NaN and inf included)."""
    x = complex(value)
    if not (cmath.isfinite(x) and abs(x.real - round(x.real)) <= INT_ROUND_TOL
            and abs(x.imag) <= INT_ROUND_TOL):
        raise IntegerRecoveryError(f"value {x} is not within {INT_ROUND_TOL} of an integer")
    return int(round(x.real))


def as_ints(values) -> np.ndarray:
    """as_int on every entry of an array, as one int array of its shape.

    The test is as_int's, entry by entry, with the same INT_ROUND_TOL; a
    failing entry (NaN and inf included) is handed to as_int, so the first
    one in index order raises exactly what as_int raises for it.
    """
    x = np.asarray(values)
    n = np.round(x.real)
    ok = (np.abs(x.real - n) <= INT_ROUND_TOL) & (np.abs(x.imag) <= INT_ROUND_TOL)
    if not ok.all():
        as_int(x.reshape(-1)[np.argmin(ok.reshape(-1))])
    return n.astype(int)


def int_array(data) -> np.ndarray:
    """Read outside integer data (tables, permutations) without truncating.

    Raises ValueError unless every entry is an integer, so 2.9 is rejected
    instead of being read as 2.
    """
    arr = np.asarray(data)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"entries must be integers, not {arr.dtype}")
    return arr.astype(int)


def _rank(s: np.ndarray, rtol: float) -> np.ndarray:
    """Number of singular values (descending along the last axis) above
    rtol * max(1, largest), for every leading index."""
    return np.sum(s > rtol * np.maximum(1.0, s[..., :1]), axis=-1)


def nullspace(mat: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the nullspace of `mat`, as rows of the result."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    # vh needs completing only for a wide matrix, whose nullspace rows lie past
    # its singular values; U is never used.
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[_rank(s, rtol):].conj()


def nullity(mats: np.ndarray) -> np.ndarray:
    """len(nullspace(mat)) for each matrix of a (..., m, n) stack, from the
    singular values alone, all taken in one call."""
    mats = np.asarray(mats, dtype=complex)
    if mats.shape[-2] == 0 or mats.shape[-1] == 0:
        return np.full(mats.shape[:-2], mats.shape[-1])
    return mats.shape[-1] - _rank(np.linalg.svd(mats, compute_uv=False), RANK_RTOL)


def sylvester_system(mats1: np.ndarray, mats2: np.ndarray) -> np.ndarray:
    """The stacked system whose nullspace is {T : m2_a T = T m1_a for all a}.

    mats1 is (..., s, n1, n1) and mats2 is (..., s, n2, n2), with the same
    leading batch axes; the result is (..., s * n2 * n1, n2 * n1), one system
    per batch index. Row block a is m2_a (x) I - I (x) m1_a^T, the map
    vec(T) -> vec(m2_a T - T m1_a) on the row-major vec of n2 x n1 matrices,
    built for all slices in one broadcast: the entries are the products
    np.kron would form, so the system is the same to the bit.
    """
    *batch, s, n1, _ = mats1.shape
    n2 = mats2.shape[-1]
    system = mats2[..., :, :, None, :, None] * np.eye(n1)[:, None, :]
    system -= np.eye(n2)[:, None, :, None] * \
        mats1.swapaxes(-1, -2)[..., :, None, :, None, :]
    return system.reshape(*batch, s * n2 * n1, n2 * n1)


def module_hom_basis(mats1, mats2) -> list[np.ndarray]:
    """Basis of {T : T m1_a = m2_a T for all a}, i.e. homs of matrix families.

    mats1 acts on C^{n1}, mats2 on C^{n2}; returned T's are n2 x n1,
    orthonormal in the Hilbert-Schmidt inner product.
    """
    mats1 = np.asarray(mats1, dtype=complex)
    mats2 = np.asarray(mats2, dtype=complex)
    n1, n2 = mats1.shape[1], mats2.shape[1]
    return [vec.reshape(n2, n1) for vec in nullspace(sylvester_system(mats1, mats2))]


def compress_stack(mats: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^* m q for each matrix m of a (k, n, n) stack; q is n x m."""
    return np.conj(q).T @ mats @ q


def hom_space_dims(pairs) -> list[int]:
    """len(module_hom_basis(mats1, mats2)) for every (mats1, mats2) pair,
    without computing the bases.

    Pairs whose systems have the same shape are counted together, in stacks
    of at most SYSTEM_CELLS system entries (one system if it is larger), each
    stack's singular values in one call. An empty generator set, (0, n, n)
    as on the trivial algebra, counts every n2 x n1 matrix.
    """
    pairs = [(np.asarray(m1, dtype=complex), np.asarray(m2, dtype=complex))
             for m1, m2 in pairs]
    by_shape: dict[tuple, list[int]] = {}
    for i, (m1, m2) in enumerate(pairs):
        by_shape.setdefault((m1.shape, m2.shape), []).append(i)
    counts = [0] * len(pairs)
    for (shape1, shape2), idx in by_shape.items():
        cells = shape1[0] * (shape1[1] * shape2[1]) ** 2
        step = max(1, SYSTEM_CELLS // max(1, cells))
        for start in range(0, len(idx), step):
            part = idx[start:start + step]
            found = nullity(sylvester_system(np.stack([pairs[i][0] for i in part]),
                                             np.stack([pairs[i][1] for i in part])))
            for i, n in zip(part, found.tolist()):
                counts[i] = n
    return counts


def hom_space_dim(mats1, mats2) -> int:
    """hom_space_dims for the one pair (mats1, mats2)."""
    return hom_space_dims([(mats1, mats2)])[0]


def check_commutant(mats, comm) -> None:
    """Raise unless every element of comm commutes with every matrix in mats
    to TOL_VERIFY."""
    worst = max(max_abs(c @ mats - mats @ c) for c in comm)
    if worst > TOL_VERIFY:
        raise OracleDisagreement(
            f"commutant basis fails to commute by {worst:.2e}")


def hermitian_basis(basis: list[np.ndarray]) -> list[np.ndarray]:
    """Self-adjoint spanning set of a *-closed operator space."""
    out = []
    for t in basis:
        out.append((t + t.conj().T) / 2)
        out.append((t - t.conj().T) / 2j)
    return out


def random_selfadjoint(basis: list[np.ndarray], rng: random.Random) -> np.ndarray:
    acc = sum(complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) * t for t in basis)
    return (acc + acc.conj().T) / 2


def cluster_eigvals(vals: np.ndarray) -> list[np.ndarray]:
    """Indices of eigenvalues grouped by proximity (vals assumed real, sorted)."""
    order = np.argsort(vals)
    groups = [[order[0]]]
    for idx in order[1:]:
        if abs(vals[idx] - vals[groups[-1][-1]]) <= EIG_CLUSTER_TOL:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def split_invariant_subspaces(commutant: list[np.ndarray],
                              rng: random.Random) -> list[np.ndarray]:
    """Isometries onto the spectral subspaces of a random commutant element.

    Each returned Q is dim x m with orthonormal columns. A single round of
    splitting; `decompose` recurses until the commutant is trivial.
    """
    herm = hermitian_basis(commutant)
    r = random_selfadjoint(herm, rng)
    vals, vecs = np.linalg.eigh(r)
    return [vecs[:, g] for g in cluster_eigvals(vals)]


def decompose(x, comm, commutant, compress, equivalent, seed: int):
    """Pairwise-inequivalent irreducible pieces of x, with multiplicities.

    The block-diagonalisation of a matrix *-algebra (Murota, Kanno, Kojima and
    Kojima, Japan J. Indust. Appl. Math. 27, 2010): `comm` is a basis of the
    commutant of x, `commutant(piece)` one of a piece's commutant and
    `compress(x, q)` the piece on the range of an isometry q. Pieces are split
    by a random self-adjoint commutant element until the commutant is
    trivial, then grouped by `equivalent(a, b)`. The random elements are
    drawn from the standard library's generator seeded with `seed`. Returns a
    list of (piece, multiplicity).
    """
    rng = random.Random(seed)
    factors = []
    stack = [(x, comm)]
    while stack:
        cur, comm = stack.pop()
        if len(comm) == 1:
            factors.append(cur)
            continue
        for q in split_invariant_subspaces(comm, rng):
            piece = compress(cur, q)
            stack.append((piece, commutant(piece)))
    grouped = []
    for f in factors:
        for i, (g0, mult) in enumerate(grouped):
            if equivalent(g0, f):
                grouped[i] = (g0, mult + 1)
                break
        else:
            grouped.append((f, 1))
    return grouped


def char_sort_key(dim: int, chi: np.ndarray):
    """Canonical order of irreducibles: by dimension, then rounded character."""
    chi = np.round(chi, 6)
    return (dim, tuple((c.real, c.imag) for c in chi))


def first_entry_phase(mat: np.ndarray):
    """Phase of the first row-major entry above TOL_NONZERO."""
    flat = mat.reshape(-1)
    for entry in flat:
        if abs(entry) > TOL_NONZERO:
            return entry / abs(entry)


def nan_as_inf(worst):
    """Residuals with NaN read as inf, so that a NaN fails every check (NaN > tol is False)."""
    return np.where(np.isnan(worst), np.inf, worst)


def max_abs(arr) -> float:
    arr = np.asarray(arr)
    return float(nan_as_inf(np.max(np.abs(arr)))) if arr.size else 0.0


def max_abs_each(arr: np.ndarray) -> np.ndarray:
    """max_abs(arr[r]) for every r along the first axis at once."""
    return nan_as_inf(np.abs(arr).reshape(len(arr), -1).max(axis=1))


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[r], b[r]) for every r of two stacks of square matrices."""
    n = a.shape[1] * b.shape[1]
    return np.einsum("rab,rij->raibj", a, b).reshape(-1, n, n)
