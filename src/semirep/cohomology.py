"""2-cochains, cocycles and coboundaries on a finite group, valued in the circle.

Cocycles are stored as dense tables of unit-modulus complex numbers with the
normalization w(e, r) = w(r, e) = 1 enforced at construction. The cocycle law
and coboundaries are evaluated over the whole multiplication table in one
array expression: w[:, mult] is w(r, st) for every triple at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import TOL_ACCEPT, TOL_BUILD, TOL_VERIFY, max_abs
from .errors import NotRootsOfUnity, ValidationError
from .groups import FiniteGroup


@dataclass(frozen=True, eq=False)
class Cochain1:
    group: FiniteGroup
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.group.order,):
            raise ValidationError("1-cochain needs one value per group element")
        if max_abs(np.abs(vals) - 1.0) > TOL_BUILD:
            raise ValidationError("1-cochain values must be unit modulus")
        if abs(vals[self.group.identity] - 1.0) > TOL_BUILD:
            raise ValidationError("1-cochain must send the identity to 1")

    def __call__(self, r: int) -> complex:
        return complex(self.values[r])


@dataclass(frozen=True, eq=False)
class Cochain2:
    group: FiniteGroup
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        n = self.group.order
        if vals.shape != (n, n):
            raise ValidationError("2-cochain needs an n x n table")
        # one pass over the table, then the row and column of the identity
        e = self.group.identity
        if np.abs(np.abs(vals) - 1.0).max() > TOL_BUILD:
            raise ValidationError("2-cochain values must be unit modulus")
        if np.abs(np.concatenate((vals[e], vals[:, e])) - 1.0).max() > TOL_BUILD:
            raise ValidationError("2-cochain must be normalized: w(e,.) = w(.,e) = 1")

    def __call__(self, r: int, s: int) -> complex:
        return complex(self.values[r, s])


def trivial_cochain2(group: FiniteGroup) -> Cochain2:
    """The all-ones 2-cocycle, built and validated once per group; its table
    is read-only."""
    if "trivial_cochain2" not in group._cache:
        ones = np.ones((group.order, group.order), dtype=complex)
        ones.flags.writeable = False
        group._cache["trivial_cochain2"] = Cochain2(group, ones)
    return group._cache["trivial_cochain2"]


def is_cocycle(omega: Cochain2):
    """Check w(r,st)w(s,t) = w(r,s)w(rs,t) for all triples.

    Returns (ok, worst_residual, worst_triple); the triple is the first
    (lexicographic) one attaining the worst residual, None if all vanish.
    """
    w = omega.values
    t = omega.group.mult
    res = np.abs(w[:, t] * w[None] - w[:, :, None] * w[t])
    worst = float(res.max())
    triple = tuple(int(x) for x in np.unravel_index(res.argmax(), res.shape))
    return worst <= TOL_VERIFY, worst, triple if worst > 0 else None


def coboundary(b: Cochain1) -> Cochain2:
    """(delta b)(r, s) = b(r) b(s) / b(rs)."""
    v = b.values
    return Cochain2(b.group, v[:, None] * v[None] / v[b.group.mult])


def cocycle_inverse(omega: Cochain2) -> Cochain2:
    return Cochain2(omega.group, np.conj(omega.values))


def cocycle_product(o1: Cochain2, o2: Cochain2) -> Cochain2:
    if o1.group is not o2.group and o1.group != o2.group:
        raise ValidationError("cocycle product requires the same group")
    return Cochain2(o1.group, o1.values * o2.values)


# -- coboundary solving over m-th roots of unity -------------------------------

def _snf_with_transforms(a: np.ndarray):
    """Smith normal form D = U A V over the integers, returning (D, U, V)."""
    a = a.copy().astype(object)
    rows, cols = a.shape
    u = np.eye(rows, dtype=object)
    v = np.eye(cols, dtype=object)

    def swap_rows(i, j):
        a[[i, j], :] = a[[j, i], :]
        u[[i, j], :] = u[[j, i], :]

    def swap_cols(i, j):
        a[:, [i, j]] = a[:, [j, i]]
        v[:, [i, j]] = v[:, [j, i]]

    def add_row(i, j, q):  # row_i += q * row_j
        a[i, :] += q * a[j, :]
        u[i, :] += q * u[j, :]

    def add_col(i, j, q):  # col_i += q * col_j
        a[:, i] += q * a[:, j]
        v[:, i] += q * v[:, j]

    t = 0
    while t < min(rows, cols):
        # find a pivot of minimal absolute value in the remaining block
        sub = [(abs(a[i, j]), i, j) for i in range(t, rows) for j in range(t, cols)
               if a[i, j] != 0]
        if not sub:
            break
        _, pi, pj = min(sub)
        swap_rows(t, pi)
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            if a[i, t] != 0:
                q = -(a[i, t] // a[t, t])
                add_row(i, t, q)
                if a[i, t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t, j] != 0:
                q = -(a[t, j] // a[t, t])
                add_col(j, t, q)
                if a[t, j] != 0:
                    dirty = True
        if dirty:
            continue
        if a[t, t] < 0:
            a[t, :] *= -1
            u[t, :] *= -1
        t += 1
    return a, u, v


def _solve_integer_system(a: np.ndarray, rhs: np.ndarray):
    """One integer solution x of A x = rhs, or None."""
    d, u, v = _snf_with_transforms(np.asarray(a, dtype=object))
    target = u @ np.asarray(rhs, dtype=object)
    rows, cols = d.shape
    y = np.zeros(cols, dtype=object)
    for i in range(rows):
        dii = d[i, i] if i < cols else 0
        if dii == 0:
            if i >= cols or target[i] != 0:
                if target[i] != 0:
                    return None
            continue
        if target[i] % dii != 0:
            return None
        y[i] = target[i] // dii
    # rows beyond cols must have zero rhs
    for i in range(cols, rows):
        if target[i] != 0:
            return None
    return v @ y


def try_solve_coboundary(omega: Cochain2, m: int) -> Cochain1 | None:
    """Best-effort coboundary solve within m-th roots of unity.

    All omega values must be within TOL_ACCEPT of m-th roots of unity. Returns a
    Cochain1 b with delta(b) = omega and b valued in m-th roots, or None if no
    such b exists. Absence does not decide the cohomology class in general.
    """
    g = omega.group
    n = g.order
    theta = np.angle(omega.values) * m / (2 * np.pi)
    theta_int = np.round(theta).astype(int) % m
    snapped = np.exp(2j * np.pi * theta_int / m)
    if max_abs(snapped - omega.values) > TOL_ACCEPT:
        raise NotRootsOfUnity(f"cocycle values are not {m}-th roots of unity")

    # Unknowns: beta_r (r != e) in Z, gamma per equation absorbing mod m.
    # Equation per (r, s): beta_r + beta_s - beta_{rs} + m*gamma = theta(r, s).
    e = g.identity
    var_of = {r: i for i, r in enumerate(x for x in g.elements() if x != e)}
    pairs = [(r, s) for r in g.elements() for s in g.elements()]
    n_beta = n - 1
    a = np.zeros((len(pairs), n_beta + len(pairs)), dtype=object)
    rhs = np.zeros(len(pairs), dtype=object)
    for k, (r, s) in enumerate(pairs):
        rs = g.mul(r, s)
        for elem, sign in ((r, 1), (s, 1), (rs, -1)):
            if elem != e:
                a[k, var_of[elem]] += sign
        a[k, n_beta + k] = m
        rhs[k] = int(theta_int[r, s])
    sol = _solve_integer_system(a, rhs)
    if sol is None:
        return None
    beta = np.zeros(n, dtype=int)
    for r, i in var_of.items():
        beta[r] = int(sol[i]) % m
    vals = np.exp(2j * np.pi * beta / m)
    b = Cochain1(g, vals)
    # paranoia: the construction is exact, but verify anyway
    if max_abs(coboundary(b).values - snapped) > TOL_VERIFY:
        return None
    return b


def is_trivial_class(omega: Cochain2, projreps=None) -> bool:
    """Whether [omega] = 1 in H^2(G, T).

    Exact criterion: the class is trivial iff the twisted group algebra admits
    a one-dimensional representation. Callers that already enumerated the
    omega-projective irreducibles can pass them to avoid recomputation.
    """
    if projreps is None:
        from .projective import irreducible_projreps
        projreps = irreducible_projreps(omega.group, omega)
    return any(v.dim == 1 for v in projreps)
