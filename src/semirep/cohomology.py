"""2-cochains, cocycles and coboundaries on a finite group, valued in the circle.

Cocycles are stored as dense tables of unit-modulus complex numbers with the
normalization w(e, r) = w(r, e) = 1 enforced at construction. The cocycle law
and coboundaries are evaluated over the whole multiplication table in one
array expression: w[:, mult] is w(r, st) for every triple at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import TOL_BUILD, TOL_VERIFY, max_abs
from .errors import ValidationError
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
        if max_abs(np.abs(vals) - 1.0) > TOL_BUILD:
            raise ValidationError("2-cochain values must be unit modulus")
        if max_abs(np.concatenate((vals[e], vals[:, e])) - 1.0) > TOL_BUILD:
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
