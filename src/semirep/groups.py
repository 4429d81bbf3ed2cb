"""Finite groups as multiplication tables, with 0-based element indices.

Everything downstream (cosets, stabilizers, conjugate intersections) works
on dense index tables; the largest group in use, S5, has 120 elements.

`Subgroup.to_local` is the one map from elements of a group to the local
indices of a subgroup. Restriction, translation by conjugation and zero
extension of coreps, projective representations and cocycles are each one
indexing of an axis by an array it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .errors import NotAGroup, ValidationError


class FiniteGroup:
    """A finite group given by its multiplication table.

    Elements are indices 0..order-1; ``mult[r, s]`` is the index of r*s.
    """

    def __init__(self, mult):
        table = np.asarray(mult, dtype=int)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup(f"multiplication table must be square, got {table.shape}")
        self.order = int(table.shape[0])
        self.mult = table
        self._validate()
        # An associative Latin square is a group, so the identity (the row
        # that fixes every element) and each inverse exist.
        span = np.arange(self.order)
        self.identity = int(np.flatnonzero((table == span).all(axis=1))[0])
        self.inv = np.argmax(table == self.identity, axis=1)
        # artifacts built once per group: Subgroup.group tables keyed by
        # their elements, and the trivial 2-cocycle
        self._cache: dict = {}

    def _validate(self):
        n = self.order
        t = self.mult
        if t.min() < 0 or t.max() >= n:
            raise NotAGroup("table entries out of range")
        span = np.arange(n)
        bad = np.flatnonzero((np.sort(t, axis=1) != span).any(axis=1)
                             | (np.sort(t, axis=0) != span[:, None]).any(axis=0))
        if len(bad):
            raise NotAGroup(f"row/column {bad[0]} of table is not a permutation")
        # (ab)c against a(bc) for all triples at once; argwhere lists the
        # failures in lexicographic order
        fails = np.argwhere(t[t] != t[:, t])
        if len(fails):
            a, b, c = fails[0]
            raise NotAGroup(f"associativity fails at triple ({a}, {b}, {c})")

    def mul(self, r: int, s: int) -> int:
        return int(self.mult[r, s])

    def inverse(self, r: int) -> int:
        return int(self.inv[r])

    def conjugate(self, r: int, h):
        """r h r^{-1}, for an element h or a sequence of them (as an array)."""
        out = self.mult[self.mult[r, h], self.inv[r]]
        return out if np.ndim(out) else int(out)

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, r: int) -> int:
        x, n = r, 1
        while x != self.identity:
            x = self.mul(x, r)
            n += 1
        return n

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(self.mult, other.mult)

    def __hash__(self):
        return hash(self.mult.tobytes())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with elements enumerated as permutation tuples in lexicographic order.

    Composition convention: (p*q)(x) = p(q(x)).
    """
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    size = len(elems)
    table = np.zeros((size, size), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return FiniteGroup(table)


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n; element (i, j) = rot^i flip^j is packed as i + n*j."""
    table = np.zeros((2 * n, 2 * n), dtype=int)
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    i = (i1 + (i2 if j1 == 0 else -i2)) % n
                    j = (j1 + j2) % 2
                    table[i1 + n * j1, i2 + n * j2] = i + n * j
    return FiniteGroup(table)


def quaternion_group() -> FiniteGroup:
    """Q8 with elements 1, -1, i, -i, j, -j, k, -k in that order."""
    # encode q = (sign, axis) with axis in {1, i, j, k}
    def mul(a, b):
        sa, xa = 1 - 2 * (a % 2), a // 2
        sb, xb = 1 - 2 * (b % 2), b // 2
        prod = {  # axis multiplication table with result sign
            (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
            (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
            (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
            (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
        }
        sign, axis = prod[(xa, xb)]
        sign *= sa * sb
        return 2 * axis + (0 if sign > 0 else 1)

    table = np.array([[mul(a, b) for b in range(8)] for a in range(8)])
    return FiniteGroup(table)


def automorphisms(g: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms, as permutation arrays, in the lexicographic order of
    their images of full_subgroup(g).generators(). Each choice of images of
    matching element orders is carried along a spanning tree x = y gen grown
    from the identity, and kept if it is a bijection preserving g.mult. The
    tree reaches each generator straight from the identity, so distinct
    choices give distinct maps."""
    gens = full_subgroup(g).generators()
    orders = np.array([g.element_order(x) for x in g.elements()])
    # (x, y, k) with x = y gens[k], breadth first: the loop visits what it appends
    queue, tree = [g.identity], []
    for y in queue:
        for k, gen in enumerate(gens):
            x = g.mul(y, gen)
            if x not in queue:
                queue.append(x)
                tree.append((x, y, k))
    results = []
    for images in product(*(np.flatnonzero(orders == orders[gen]) for gen in gens)):
        perm = np.full(g.order, g.identity)
        for x, y, k in tree:
            perm[x] = g.mult[perm[y], images[k]]
        if (np.array_equal(np.sort(perm), np.arange(g.order))
                and np.array_equal(perm[g.mult], g.mult[perm[:, None], perm])):
            results.append(perm)
    return results


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Product group; element (a, b) is packed as a*|G2| + b."""
    n1, n2 = g1.order, g2.order
    table = np.zeros((n1 * n2, n1 * n2), dtype=int)
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[a1 * n2 + b1, a2 * n2 + b2] = g1.mul(a1, a2) * n2 + g2.mul(b1, b2)
    return FiniteGroup(table)


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent`, stored as a sorted tuple of parent indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(int(x) for x in self.elements)))
        object.__setattr__(self, "elements", elems)
        if elems and (elems[0] < 0 or elems[-1] >= self.parent.order):
            raise ValidationError(f"subgroup elements must be in 0..{self.parent.order - 1}")
        local = np.full(self.parent.order, -1)
        local[list(elems)] = np.arange(len(elems))
        object.__setattr__(self, "_local", local)
        eset = set(elems)
        if self.parent.identity not in eset:
            raise ValidationError("subgroup must contain the identity")
        for a in elems:
            if self.parent.inverse(a) not in eset:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if self.parent.mul(a, b) not in eset:
                    raise ValidationError(f"subgroup not closed under product at ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_local(self, parent_idx):
        """Local index of a parent element, or an array of them for a
        sequence; raises for any element outside the subgroup."""
        local = self._local[np.asarray(parent_idx)]
        if np.any(local < 0):
            raise ValidationError(f"not all of {np.asarray(parent_idx).tolist()} "
                                  f"lie in subgroup {list(self.elements)}")
        return local if np.ndim(local) else int(local)

    @property
    def group(self) -> FiniteGroup:
        """The subgroup as a FiniteGroup on local indices 0..|H|-1."""
        cached = self.parent._cache.get(self.elements)
        if cached is not None:
            return cached
        elems = np.array(self.elements)
        grp = FiniteGroup(self.to_local(self.parent.mult[np.ix_(elems, elems)]))
        self.parent._cache[self.elements] = grp
        return grp

    def is_subset_of(self, other: "Subgroup") -> bool:
        return set(self.elements) <= set(other.elements)

    def generators(self) -> list[int]:
        """A small (greedy) generating set, identity omitted."""
        chosen: list[int] = []
        span = {self.parent.identity}
        for cand in self.elements:
            if cand in span:
                continue
            chosen.append(cand)
            span = generated(self.parent, span | {cand})
            if len(span) == self.order:
                break
        return chosen

    def __repr__(self):
        return f"Subgroup({list(self.elements)})"


def generated(g: FiniteGroup, elems) -> set[int]:
    """The elements of the subgroup of g generated by elems: the closure of
    elems and the identity under products. In a finite group that closure
    already holds every inverse (a^{-1} is a power of a)."""
    span = set(elems) | {g.identity}
    while True:
        new = {g.mul(a, b) for a in span for b in span}
        if new <= span:
            return span
        span |= new


def full_subgroup(g: FiniteGroup) -> Subgroup:
    return Subgroup(g, tuple(range(g.order)))


def conjugate_subgroup(h: Subgroup, r: int) -> Subgroup:
    """rHr^{-1} as a Subgroup of the same parent: h itself when r normalizes it."""
    elements = tuple(sorted(h.parent.conjugate(r, h.elements).tolist()))
    return h if elements == h.elements else Subgroup(h.parent, elements)


def conjugate_intersection(subgroups: list[Subgroup], reps: list[int]) -> Subgroup:
    """The subgroup cap_i r_i H_i r_i^{-1}; depends only on the cosets r_i H_i."""
    if len(subgroups) != len(reps):
        raise ValidationError("subgroups and reps must have equal length")
    parent = subgroups[0].parent
    acc = set(range(parent.order))
    for h, r in zip(subgroups, reps):
        acc &= set(conjugate_subgroup(h, r).elements)
    return Subgroup(parent, tuple(sorted(acc)))


@dataclass(frozen=True, eq=False)
class GroupAction:
    """Left action of `group` on {0..set_size-1}; perm[r, x] = r.x."""

    group: FiniteGroup
    perm: np.ndarray = field(repr=False)

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        object.__setattr__(self, "perm", perm)
        g = self.group
        if perm.shape[0] != g.order:
            raise ValidationError("one permutation per group element required")
        n = perm.shape[1]
        if not np.array_equal(perm[g.identity], np.arange(n)):
            raise ValidationError("identity must act as the identity permutation")
        for r in g.elements():
            if len(set(perm[r])) != n:
                raise ValidationError(f"element {r} does not act by a permutation")
            for s in g.elements():
                if not np.array_equal(perm[g.mul(r, s)], perm[r][perm[s]]):
                    raise ValidationError(f"left action law fails at ({r}, {s})")

    @property
    def set_size(self) -> int:
        return int(self.perm.shape[1])

    def apply(self, r: int, x: int) -> int:
        return int(self.perm[r, x])


def stabilizer(act: GroupAction, point: int) -> Subgroup:
    elems = tuple(r for r in act.group.elements() if act.apply(r, point) == point)
    return Subgroup(act.group, elems)


def orbit(act: GroupAction, point: int) -> set[int]:
    return {act.apply(r, point) for r in act.group.elements()}


def orbits(act: GroupAction) -> list[list[int]]:
    """Partition of the set into orbits, each sorted, ordered by minimum."""
    seen: set[int] = set()
    out = []
    for x in range(act.set_size):
        if x in seen:
            continue
        orb = sorted(orbit(act, x))
        seen.update(orb)
        out.append(orb)
    return out


def left_cosets(h: Subgroup) -> list[tuple[int, list[int]]]:
    """Left cosets rH as (representative, members); representative is minimal."""
    g = h.parent
    seen: set[int] = set()
    cosets = []
    for r in g.elements():
        if r in seen:
            continue
        members = sorted(g.mul(r, x) for x in h.elements)
        seen.update(members)
        cosets.append((members[0], members))
    return cosets


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by brute-force closure of generated subsets."""
    found = {(g.identity,)}
    frontier = [{g.identity}]
    while frontier:
        base = frontier.pop()
        for extra in g.elements():
            if extra in base:
                continue
            span = generated(g, base | {extra})
            key = tuple(sorted(span))
            if key not in found:
                found.add(key)
                frontier.append(span)
    return [Subgroup(g, k) for k in sorted(found, key=lambda e: (len(e), e))]
