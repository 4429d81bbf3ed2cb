import itertools

import numpy as np
import pytest

from semirep.errors import NotAGroup, ValidationError
from semirep.groups import (FiniteGroup, GroupAction, Subgroup, all_subgroups,
                            conjugate_intersection, conjugate_subgroup,
                            cyclic_group, direct_product, full_subgroup, generated,
                            left_cosets, orbit, orbits, stabilizer)

from helpers import trivial_subgroup
from test_random_instances import BASES

# Independent oracle: compose permutation tuples directly.
PERMS3 = sorted(itertools.permutations(range(3)))


def compose(p, q):
    return tuple(p[q[x]] for x in range(3))


def s3_table():
    index = {p: i for i, p in enumerate(PERMS3)}
    table = [[index[compose(p, q)] for q in PERMS3] for p in PERMS3]
    return np.array(table)


def test_cyclic_group_from_table():
    z3 = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert z3.order == 3
    assert z3.identity == 0
    assert list(z3.inv) == [0, 2, 1]


def test_s3_table_brute_force_associativity():
    table = s3_table()
    # oracle scan before trusting the constructor
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert table[table[a, b], c] == table[a, table[b, c]]
    g = FiniteGroup(table)
    assert g.order == 6
    assert g.identity == PERMS3.index((0, 1, 2))


def test_non_associative_table_rejected():
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(NotAGroup):
        FiniteGroup(bad)


def test_non_associative_loop_rejected():
    """A Latin square with an identity (a loop) reaches the associativity scan,
    which names the lexicographically first failing triple."""
    loop = np.array([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])
    span = list(range(5))
    assert all(sorted(loop[r]) == span and sorted(loop[:, r]) == span for r in span)
    first = next((a, b, c) for a in span for b in span for c in span
                 if loop[loop[a, b], c] != loop[a, loop[b, c]])
    assert first == (1, 1, 2)
    with pytest.raises(NotAGroup, match=r"associativity fails at triple \(1, 1, 2\)"):
        FiniteGroup(loop)


def test_non_latin_square_rejected():
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 0], [1, 1]])


def idx(p):
    return PERMS3.index(p)


def test_conjugate_subgroup_s3():
    g = FiniteGroup(s3_table())
    e = (0, 1, 2)
    t12 = (1, 0, 2)
    t13 = (2, 1, 0)
    t23 = (0, 2, 1)
    h = Subgroup(g, (idx(e), idx(t12)))
    conj = conjugate_subgroup(h, idx(t13))
    # oracle: conjugate each element explicitly
    expected = set()
    for p in (e, t12):
        val = compose(compose(t13, p), t13)  # t13 is its own inverse
        expected.add(idx(val))
    assert set(conj.elements) == expected == {idx(e), idx(t23)}
    r = idx(t13)
    for a in h.elements:
        for b in h.elements:
            assert g.conjugate(r, g.mul(a, b)) == g.mul(g.conjugate(r, a),
                                                        g.conjugate(r, b))


def test_index_maps_take_sequences():
    """conjugate and to_local map a sequence elementwise, and to_local raises
    for any element outside the subgroup."""
    g = FiniteGroup(s3_table())
    for r in g.elements():
        expected = [g.mul(g.mul(r, x), g.inverse(r)) for x in g.elements()]
        assert list(g.conjugate(r, range(g.order))) == expected
        assert [g.conjugate(r, x) for x in g.elements()] == expected
    h = Subgroup(g, (idx((0, 1, 2)), idx((1, 0, 2))))
    assert h.to_local(h.elements[1]) == 1
    assert list(h.to_local(h.elements[::-1])) == [1, 0]
    assert list(full_subgroup(g).to_local(range(6))) == list(range(6))
    for outside in (idx((0, 2, 1)), [h.elements[0], idx((0, 2, 1))]):
        with pytest.raises(ValidationError):
            h.to_local(outside)


def test_conjugate_subgroup_whole_group_and_order():
    g = FiniteGroup(s3_table())
    full = full_subgroup(g)
    for r in g.elements():
        assert conjugate_subgroup(full, r).elements == full.elements
    h = Subgroup(g, (idx((0, 1, 2)), idx((1, 0, 2))))
    for r in g.elements():
        assert conjugate_subgroup(h, r).order == h.order


def test_conjugate_subgroup_is_the_subgroup_itself_when_r_normalizes_it():
    g = FiniteGroup(s3_table())
    a3 = Subgroup(g, (idx((0, 1, 2)), idx((1, 2, 0)), idx((2, 0, 1))))
    h = Subgroup(g, (idx((0, 1, 2)), idx((1, 0, 2))))
    for sub in (trivial_subgroup(g), a3, full_subgroup(g), h):
        for r in g.elements():
            conj = conjugate_subgroup(sub, r)
            fixed = set(conj.elements) == set(sub.elements)
            assert (conj is sub) == fixed
            assert conj.elements == tuple(sorted(g.conjugate(r, sub.elements).tolist()))
    assert any(conjugate_subgroup(h, r) is not h for r in g.elements())


def test_conjugate_intersection():
    g = FiniteGroup(s3_table())
    h = Subgroup(g, (idx((0, 1, 2)), idx((1, 0, 2))))
    res = conjugate_intersection([h, h], [g.identity, idx((2, 1, 0))])
    assert res.elements == (g.identity,)
    full = full_subgroup(g)
    assert conjugate_intersection([full, full], [0, 3]).order == 6
    assert conjugate_intersection([h], [g.identity]).elements == h.elements


def test_conjugate_intersection_coset_invariance():
    g = FiniteGroup(s3_table())
    subs = all_subgroups(g)
    rng = np.random.default_rng(0)
    for _ in range(20):
        h1, h2 = rng.choice(len(subs), 2)
        s1, s2 = subs[h1], subs[h2]
        r1, r2 = int(rng.integers(6)), int(rng.integers(6))
        base = conjugate_intersection([s1, s2], [r1, r2])
        a1 = g.mul(r1, s1.elements[int(rng.integers(s1.order))])
        a2 = g.mul(r2, s2.elements[int(rng.integers(s2.order))])
        shifted = conjugate_intersection([s1, s2], [a1, a2])
        assert base.elements == shifted.elements


def z2_on_irr_z3_action():
    # Z2 inverting the three characters of Z3: fixes 1, swaps omega, omega^2.
    z2 = cyclic_group(2)
    perm = np.array([[0, 1, 2], [0, 2, 1]])
    return GroupAction(z2, perm)


def test_stabilizer_orbit():
    act = z2_on_irr_z3_action()
    assert stabilizer(act, 1).elements == (0,)
    assert orbit(act, 1) == {1, 2}
    assert stabilizer(act, 0).order == 2
    for x in range(3):
        assert len(orbit(act, x)) * stabilizer(act, x).order == act.group.order
    assert orbits(act) == [[0], [1, 2]]


def test_trivial_action_stabilizer():
    z2 = cyclic_group(2)
    act = GroupAction(z2, np.array([[0, 1], [0, 1]]))
    assert stabilizer(act, 0).order == 2
    assert orbit(act, 1) == {1}


def test_left_cosets():
    g = FiniteGroup(s3_table())
    full = full_subgroup(g)
    assert left_cosets(full) == [(0, list(range(6)))]
    triv = trivial_subgroup(g)
    assert len(left_cosets(triv)) == 6
    h = Subgroup(g, (idx((0, 1, 2)), idx((1, 0, 2))))
    cosets = left_cosets(h)
    assert len(cosets) == 3
    members = sorted(m for _, ms in cosets for m in ms)
    assert members == list(range(6))
    for rep, ms in cosets:
        assert rep == min(ms)


def test_all_subgroups_s3():
    g = FiniteGroup(s3_table())
    subs = all_subgroups(g)
    orders = sorted(s.order for s in subs)
    assert orders == [1, 2, 2, 2, 3, 6]


def test_group_exponent_and_element_order():
    g = FiniteGroup(s3_table())
    assert np.lcm.reduce([g.element_order(r) for r in g.elements()]) == 6
    z4 = cyclic_group(4)
    assert z4.element_order(1) == 4
    assert np.lcm.reduce([z4.element_order(r) for r in z4.elements()]) == 4


def test_subgroup_generators():
    g = FiniteGroup(s3_table())
    full = full_subgroup(g)
    gens = full.generators()
    span = {g.identity}
    frontier = set(gens) | span
    while True:
        new = {g.mul(a, b) for a in frontier for b in frontier}
        if new <= frontier:
            break
        frontier |= new
    assert len(frontier) == 6


def test_subgroup_table_belongs_to_its_parent():
    """A group built where a collected one lived never sees its subgroup tables."""
    everything = (0, 1, 2, 3)
    klein = direct_product(cyclic_group(2), cyclic_group(2)).mult
    for _ in range(20):
        z4 = cyclic_group(4)
        assert np.array_equal(Subgroup(z4, everything).group.mult, z4.mult)
        del z4
        z2z2 = direct_product(cyclic_group(2), cyclic_group(2))
        assert np.array_equal(Subgroup(z2z2, everything).group.mult, klein)
        del z2z2


def _closure(g, elems):
    """The closure of elems and the identity under products and inverses."""
    span = set(elems) | {g.identity}
    while True:
        new = {g.mul(a, b) for a in span for b in span} | {g.inverse(a) for a in span}
        if new <= span:
            return span
        span |= new


@pytest.mark.parametrize("name", BASES)
def test_generated_is_the_closure_under_products_and_inverses(name):
    """On every pair of elements; all_subgroups is every subset closed under
    both, in (order, elements) order; each subgroup's generators generate it."""
    g = BASES[name]
    for pair in itertools.combinations_with_replacement(g.elements(), 2):
        assert generated(g, pair) == _closure(g, pair)
    closed = [e for n in range(1, g.order + 1)
              for e in itertools.combinations(g.elements(), n) if _closure(g, e) == set(e)]
    subgroups = all_subgroups(g)
    assert [s.elements for s in subgroups] == sorted(closed, key=lambda e: (len(e), e))
    for s in subgroups:
        assert generated(g, s.generators()) == set(s.elements)
