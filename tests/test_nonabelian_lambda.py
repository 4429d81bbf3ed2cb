"""Instances whose Lambda is nonabelian, so left and right cosets differ.

G is C(Z2xZ2) x| S3 with S3 permuting the three nonzero elements: that is
the function algebra of Z2^2 x| S3 = S4. H is C[S3] x| S3 by conjugation.
"""

import itertools

import numpy as np

from semirep._linalg import as_int, max_abs
from semirep.corep import irr_enumerate
from semirep.groups import Subgroup, left_cosets, symmetric_group
from semirep.hopf import function_algebra
from semirep.induction import induce
from semirep.mackey import classify, fusion

from helpers import reference_induce


def test_g_is_classically_s4(inst_g):
    cl = classify(inst_g)
    assert [w.dim for w in cl] == [3, 3, 1, 1, 2]
    table = fusion(inst_g, cl)
    assert table.agreement() == "3/3 methods agree"
    # the fusion rules of C(S4) x| {e}: tensor products of the irreps of S4
    s4 = function_algebra(symmetric_group(4))
    chis = [u.char_vec() for u in irr_enumerate(s4)]
    classical = np.array([[[as_int(s4.pair(c1, s4.product(c2, c3))) for c3 in chis]
                           for c2 in chis] for c1 in chis])
    assert any(np.array_equal(table.coefficients[np.ix_(p, p, p)], classical)
               for p in itertools.permutations(range(len(cl))))


def test_induce_indexes_k_by_right_cosets(inst_g, inst_h):
    """Over Lambda0 = {e, (0 1)} in S3 (not normal), the induced corep built
    on the right cosets equals, to 1e-12, the compression of the
    l2(Lambda) (x) H construction to its coset basis, and has dimension
    [Lambda : Lambda0] dim U."""
    for inst in (inst_g, inst_h):
        lam = inst.lam_full
        sub = Subgroup(lam, (0, 2))
        assert any(sorted(lam.mul(r, x) for x in sub.elements)
                   != sorted(lam.mul(x, r) for x in sub.elements)
                   for r, _ in left_cosets(sub))
        src = inst.principal(sub)
        for u in irr_enumerate(src.product):
            ind = induce(inst, u).result
            assert ind.dim == 3 * u.dim
            assert max_abs(ind.entries - reference_induce(inst, u).entries) <= 1e-12
