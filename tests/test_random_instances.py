"""Randomized sweep: instances beyond the curated corpus.

Random (base, action) pairs from a family of small groups; each instance must
classify completely, produce its full fusion cube with all three routes
agreeing, satisfy Frobenius reciprocity, the dimension identity and the unit
under the conjugation pairing, and reproduce sampled cube entries through
standalone fusion_entry calls. A second family, C(Q8) and C[Q8] with
Lambda = Z2 x Z2 acting by inner automorphisms, reaches a parameter whose
cocycle has nontrivial class (H^2(Z2 x Z2, T) = Z2).
"""

import zlib

import numpy as np
import pytest

from semirep.groups import (automorphisms, cyclic_group, dihedral_group,
                            direct_product, quaternion_group, symmetric_group)
from semirep.hopf import (action_from_group_hom, function_algebra,
                          group_algebra, verify_axioms)
from semirep.mackey import classify, conjugation_pairing, fusion
from semirep.semidirect import build

from helpers import check_fusion_identities, standalone_entry

BASES = {
    "Z4": cyclic_group(4),
    "Z6": cyclic_group(6),
    "Z2xZ2": direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": symmetric_group(3),
    "D4": dihedral_group(4),
    "Q8": quaternion_group(),
}


def z2_actions(g):
    """All order-<=2 automorphisms, as homomorphisms Z2 -> Aut(G)."""
    ident = np.arange(g.order)
    out = []
    for a in automorphisms(g):
        if np.array_equal(a[a], ident):
            out.append([ident, a])
    return out


def make_instances():
    z2 = cyclic_group(2)
    instances = []
    for name, g in BASES.items():
        actions = z2_actions(g)
        for kind, alg in (("function", function_algebra(g)),
                          ("group", group_algebra(g))):
            for k, hom in enumerate(actions):
                instances.append((f"{kind}[{name}]#{k}", alg, hom))
    return instances


ALL = make_instances()
rng = np.random.default_rng(1234)
SAMPLE = [ALL[i] for i in sorted(rng.choice(len(ALL), size=10, replace=False))]


def classify_and_fuse(alg, lam, hom):
    """Build alg x| lam, classify it and fuse: the full cube, three-way; then
    Frobenius reciprocity, the dimension identity and the unit, with each
    irrep's conjugate from `conj`'s pairing, which must be an involution."""
    inst = build(alg, lam, action_from_group_hom(alg, lam, hom, "permutation"))
    assert verify_axioms(inst.product)["pass"]
    cl = classify(inst)
    assert sum(w.dim ** 2 for w in cl) == inst.dim
    table = fusion(inst, cl)
    assert table.agreement() == "3/3 methods agree"
    labels = [w.label for w in cl]
    bar = np.array([labels.index(conjugation_pairing(inst, w, cl)) for w in cl])
    check_fusion_identities(table.coefficients, np.array([w.dim for w in cl]), bar)
    return inst, cl, table


@pytest.mark.parametrize("label,alg,hom", SAMPLE,
                         ids=[s[0] for s in SAMPLE])
def test_random_instance_pipeline(label, alg, hom):
    inst, cl, table = classify_and_fuse(alg, cyclic_group(2), hom)
    # sampled entries again, each from a standalone fusion_entry
    local = np.random.default_rng(zlib.crc32(label.encode()))
    for _ in range(3):
        i1, i2, i3 = (int(i) for i in local.integers(0, len(cl), 3))
        assert standalone_entry(inst, cl[i1], cl[i2], cl[i3]) == table.entry(i1, i2, i3)


def q8_inner_action():
    """Z2 x Z2 -> Inn(Q8), (a, b) -> conjugation with i^a j^b; the element
    (a, b) of direct_product is packed as 2 a + b."""
    q8 = quaternion_group()
    i, j = 2, 4  # quaternion_group lists 1, -1, i, -i, j, -j, k, -k
    hom = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        s = q8.mul(i if a else q8.identity, j if b else q8.identity)
        hom.append([q8.mul(q8.mul(s, g), q8.inverse(s)) for g in q8.elements()])
    return q8, direct_product(cyclic_group(2), cyclic_group(2)), hom


@pytest.mark.parametrize("kind", ["function", "group"])
def test_klein_four_lambda_on_q8(kind):
    """C(Q8) x| Z2^2: the 2-dim irrep of Q8 is fixed by every inner
    automorphism, and its covariant V is projective of nontrivial class, so
    its parameter has cocycle_trivial False. C[Q8]'s irreps are 1-dim, so
    every V there is 1-dim and every class trivial; its 14 irreducibles come
    from the centre {1, -1} (stabilizer Lambda) and the pairs +-i, +-j, +-k
    (stabilizer Z2)."""
    q8, lam, hom = q8_inner_action()
    alg = function_algebra(q8) if kind == "function" else group_algebra(q8)
    _, cl, _ = classify_and_fuse(alg, lam, hom)
    projective = [w for w in cl if not w.cocycle_trivial]
    if kind == "function":
        assert len(cl) == 17
        assert [(w.parameter.u.dim, w.parameter.v.dim, w.dim) for w in projective] == [(2, 2, 4)]
    else:
        assert len(cl) == 14 and projective == []
