"""Randomized sweep: instances beyond the curated corpus.

Random (base, action) pairs from a family of small groups; each instance must
classify completely, produce its full fusion cube with all three routes
agreeing, satisfy Frobenius reciprocity, the dimension identity and the unit
under the conjugation pairing, and reproduce sampled cube entries through
standalone fusion_entry calls.
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


@pytest.mark.parametrize("label,alg,hom", SAMPLE,
                         ids=[s[0] for s in SAMPLE])
def test_random_instance_pipeline(label, alg, hom):
    z2 = cyclic_group(2)
    inst = build(alg, z2, action_from_group_hom(alg, z2, hom, "permutation"))
    assert verify_axioms(inst.product)["pass"]
    cl = classify(inst)
    assert sum(w.dim ** 2 for w in cl) == inst.dim
    # the full cube, three-way; then Frobenius reciprocity, the dimension
    # identity and the unit, with each irrep's conjugate from `conj`'s pairing
    table = fusion(inst, cl)
    assert table.agreement() == "3/3 methods agree"
    labels = [w.label for w in cl]
    bar = np.array([labels.index(conjugation_pairing(inst, w, cl)) for w in cl])
    check_fusion_identities(table.coefficients, np.array([w.dim for w in cl]), bar)
    # sampled entries again, each from a standalone fusion_entry
    local = np.random.default_rng(zlib.crc32(label.encode()))
    for _ in range(3):
        i1, i2, i3 = (int(i) for i in local.integers(0, len(cl), 3))
        assert standalone_entry(inst, cl[i1], cl[i2], cl[i3]) == table.entry(i1, i2, i3)
