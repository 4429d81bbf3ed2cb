"""Randomized sweep: instances beyond the curated corpus.

Random (base, action) pairs from a family of small groups; each instance must
classify completely and agree with the oracles on sampled fusion triples.
"""

import zlib

import numpy as np
import pytest

from semirep._linalg import as_int
from semirep.corep import irr_enumerate, tensor
from semirep.groups import (automorphisms, cyclic_group, dihedral_group,
                            direct_product, quaternion_group, symmetric_group)
from semirep.hopf import (action_from_group_hom, function_algebra,
                          group_algebra, verify_axioms)
from semirep.mackey import classify, fusion_entry
from semirep.oracle import module_hom_dim
from semirep.semidirect import build

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
                instances.append((f"{kind}[{name}]#{k}", alg, hom, kind))
    return instances


ALL = make_instances()
rng = np.random.default_rng(1234)
SAMPLE = [ALL[i] for i in sorted(rng.choice(len(ALL), size=10, replace=False))]


@pytest.mark.parametrize("label,alg,hom,kind", SAMPLE,
                         ids=[s[0] for s in SAMPLE])
def test_random_instance_pipeline(label, alg, hom, kind):
    z2 = cyclic_group(2)
    autos = action_from_group_hom(alg, z2, hom, kind)
    inst = build(alg, z2, autos)
    assert verify_axioms(inst.product)["pass"]
    cl = classify(inst)
    assert sum(w.dim ** 2 for w in cl) == inst.dim
    # sampled fusion triples, three-way
    h = inst.product
    local = np.random.default_rng(zlib.crc32(label.encode()))
    for _ in range(3):
        i1, i2, i3 = local.integers(0, len(cl), 3)
        w1, w2, w3 = cl[int(i1)], cl[int(i2)], cl[int(i3)]
        n_formula = fusion_entry(inst, w1, w2, w3)
        chi_t = h.product(w2.character, w3.character)
        n_char = as_int(h.haar_vec(h.product(h.star_vec(w1.character), chi_t)))
        n_module = module_hom_dim(w1.induced, tensor(w2.induced, w3.induced))
        assert n_formula == n_char == n_module
