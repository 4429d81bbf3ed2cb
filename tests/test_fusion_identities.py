"""Algebraic identities of the shipped fusion cubes, read from the goldens.

For each instance with both a `fuse_*` and a `conj_*` golden, the cube
N[w1][w2][w3] = N_{w2 w3}^{w1} must satisfy, on top of the three routes that
produced it, Frobenius reciprocity, the dimension identity and a unique unit
(helpers.check_fusion_identities). Nothing is computed here but the
identities themselves; tests/test_random_instances.py checks them on
generated instances.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import check_fusion_identities

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cube(name):
    fuse = json.loads((GOLDEN / f"fuse_{name}.json").read_text())
    conj = json.loads((GOLDEN / f"conj_{name}.json").read_text())["conjugation"]
    labels = fuse["labels"]
    assert sorted(conj) == sorted(labels)
    bar = np.array([labels.index(conj[label]) for label in labels])
    return np.array(fuse["cube"], dtype=int), np.array(fuse["dims"]), bar


@pytest.mark.parametrize("name", list("abcdgh"))
def test_fusion_cube_identities(name):
    check_fusion_identities(*_cube(name))
