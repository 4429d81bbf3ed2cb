"""Algebraic identities of the shipped fusion cubes, read from the goldens.

For each instance with both a `fuse_*` and a `conj_*` golden, the cube
N[w1][w2][w3] = N_{w2 w3}^{w1} must satisfy, on top of the three routes that
produced it:
- Frobenius reciprocity: N[w1][w2][w3] = N[w2][w1][conj(w3)];
- the dimension identity: sum_w1 N[w1][w2][w3] dim w1 = dim w2 dim w3;
- a unique unit t with N[:][t][:] the identity, and N[t][w][conj(w)] = 1.
Nothing is computed here but the identities themselves.
"""

import json
from pathlib import Path

import numpy as np
import pytest

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
    n, dims, bar = _cube(name)
    k = len(dims)
    assert n.shape == (k, k, k) and (n >= 0).all()
    assert np.array_equal(bar[bar], np.arange(k))

    assert np.array_equal(n, n.transpose(1, 0, 2)[:, :, bar])
    assert np.array_equal(np.einsum("abc,a->bc", n, dims), np.outer(dims, dims))

    units = [t for t in range(k) if np.array_equal(n[:, t, :], np.eye(k, dtype=int))]
    assert len(units) == 1
    t = units[0]
    assert dims[t] == 1 and bar[t] == t
    assert all(n[t, i, bar[i]] == 1 for i in range(k))
