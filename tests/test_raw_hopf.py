"""The raw_hopf instance kind: explicit tensors gated behind axiom checks."""

import json

import numpy as np
import pytest

from semirep.corpus import build_instance
from semirep.errors import ValidationError
from semirep.groups import cyclic_group
from semirep.hopf import function_algebra
from semirep.mackey import classify

from helpers import complexify, dense, raw_spec_from


def test_raw_hopf_roundtrip_instance_a(tmp_path):
    z3 = cyclic_group(3)
    h = function_algebra(z3)
    inv = np.zeros((3, 3))
    for g in range(3):
        inv[(-g) % 3, g] = 1.0
    spec = raw_spec_from(h, [[0, 1], [1, 0]], [np.eye(3), inv],
                         name="raw A")
    inst = build_instance(spec)
    assert inst.dim == 6
    assert sorted(w.dim for w in classify(inst)) == [1, 1, 2]
    # also loadable through the CLI path
    path = tmp_path / "raw_a.json"
    path.write_text(json.dumps(spec))
    from semirep.cli import load_instance
    inst2 = load_instance(str(path))[0]
    assert inst2.dim == 6


def test_real_entries_read_by_rank(tmp_path, capsys):
    """C(Z2) written with real entries, where every tensor axis has length 2,
    builds, and checks exactly as the same file written as [re, im] pairs."""
    from semirep.cli import main
    h = function_algebra(cyclic_group(2))
    pairs = raw_spec_from(h, [[0]], [np.eye(2)], name="C(Z2)")
    real = dict(pairs, base={k: dense(h, k).real.tolist() for k in pairs["base"]},
                action=[np.eye(2).tolist()])
    assert build_instance(real).axioms == build_instance(pairs).axioms
    outs = []
    for name, spec in (("real", real), ("pairs", pairs)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        assert main(["check", str(path), "--format", "structured"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_raw_hopf_rejects_broken_tensors():
    z3 = cyclic_group(3)
    h = function_algebra(z3)
    spec = raw_spec_from(h, [[0]], [np.eye(3)])
    spec["base"]["comult"] = complexify(dense(h, "comult") + 0.25)
    with pytest.raises(ValidationError):
        build_instance(spec)


def test_raw_hopf_rejects_non_automorphism_matrix():
    z3 = cyclic_group(3)
    h = function_algebra(z3)
    bad = np.eye(3)
    bad[0, 0] = 2.0  # not unital
    from semirep.errors import NotAutomorphism
    spec = raw_spec_from(h, [[0, 1], [1, 0]], [np.eye(3), bad])
    with pytest.raises((ValidationError, NotAutomorphism)):
        build_instance(spec)


def test_character_counit_is_dimension(inst_a):
    from semirep.corep import irr_enumerate
    for u in irr_enumerate(inst_a.product):
        assert abs(inst_a.product.counit @ u.char_vec() - u.dim) < 1e-9
