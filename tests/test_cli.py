import json
import subprocess
import sys
from pathlib import Path

import pytest

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "semirep.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_passes_all_shipped(tmp_path):
    for name in "abcde":
        code, out, _ = run_cli("check", str(INSTANCES / f"instance_{name}.json"))
        assert code == 0, out
        assert "PASS" in out


def test_check_corrupted_exits_1(tmp_path):
    spec = json.loads((INSTANCES / "instance_a.json").read_text())
    spec["action"] = [[0, 1, 2], [1, 0, 2]]  # not an automorphism of Z3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert "error" in err


def test_malformed_json_exits_1(tmp_path):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{ this is not json")
    code, _, err = run_cli("check", str(bad))
    assert code == 1
    assert "error" in err


def test_missing_field_exits_1(tmp_path):
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps({"kind": "function_algebra"}))
    code, _, err = run_cli("check", str(bad))
    assert code == 1
    spec = json.loads((INSTANCES / "instance_a.json").read_text())
    unknown_kind = dict(spec, kind="no_such_kind")
    no_table = dict(spec, base={"order": 3})
    for i, doc in enumerate((unknown_kind, no_table)):
        bad = tmp_path / f"malformed_{i}.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_irr_instance_a_rows():
    code, out, _ = run_cli("irr", str(INSTANCES / "instance_a.json"),
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert sorted(r["dim"] for r in doc["irreps"]) == [1, 1, 2]
    assert doc["sum_dim_sq"] == 6


def test_fuse_instance_a_agreement():
    code, out, _ = run_cli("fuse", str(INSTANCES / "instance_a.json"))
    assert code == 0
    assert "3/3 methods agree" in out


def test_structured_output_deterministic():
    path = str(INSTANCES / "instance_b.json")
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli("fuse", path, "--format", "structured")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    doc = json.loads(out)
    assert doc["agreement"] == "3/3 methods agree"
    # integers stay integers in the JSON document
    assert all(isinstance(n, int) for row in doc["cube"] for col in row for n in col)


def test_oracle_agrees_with_irr():
    for name in "abc":
        path = str(INSTANCES / f"instance_{name}.json")
        code, irr_out, _ = run_cli("irr", path, "--format", "structured")
        assert code == 0
        code, oracle_out, _ = run_cli("oracle", path, "--format", "structured")
        assert code == 0
        irr_doc = json.loads(irr_out)
        oracle_doc = json.loads(oracle_out)
        assert sorted(r["dim"] for r in irr_doc["irreps"]) == oracle_doc["irr_dims"]


def test_induce_command():
    path = str(INSTANCES / "instance_a.json")
    code, out, _ = run_cli("induce", path, "--subgroup", "0", "--param", "x:0,v:0",
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert doc["irreducible"] is True
    # complex numbers serialize as [re, im] pairs
    assert all(len(pair) == 2 for pair in doc["character"])


def test_induce_rejects_non_stabilizing_subgroup():
    path = str(INSTANCES / "instance_a.json")
    # x:0 is a nontrivial character of Z3 (canonical order); the full Z2 moves it
    code, _, err = run_cli("induce", path, "--subgroup", "0,1", "--param", "x:0,v:0")
    assert code == 1
    assert "stabilize" in err


def test_conj_command():
    code, out, _ = run_cli("conj", str(INSTANCES / "instance_d.json"),
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    pairing = doc["conjugation"]
    assert sorted(pairing) == sorted(pairing.values())
    for k, v in pairing.items():
        assert pairing[v] == k
