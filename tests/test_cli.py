import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from semirep import cli, hopf, mackey
from semirep.corpus import INSTANCES, instance_spec
from semirep.groups import cyclic_group, symmetric_group

from helpers import TENSORS, conjugation_spec, dense, spy


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "semirep.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_passes_all_shipped(tmp_path):
    for name in "abcdegh":
        code, out, _ = run_cli("check", str(INSTANCES / f"instance_{name}.json"))
        assert code == 0, out
        assert "PASS" in out


def test_check_corrupted_exits_1(tmp_path):
    spec = instance_spec("A")
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
    spec = instance_spec("A")
    unknown_kind = dict(spec, kind="no_such_kind")
    no_table = dict(spec, base={"order": 3})
    for i, doc in enumerate((unknown_kind, no_table)):
        bad = tmp_path / f"malformed_{i}.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1, err


SPEC_A = instance_spec("A")
RAW_TRIVIAL = {  # C of the trivial group as raw tensors
    "kind": "raw_hopf",
    "base": {"mult": [[[1.0]]], "unit": [1.0], "comult": [[[1.0]]], "counit": [1.0],
             "antipode": [[1.0]], "star": [[1.0]], "haar": [1.0]},
    "lambda": {"order": 1, "table": [[0]]},
    "action": [[[1.0]]],
}
C_Z4 = hopf.function_algebra(cyclic_group(4))
RAW_Z4_HUGE_ACTION = {  # finite entries whose residuals overflow to inf and NaN
    "kind": "raw_hopf",
    "base": {name: dense(C_Z4, name).real.tolist() for name in TENSORS},
    "lambda": {"order": 2, "table": [[0, 1], [1, 0]]},
    "action": [np.eye(4).tolist(), [[1e308, 1e308, -1e308, -1e308]] * 4],
}
MALFORMED_FILES = {  # name -> (document, text the error line must contain)
    "top_level_number": (5, "JSON object"),
    "action_not_a_list": (dict(SPEC_A, action=5), "action"),
    "action_out_of_range": (dict(SPEC_A, action=[[0, 1, 2], [0, 1, 7]]), "permute"),
    "table_not_integer": (dict(SPEC_A, base={"order": 3, "table": [
        [0, 1, 2], [1, 2, 0], [2, 0, "x"]]}), "integer multiplication table"),
    "table_entry_fractional": (dict(SPEC_A, base={"order": 3, "table": [
        [0, 1, 2], [1, 2, 0], [2, 0, 2.9]]}), "integer multiplication table"),
    "action_entry_fractional": (dict(SPEC_A, action=[[0, 1, 2], [0, 2.9, 1]]),
                                "integer permutations"),
    "base_order_wrong": (dict(SPEC_A, base=dict(SPEC_A["base"], order=5)), "order 5"),
    "lambda_order_wrong": (dict(SPEC_A, **{"lambda": dict(SPEC_A["lambda"], order=7)}),
                           "order 7"),
    "seed_not_integer": (dict(SPEC_A, seed="x"), "seed"),
    "seed_fractional": (dict(SPEC_A, seed=7.5), "seed"),
    "raw_hopf_without_unit": (dict(RAW_TRIVIAL, base={
        k: v for k, v in RAW_TRIVIAL["base"].items() if k != "unit"}), "unit"),
    "raw_hopf_action_not_square": (dict(RAW_TRIVIAL, action=[[[1.0], [0.0]]]),
                                   "action matrices"),
    "raw_hopf_nan": (dict(RAW_TRIVIAL, base=dict(RAW_TRIVIAL["base"], mult=[[[float("nan")]]])),
                     "mult has a non-finite entry"),
    "raw_hopf_infinite_action": (dict(RAW_TRIVIAL, action=[[[float("inf")]]]),
                                 "action matrix has a non-finite entry"),
    "raw_hopf_huge_action": (RAW_Z4_HUGE_ACTION, "alpha*_1 fails the automorphism check"),
}


def assert_one_error_line(code, err, needle):
    assert code == 1, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err, err


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_file_exits_1(name, tmp_path):
    doc, needle = MALFORMED_FILES[name]
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("check", str(bad))
    assert_one_error_line(code, err, needle)


@pytest.mark.parametrize("subgroup,param,needle", [
    ("a", "x:1,v:0", "--subgroup"),
    ("0,5", "x:1,v:0", "--subgroup"),
    ("0", "x", "--param"),
    ("0", "x:a,v:0", "--param"),
    ("0", "x:1,v:0,w:2", "--param"),
    ("0", "x:1,x:0,v:0", "--param"),
])
def test_malformed_induce_arguments_exit_1(subgroup, param, needle):
    code, _, err = run_cli("induce", str(INSTANCES / "instance_a.json"),
                           "--subgroup", subgroup, "--param", param)
    assert_one_error_line(code, err, needle)


@pytest.mark.parametrize("command,flag,value", [
    ("check", "--subgroup", "0"),
    ("irr", "--param", "x:0,v:0"),
    ("oracle", "--subgroup", "0"),
])
def test_induce_flags_rejected_elsewhere(command, flag, value):
    code, out, err = run_cli(command, str(INSTANCES / "instance_a.json"), flag, value)
    assert out == ""
    assert_one_error_line(code, err, "only to induce")


def test_instance_spec_reads_the_shipped_files():
    for name in "ABCDEFGH":
        doc = json.loads((INSTANCES / f"instance_{name.lower()}.json").read_text())
        assert instance_spec(name) == doc == instance_spec(name.lower())
    for name in ("Z", "../x"):
        with pytest.raises(KeyError):
            instance_spec(name)


def run_main_expecting_disagreement(capsys, *argv):
    assert cli.main([*argv, "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle disagreement:"), captured.err


def test_oracle_rejects_dims_unlike_classify(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_irr_dims", lambda h, seed: [1] * h.dim)
    run_main_expecting_disagreement(capsys, "oracle", str(INSTANCES / "instance_a.json"))


def test_oracle_rejects_cube_breaking_dimensions(monkeypatch, capsys):
    real = cli.module_fusion_cube

    def bumped(coreps):
        cube = real(coreps)
        cube[0, 0, 0] += 1
        return cube

    monkeypatch.setattr(cli, "module_fusion_cube", bumped)
    run_main_expecting_disagreement(capsys, "oracle", str(INSTANCES / "instance_a.json"))


def test_conj_rejects_a_non_involution(monkeypatch, capsys):
    monkeypatch.setattr(cli, "conjugation_pairing", lambda inst, w, cl: cl[0].label)
    run_main_expecting_disagreement(capsys, "conj", str(INSTANCES / "instance_a.json"))


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


def test_structured_fuse_builds_no_human_lines(monkeypatch, capsys):
    """The human cube lines read FusionTable.entry once per entry; the
    structured format prints the cube itself and never builds them."""
    entries = spy(monkeypatch, mackey.FusionTable, "entry")
    path = str(INSTANCES / "instance_d.json")
    assert cli.main(["fuse", path, "--format", "structured"]) == 0
    assert entries == []
    assert cli.main(["fuse", path]) == 0
    capsys.readouterr()
    assert len(entries) == 12 ** 3


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
    for name in "abcgh":
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


@pytest.mark.parametrize("name", "abc")
def test_induce_on_trivial_subgroup_selects_generators_twice(name, request,
                                                               monkeypatch, capsys):
    """Only the base and the product select dual-algebra generators: the
    instance over {e} is the base itself, so it shares the base's. Both
    comults are tables, so both select by the exact closure."""
    inst = request.getfixturevalue(f"inst_{name}")
    tables = spy(monkeypatch, hopf, "_table_generators")
    path = str(INSTANCES / f"instance_{name}.json")
    assert cli.main(["induce", path, "--subgroup", "0", "--param", "x:1,v:0"]) == 0
    capsys.readouterr()
    assert sorted(h.dim for (h, _), _ in tables) == sorted([inst.base.dim, inst.dim])


def test_induce_rejects_non_stabilizing_subgroup():
    """Building the parameters stops at covariant_projective's NotStabilized,
    before any v is indexed, and its message is the one stderr line."""
    path = str(INSTANCES / "instance_a.json")
    # x:0 is a nontrivial character of Z3 (canonical order); the full Z2 moves it
    code, out, err = run_cli("induce", path, "--subgroup", "0,1", "--param", "x:0,v:0")
    assert code == 1
    assert out == ""
    assert err == "error: r0 = 1 does not stabilize the irrep: Mor(r0 . u, u) = 0\n"


def test_conj_command():
    code, out, _ = run_cli("conj", str(INSTANCES / "instance_d.json"),
                           "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    pairing = doc["conjugation"]
    assert sorted(pairing) == sorted(pairing.values())
    for k, v in pairing.items():
        assert pairing[v] == k


@pytest.mark.parametrize("command", ["irr", "fuse"])
def test_output_is_independent_of_the_hash_seed(command):
    """G has a nonabelian Lambda; set and dict iteration order must not leak
    into the result."""
    outs = set()
    for hash_seed in ("0", "4242"):
        proc = subprocess.run(
            [sys.executable, "-m", "semirep.cli", command,
             str(INSTANCES / "instance_g.json"), "--format", "structured"],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


@pytest.mark.parametrize("name", ["g", "h"])
@pytest.mark.parametrize("command", ["irr", "conj", "fuse"])
def test_output_is_independent_of_the_seed(command, name, capsys):
    """The spectral splits draw from the --seed generator, but G and H (each
    with a nonabelian Lambda) print the same bytes under every seed."""
    outs = set()
    for seed in ("1", "7", "2147483647"):
        assert cli.main([command, str(INSTANCES / f"instance_{name}.json"),
                         "--seed", seed]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency, and start-up pays for no scipy."""
    probe = ("import sys, semirep.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_command_imports_numpy_ma():
    """Plain np.unique imports numpy.ma, about 22 ms of a job's start-up; no
    command on A-H may leave it loaded."""
    argvs = [[cmd, str(INSTANCES / f"instance_{name}.json"), *extra]
             for name in "abcdefgh"
             for cmd, extra in (("check", ()), ("irr", ()), ("conj", ()), ("fuse", ()),
                                ("oracle", ()),
                                ("induce", ("--subgroup", "0", "--param", "x:0,v:0")))]
    probe = ("import contextlib, io, json, sys, semirep.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    rcs = [semirep.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(rcs, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{[0] * len(argvs)} False"


def test_check_at_dim_720_is_exact(tmp_path, capsys):
    """C(S5) x| S3, S3 permuting {0, 1, 2} by conjugation: its comult is a
    table, so coassociativity is certified on the dual algebra's generators,
    and every residual is exactly 0."""
    perms = sorted(itertools.permutations(range(3)))
    spec = tmp_path / "s5_s3.json"
    spec.write_text(json.dumps(conjugation_spec(5, range(120), symmetric_group(3),
                                                lambda r: (*perms[r], 3, 4))))
    assert cli.main(["check", str(spec), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 720 and doc["pass"]
    assert set(doc["residuals"].values()) == {0.0}


def test_irr_imports_no_numpy_random():
    """The spectral splits draw from the standard library's seeded generator,
    so a job never pays for importing numpy.random."""
    probe = ("import sys, semirep.cli; rc = semirep.cli.main(sys.argv[1:]); "
             "print(rc, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe, "irr",
                           str(INSTANCES / "instance_a.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_jsonable_hands_int_and_bool_arrays_to_tolist():
    """Integer and bool arrays are already plain JSON after tolist; float and
    complex arrays are still rounded entry by entry, -0.0 read as 0.0."""
    cube = np.arange(24).reshape(2, 3, 4) - 5
    doc = cli._jsonable({"cube": cube, "flags": np.array([True, False]),
                         "floats": np.array([-0.0, 1 / 3]), "phases": np.array([1j, -1 + 0j])})
    assert doc == {"cube": cube.tolist(), "flags": [True, False],
                   "floats": [0.0, round(1 / 3, 12)], "phases": [[0.0, 1.0], [-1.0, 0.0]]}
    assert {type(x) for plane in doc["cube"] for row in plane for x in row} == {int}
    assert {type(x) for x in doc["flags"]} == {bool}
