"""Tests of the benchmark's own parts: checker, tracer, input generator.

Run with `python3 -m pytest perfbench/tests`.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401  (puts src/ on sys.path)
import checker
import inputs
from semirep import cli

ROOT = run.ROOT
REFERENCE = checker.load_reference()


@pytest.fixture
def scratch():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        yield Path(tmp)


def shipped_job(name, cmd):
    return inputs._shipped(name, cmd, "test")


def cli_output(job, seed=7):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(job.argv(seed)) == 0
    return buf.getvalue()


def tampered(job, text, edit):
    doc = json.loads(text)
    edit(doc)
    return checker.check_output(job, json.dumps(doc), REFERENCE)


def test_checker_accepts_real_outputs_and_relabelling():
    job = shipped_job("A", "fuse")
    text = cli_output(job)
    assert checker.check_output(job, text, REFERENCE) == []

    def relabel(doc):  # swap the two one-dimensional irreducibles
        perm = [1, 0, 2]
        cube = np.asarray(doc["cube"])[np.ix_(perm, perm, perm)]
        doc["cube"] = cube.tolist()
        doc["dims"] = [doc["dims"][i] for i in perm]
    assert tampered(job, text, relabel) == []


def test_checker_rejects_bumped_fusion_entry():
    job = shipped_job("A", "fuse")

    def bump(doc):
        doc["cube"][0][0][0] += 1
    assert tampered(job, cli_output(job), bump)


def test_checker_rejects_dropped_irreducible():
    job = shipped_job("C", "irr")

    def drop(doc):
        doc["irreps"].pop()
        doc["count"] -= 1
    assert tampered(job, cli_output(job), drop)


def test_checker_rejects_non_involution():
    job = shipped_job("C", "conj")

    def cycle(doc):
        labels = list(doc["conjugation"])
        doc["conjugation"] = {a: b for a, b in zip(labels, labels[1:] + labels[:1])}
    problems = tampered(job, cli_output(job), cycle)
    assert any("involution" in p for p in problems)


def test_same_up_to_relabel_needs_equal_structure():
    cube = np.asarray(REFERENCE["C/fuse"]["cube"])
    dims = REFERENCE["C/fuse"]["dims"]
    perm = [3, 5, 0, 2, 1, 4]
    inv = np.argsort(perm)
    moved = cube[np.ix_(inv, inv, inv)]
    moved_dims = [dims[i] for i in inv]
    assert checker.same_up_to_relabel(cube, moved, dims, moved_dims)
    broken = copy.deepcopy(moved)
    broken[0, 1, 2], broken[0, 2, 1] = broken[0, 2, 1], broken[0, 1, 2] + 1
    assert not checker.same_up_to_relabel(cube, broken, dims, moved_dims)


def test_traced_fuse_a_repeats_its_call_counts(scratch):
    job = shipped_job("A", "fuse")
    plain = run.run_job(job, 7, None, REFERENCE)
    traced = [run.run_job(job, 7, scratch / f"spans{n}.npz", REFERENCE) for n in (1, 2)]
    for res in (plain, *traced):
        assert res["problems"] == []
    assert traced[0]["stdout"] == traced[1]["stdout"] == plain["stdout"]
    calls = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")} for r in traced]
    assert calls[0] == calls[1]
    assert calls[0]["mackey.fusion_entry.calls"] == 3 ** 3
    spans = np.load(scratch / "spans1.npz")
    assert len(spans["start"]) == sum(calls[0].values())


def test_generator_is_deterministic(scratch):
    def files(seed, sub):
        tmp = scratch / sub
        tmp.mkdir()
        jobs = (inputs.workload_jobs("sweep", seed, tmp, ROOT)
                + inputs.workload_jobs("ladder", seed, tmp, ROOT))
        return ([(j.key, Path(j.path).name, j.extra) for j in jobs],
                {p.name: p.read_bytes() for p in tmp.iterdir()})

    first = files(5, "a")
    assert files(5, "b") == first
    assert files(6, "c")[0] != first[0]


def test_sweep_family_has_56_instances_and_stratified_draw():
    family = inputs.sweep_family()
    assert len(family) == 56
    draw = inputs.sweep_draw(3)
    assert len({inst.split("#")[0] for inst, *_ in draw}) == 12
    assert all(0 <= x < len(dims) for _, _, dims, x in draw)
