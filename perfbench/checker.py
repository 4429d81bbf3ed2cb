"""Output checker: invariants recomputed here, plus a label-free reference.

`check_output(job, text, reference)` returns a list of problems; an empty
list means the job's structured output is accepted. The invariants:

- irr: sum of dim^2 equals |G|.|Lambda|; on A-F the dims match the README;
- fuse: every entry is a non-negative integer and, for every pair (w2, w3),
  sum_w1 N[w1][w2][w3] dim w1 = dim w2 dim w3;
- conj: the map is an involution on the labels;
- oracle: sum of irr_dims^2 equals the dim;
- induce: dim equals |Lambda| dim u_x when inducing from the trivial subgroup;
- check: pass is true.

The reference (`reference.json`, recorded at the commit that added the
benchmark) is compared in a form that does not depend on how irreducibles
are labelled; float residuals and the `agreement` string are not compared.
Record it again with `python3 perfbench/checker.py --record`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CHAR_ATOL = 1e-6


# -- fusion cubes up to relabelling ------------------------------------------------

def _refine(cubes, colours):
    """Colour refinement of the irreducibles of several cubes at once.

    Colours are ints from one palette shared by all cubes, so equal colours
    mean equal refined invariants.
    """
    for _ in range(max(len(c) for c in cubes) + 1):
        palette: dict = {}
        new = []
        for cube, col in zip(cubes, colours):
            k = len(cube)
            sig = [(col[i], tuple(sorted(
                (int(cube[x, i, y]), int(cube[x, y, i]), int(cube[i, x, y]),
                 col[x], col[y]) for x in range(k) for y in range(k))))
                for i in range(k)]
            new.append([palette.setdefault(s, len(palette)) for s in sig])
        if all(len(set(n)) == len(set(c)) for n, c in zip(new, colours)):
            return new
        colours = new
    return colours


def same_up_to_relabel(cube_a, cube_b, dims_a=None, dims_b=None) -> bool:
    """True iff some permutation p gives cube_a[i,j,k] = cube_b[p i, p j, p k]
    (and dims_a[i] = dims_b[p i] when dims are given)."""
    a, b = np.asarray(cube_a, dtype=int), np.asarray(cube_b, dtype=int)
    if a.shape != b.shape or a.ndim != 3:
        return False
    k = len(a)
    init = [list(dims_a) if dims_a is not None else [0] * k,
            list(dims_b) if dims_b is not None else [0] * k]
    palette = {v: n for n, v in enumerate(sorted(set(init[0] + init[1])))}
    ca, cb = _refine([a, b], [[palette[v] for v in c] for c in init])
    if sorted(ca) != sorted(cb):
        return False
    perm = [-1] * k
    used = [False] * k

    def consistent(i):
        for x in range(i + 1):
            for y in range(i + 1):
                px, py, pi = perm[x], perm[y], perm[i]
                if (a[i, x, y] != b[pi, px, py] or a[x, i, y] != b[px, pi, py]
                        or a[x, y, i] != b[px, py, pi]):
                    return False
        return True

    def search(i):
        if i == k:
            return True
        for j in range(k):
            if not used[j] and cb[j] == ca[i]:
                perm[i], used[j] = j, True
                if consistent(i) and search(i + 1):
                    return True
                perm[i], used[j] = -1, False
        return False

    return search(0)


# -- label-free normal forms ----------------------------------------------------

def normal_form(cmd: str, doc: dict) -> dict:
    """The part of a command's output that the reference pins down."""
    if cmd == "check":
        return {"dim": doc["dim"], "pass": doc["pass"],
                "residual_keys": sorted(doc["residuals"])}
    if cmd == "irr":
        rows = sorted([len(r["orbit"]), r["cocycle_trivial"], r["dim_u"],
                       r["dim_v"], r["dim"]] for r in doc["irreps"])
        return {"count": doc["count"], "sum_dim_sq": doc["sum_dim_sq"], "rows": rows}
    if cmd == "fuse":
        return {"dims": doc["dims"], "cube": doc["cube"]}
    if cmd == "conj":
        pairing = doc["conjugation"]
        fixed = sum(1 for k, v in pairing.items() if k == v)
        return {"fixed": fixed, "pairs": (len(pairing) - fixed) // 2}
    if cmd == "oracle":
        return {"irr_dims": doc["irr_dims"], "cube": doc["fusion_cube"]}
    if cmd == "induce":
        return {"dim": doc["dim"], "irreducible": doc["irreducible"],
                "character": doc["character"]}
    raise KeyError(cmd)


def matches_reference(cmd: str, got: dict, ref: dict) -> bool:
    if cmd == "fuse":
        return same_up_to_relabel(got["cube"], ref["cube"], got["dims"], ref["dims"])
    if cmd == "oracle":
        return (got["irr_dims"] == ref["irr_dims"]
                and same_up_to_relabel(got["cube"], ref["cube"]))
    if cmd == "induce":
        return (got["dim"] == ref["dim"] and got["irreducible"] == ref["irreducible"]
                and np.allclose(got["character"], ref["character"], atol=CHAR_ATOL,
                                rtol=0))
    return got == ref


# -- invariants -------------------------------------------------------------------

def _invariants(job, doc: dict) -> list[str]:
    facts = job.facts
    cmd = job.cmd
    out = []
    if cmd == "check":
        if doc.get("pass") is not True:
            out.append("check: pass is not true")
    elif cmd == "irr":
        dims = sorted(r["dim"] for r in doc["irreps"])
        if sum(d * d for d in dims) != facts["dim"]:
            out.append(f"irr: sum dim^2 = {sum(d * d for d in dims)} != {facts['dim']}")
        if facts["irr_dims"] is not None and dims != facts["irr_dims"]:
            out.append(f"irr: dims {dims} != {facts['irr_dims']}")
        if doc["count"] != len(dims):
            out.append("irr: count disagrees with the rows")
    elif cmd == "fuse":
        cube = np.asarray(doc["cube"])
        dims = np.asarray(doc["dims"])
        k = len(dims)
        if cube.shape != (k, k, k) or not np.issubdtype(cube.dtype, np.integer):
            out.append(f"fuse: cube of shape {cube.shape} and type {cube.dtype}")
        elif (cube < 0).any():
            out.append("fuse: negative entry")
        elif not np.array_equal(np.einsum("ajk,a->jk", cube, dims),
                                np.outer(dims, dims)):
            out.append("fuse: sum_w1 N dim w1 != dim w2 dim w3")
        if facts["irr_dims"] is not None and sorted(doc["dims"]) != facts["irr_dims"]:
            out.append(f"fuse: dims {sorted(doc['dims'])} != {facts['irr_dims']}")
    elif cmd == "conj":
        pairing = doc["conjugation"]
        if any(pairing.get(v) != k for k, v in pairing.items()):
            out.append("conj: the map is not an involution")
    elif cmd == "oracle":
        if sum(d * d for d in doc["irr_dims"]) != facts["dim"]:
            out.append("oracle: sum irr_dims^2 != dim")
    elif cmd == "induce":
        want = facts["lam_order"] * facts["base_dims"][facts["x"]]
        if doc["dim"] != want:
            out.append(f"induce: dim {doc['dim']} != |Lambda| dim u_x = {want}")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_output(job, text: str, reference: dict) -> list[str]:
    """Problems with one job's structured output; empty means accepted."""
    try:
        doc = json.loads(text)
        problems = _invariants(job, doc)
        got = normal_form(job.cmd, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{job.key}: malformed output ({type(exc).__name__}: {exc})"]
    ref = reference.get(job.key)
    if ref is None:
        problems.append("no reference recorded")
    elif not matches_reference(job.cmd, got, ref):
        problems.append("differs from the reference")
    return [f"{job.key}: {p}" for p in problems]


# -- recording the reference --------------------------------------------------------

def record(root: Path, seed: int = 0) -> dict:
    """Run every job any workload can draw, in-process, and keep normal forms."""
    import contextlib
    import io
    import tempfile

    import inputs
    from semirep import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        if rc != 0:
            raise SystemExit(f"reference job {argv} exited {rc}")
        return json.loads(buf.getvalue())

    ref = {}
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as tmp:
        tmp = Path(tmp)
        jobs = (inputs.workload_jobs("fuse-cube", seed, tmp, root)
                + inputs.workload_jobs("ladder", seed, tmp, root))
        for inst_id, spec, dims in inputs.sweep_family():
            jobs += inputs.sweep_jobs(inst_id, spec, dims, range(len(dims)),
                                      tmp, root)
        for job in jobs:
            doc = run(job.argv(seed))
            problems = _invariants(job, doc)
            if problems:
                raise SystemExit(f"{job.key}: {problems}")
            ref[job.key] = normal_form(job.cmd, doc)
    return dict(sorted(ref.items()))


if __name__ == "__main__":
    import argparse
    import os
    import sys

    ap = argparse.ArgumentParser(description="Record the label-free reference "
                                             "outputs of every benchmark job.")
    ap.add_argument("--record", action="store_true", required=True)
    ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    (root / ".perfbench").mkdir(exist_ok=True)
    os.chdir(root)
    REFERENCE.write_text(json.dumps(record(root), separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE}")
