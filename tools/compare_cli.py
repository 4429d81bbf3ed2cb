"""Compare the command line of two semirep source trees, byte for byte.

    python3 tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are `src` directories, for instance this checkout's and
that of an unpacked parent commit (`git archive`). Each case runs
`python -m semirep.cli` in a fresh process with PYTHONPATH set to one tree:
check, irr, fuse, conj, oracle and induce (with the golden cases' arguments,
tests/test_golden.py) on the shipped instances A-H and on the same instances
on a rescaled basis (tests/helpers.rescaled_spec, whose comult is no table),
in both formats and with seeds 7 and 3, two processes at a time; check, irr
and conj, I's golden commands, and fuse on the shipped instance I (dim 243,
k = 83 irreps), the longest case and the one whose reduction counts come in
the largest batches, which no golden covers; and check alone on
C(S5) x| Z2 (dim 240) and C(S5) x| S3 (dim 720), Lambda acting by
conjugation (tests/helpers.conjugation_spec), where the table certificates
of verify_axioms run at scale. The rescaled and conjugation files are written
by this checkout's tests/helpers into a temporary directory. Each child
runs with OPENBLAS_NUM_THREADS=1 unless the variable is already set: with
one BLAS thread per core in each of two processes, LAPACK calls thrash on a
small machine.

Prints every case whose stdout, stderr or exit code differ, then the counts
of differing cases and of cases that exit nonzero on NEW_SRC; exits 1 if any
case differs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import conjugation_spec, rescaled_spec  # noqa: E402
from semirep.groups import cyclic_group, symmetric_group  # noqa: E402
from test_golden import extra_args  # noqa: E402

NAMES = "abcdefgh"
COMMANDS = ("check", "irr", "fuse", "conj", "oracle", "induce")
I_COMMANDS = ("check", "irr", "conj", "fuse")
FORMATS = ("human", "structured")
SEEDS = (7, 3)
JOBS = 2
PERMS3 = sorted(itertools.permutations(range(3)))
# C(S5) x| Lambda by conjugation: Lambda, and r -> the permutation r conjugates by
LARGE = {"s5_z2": (cyclic_group(2), lambda r: (1, 0, 2, 3, 4) if r else (0, 1, 2, 3, 4)),
         "s5_s3": (symmetric_group(3), lambda r: (*PERMS3[r], 3, 4))}


def cases(tmp: Path):
    """(label, argv) of every case; the instance name picks the induce args."""
    files = {}
    for name in NAMES:
        files[name] = ROOT / "instances" / f"instance_{name}.json"
        files[f"rescaled {name}"] = tmp / f"rescaled_{name}.json"
        files[f"rescaled {name}"].write_text(json.dumps(rescaled_spec(name)))
    for (label, path), cmd, fmt, seed in itertools.product(files.items(), COMMANDS,
                                                           FORMATS, SEEDS):
        argv = [cmd, str(path), "--format", fmt, "--seed", str(seed),
                *extra_args(cmd, label[-1])]
        yield f"{cmd} {label} --format {fmt} --seed {seed}", argv
    large = [(cmd, "i", ROOT / "instances" / "instance_i.json") for cmd in I_COMMANDS]
    for label, (lam, embed) in LARGE.items():
        path = tmp / f"{label}.json"
        path.write_text(json.dumps(conjugation_spec(5, range(120), lam, embed)))
        large.append(("check", label, path))
    for (cmd, label, path), fmt, seed in itertools.product(large, FORMATS, SEEDS):
        yield (f"{cmd} {label} --format {fmt} --seed {seed}",
               [cmd, str(path), "--format", fmt, "--seed", str(seed)])


def run(src: str, argv: list[str], cwd: str) -> tuple[str, str, int]:
    env = dict(os.environ, PYTHONPATH=src)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    proc = subprocess.run([sys.executable, "-m", "semirep.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(itertools.zip_longest(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return "trailing newline"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args(argv)
    srcs = [str(Path(s).resolve()) for s in (args.old_src, args.new_src)]
    with tempfile.TemporaryDirectory() as tmp:
        todo = list(cases(Path(tmp)))
        with ThreadPoolExecutor(JOBS) as pool:
            outs = list(pool.map(lambda job: run(*job),
                                 [(src, argv, tmp) for _, argv in todo for src in srcs]))
    differ = 0
    for i, (label, _) in enumerate(todo):
        old, new = outs[2 * i], outs[2 * i + 1]
        if old == new:
            continue
        differ += 1
        print(f"DIFFERS: {label}")
        for stream, a, b in zip(("stdout", "stderr", "exit code"), old, new):
            if a != b:
                print(f"  {stream}: " + (f"{a} -> {b}" if stream == "exit code"
                                         else first_difference(a, b)))
    failed = sum(code != 0 for _, _, code in outs[1::2])
    print(f"{len(todo)} cases, {differ} differ; {failed} exit nonzero in NEW_SRC")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
