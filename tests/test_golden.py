"""CLI output pinned across commits, in both formats.

tests/golden holds the structured output (<cmd>_<x>.json) and the default
human output (<cmd>_<x>.txt) of check, irr, conj and oracle on A-D, of
oracle on E and F (whose regular modules are the largest split), of fuse on
A-F (D's 1,728-entry cube shares the most GRP reductions between
entries, E has nontrivial isotropy, and F has a cocycle of nontrivial class,
which interning projective reps by content must keep apart), of induce
(--subgroup 0 --param x:1,v:0) on A-C, and of irr, conj, oracle, fuse and
induce on the two instances with a nonabelian Lambda: G (induce --subgroup
0,2 --param x:0,v:0) and H (induce --subgroup 0,5 --param x:0,v:0), and of
check, irr and conj on I, whose two 9-dimensional irreducibles carry a
cocycle of order 3, all with --seed 7. A refactor that keeps the arithmetic
must reproduce these files byte for byte.
"""

from pathlib import Path

import pytest

from semirep.cli import main
from semirep.corpus import INSTANCES

GOLDEN = Path(__file__).resolve().parent / "golden"
INDUCE_ARGS = {"g": ("0,2", "x:0,v:0"), "h": ("0,5", "x:0,v:0")}
CASES = [(cmd, x) for cmd in ("check", "irr", "conj", "oracle") for x in "abcd"] + \
    [("oracle", "e"), ("oracle", "f")] + \
    [(cmd, x) for cmd in ("fuse", "induce") for x in "abc"] + [("fuse", x) for x in "def"] + \
    [(cmd, x) for cmd in ("irr", "conj", "oracle", "fuse", "induce") for x in "gh"] + \
    [(cmd, "i") for cmd in ("check", "irr", "conj")]


def extra_args(cmd, name):
    if cmd != "induce":
        return []
    subgroup, param = INDUCE_ARGS.get(name, ("0", "x:1,v:0"))
    return ["--subgroup", subgroup, "--param", param]


@pytest.mark.parametrize("cmd,name", CASES)
def test_structured_output_matches_golden(cmd, name, capsys):
    path = INSTANCES / f"instance_{name}.json"
    code = main([cmd, str(path), "--format", "structured", "--seed", "7",
                 *extra_args(cmd, name)])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{cmd}_{name}.json").read_text()


@pytest.mark.parametrize("cmd,name", CASES)
def test_human_output_matches_golden(cmd, name, capsys):
    """The default format, with no --format flag."""
    path = INSTANCES / f"instance_{name}.json"
    assert main([cmd, str(path), "--seed", "7", *extra_args(cmd, name)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{cmd}_{name}.txt").read_text()
