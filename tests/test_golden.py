"""Structured CLI output pinned across commits.

tests/golden holds the structured output of irr, conj and oracle on A-D and of
fuse on A-C with --seed 7. A refactor that keeps the arithmetic must reproduce
these files byte for byte.
"""

from pathlib import Path

import pytest

from semirep.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(cmd, x) for cmd in ("irr", "conj", "oracle") for x in "abcd"] + \
    [("fuse", x) for x in "abc"]


@pytest.mark.parametrize("cmd,name", CASES)
def test_structured_output_matches_golden(cmd, name, capsys):
    path = ROOT / "instances" / f"instance_{name}.json"
    code = main([cmd, str(path), "--format", "structured", "--seed", "7"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{cmd}_{name}.json").read_text()
