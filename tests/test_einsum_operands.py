"""Every np.einsum in src/semirep contracts at most two operands and passes no
optimize= keyword.

A two-operand einsum has one contraction order, so what it costs is read
from its subscripts. A third operand leaves numpy to pick the order, and
without optimize= it takes the one-pass path, looping over every index at
once. A longer product is written as matmuls or as a chain of two-operand
einsums instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semirep"


def _einsum_calls(path: Path) -> list[ast.Call]:
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]


def _fault(call: ast.Call) -> str | None:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return "unpacks its operands"
    if len(call.args) > 3:
        return f"has {len(call.args) - 1} operands"
    if any(kw.arg in ("optimize", None) for kw in call.keywords):
        return "passes optimize= or **kwargs"
    return None


def test_every_einsum_has_at_most_two_operands_and_no_optimize():
    calls = {path.stem: _einsum_calls(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(map(len, calls.values())), "no np.einsum found: the scan reads the wrong files"
    faults = [f"{mod}:{call.lineno} {_fault(call)}" for mod, found in calls.items()
              for call in found if _fault(call)]
    assert not faults, faults
