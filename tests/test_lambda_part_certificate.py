"""In src/semirep only semidirect.join_covariant calls ordinary_rep.

The Lambda part of a covariant pair must be an ordinary representation: in a
CSR corep the cocycles of v and V cancel. That law is certified once, from
the matrices, where the pair is joined. Every corep built from a pair (the
CSR coreps of classified parameters, GRPs and reductions, and the induced
coreps) goes through join_covariant, so no other caller certifies it again.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semirep"


def _scopes(tree: ast.Module):
    """(name, node) for each top-level statement, a class's methods as
    'Class.method'."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                yield f"{top.name}.{getattr(node, 'name', '<body>')}", node
        else:
            yield getattr(top, "name", "<module>"), top


def _callers(mod: str, tree: ast.Module, name: str) -> list[str]:
    """'module.scope:line' for every call of `name`, bare or as an attribute."""
    found = []
    for scope, top in _scopes(tree):
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append(f"{mod}.{scope}:{node.lineno}")
    return found


def test_only_join_covariant_calls_ordinary_rep():
    found = [hit for p in sorted(SRC.glob("*.py"))
             for hit in _callers(p.stem, ast.parse(p.read_text()), "ordinary_rep")]
    assert found and {hit.split(":")[0] for hit in found} == {
        "semidirect.join_covariant"}, found


def test_guard_sees_every_call_form():
    code = ("from .projective import ordinary_rep\n"
            "def split(inst, mats):\n"
            "    return ordinary_rep(inst.lam, mats)\n"
            "class Pair:\n"
            "    def part(self):\n"
            "        return projective.ordinary_rep(self.lam, self.mats)\n"
            "RULE = ordinary_rep\n")
    assert _callers("induction", ast.parse(code), "ordinary_rep") == [
        "induction.split:3", "induction.Pair.part:6"]
