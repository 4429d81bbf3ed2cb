"""Every top-level function and class in src/semirep is reached from the library.

A definition counts as reached when its own module uses it outside its own
body, or another module (other than __init__, which only re-exports) imports
it by name. Code that only tests call belongs in tests/; the few names kept
for another reason are listed in KEEP with that reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semirep"

ACCEPTANCE = "acceptance reference (tests/test_acceptance.py)"
ROADMAP_1 = "ROADMAP item 1 plans a second route through it"
BENCHMARK = "benchmark input (perfbench/inputs.py)"

KEEP = {
    ("cohomology", "is_trivial_class"): ROADMAP_1,
    ("cohomology", "try_solve_coboundary"): ROADMAP_1,
    ("corpus", "instance"): ACCEPTANCE,
    ("groups", "all_subgroups"): ACCEPTANCE,
    ("hopf", "haar_solve"): ACCEPTANCE,
    ("hopf", "is_kac"): ACCEPTANCE,
    ("induction", "ind_mor_dim"): ACCEPTANCE,
    ("induction", "induced_character"): ACCEPTANCE,
    ("mackey", "param_mor_dim"): ACCEPTANCE,
    ("groups", "automorphisms"): BENCHMARK,
    ("groups", "cyclic_group"): BENCHMARK,
    ("groups", "dihedral_group"): BENCHMARK,
    ("groups", "direct_product"): BENCHMARK,
    ("groups", "quaternion_group"): BENCHMARK,
    ("groups", "symmetric_group"): BENCHMARK,
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _reached(modules) -> set[tuple[str, str]]:
    reached = set()
    for mod, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reached.update((node.module, alias.name) for alias in node.names)
        names = [_names(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and any(
                    node.name in used for j, used in enumerate(names) if j != i):
                reached.add((mod, node.name))
    return reached


def _definitions(modules) -> set[tuple[str, str]]:
    return {(mod, node.name) for mod, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_definition_is_reached_or_kept():
    modules = _modules()
    unreached = _definitions(modules) - _reached(modules)
    stray = sorted(f"{mod}.{name}" for mod, name in unreached - KEEP.keys())
    assert not stray, f"only tests reach these; move them to tests/: {stray}"


def test_keep_lists_only_unreached_definitions():
    modules = _modules()
    stale = sorted(f"{mod}.{name}" for mod, name in KEEP.keys()
                   & (_reached(modules) | (KEEP.keys() - _definitions(modules))))
    assert not stale, f"KEEP entries that are reached or gone: {stale}"
