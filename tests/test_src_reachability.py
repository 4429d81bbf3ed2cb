"""Every top-level function and class in src/semirep, and every method of
those classes, is reached from the library.

A top-level definition counts as reached when its own module uses it outside
its own body, or another module (other than __init__, which only re-exports)
imports it by name. A method (dunders exempt) counts as reached when its name
appears as an attribute anywhere in src/semirep outside its own body. Code
that only tests call belongs in tests/; the few names kept for another reason
are listed in KEEP with that reason, methods as "Class.method".
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "semirep"

ACCEPTANCE = "acceptance reference (tests/test_acceptance.py)"
BENCHMARK = "benchmark input (perfbench/inputs.py)"
PAIR_REFERENCE = "reference that tests compare `pair` against"
TRACED = "one-pair module-hom count that perfbench/tracer.py wraps"

KEEP = {
    ("corpus", "instance"): ACCEPTANCE,
    ("groups", "all_subgroups"): ACCEPTANCE,
    ("hopf", "haar_solve"): ACCEPTANCE,
    ("hopf", "is_kac"): ACCEPTANCE,
    ("induction", "ind_mor_dim"): ACCEPTANCE,
    ("induction", "induced_character"): ACCEPTANCE,
    ("mackey", "param_mor_dim"): ACCEPTANCE,
    ("mackey", "stabilizer_of_class"): ACCEPTANCE,
    ("groups", "automorphisms"): BENCHMARK,
    ("groups", "cyclic_group"): BENCHMARK,
    ("groups", "dihedral_group"): BENCHMARK,
    ("groups", "direct_product"): BENCHMARK,
    ("groups", "quaternion_group"): BENCHMARK,
    ("groups", "symmetric_group"): BENCHMARK,
    ("hopf", "HopfData.haar_vec"): PAIR_REFERENCE,
    ("oracle", "module_hom_dim"): TRACED,
}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _attributes(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _methods(modules):
    """(module, "Class.method", node) for every non-dunder method."""
    for mod, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not (
                            node.name.startswith("__") and node.name.endswith("__")):
                        yield mod, f"{cls.name}.{node.name}", node


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
    attributes = sum((_attributes(tree) for tree in modules.values()), Counter())
    reached.update((mod, name) for mod, name, node in _methods(modules)
                   if attributes[node.name] > _attributes(node)[node.name])
    return reached


def _definitions(modules) -> set[tuple[str, str]]:
    top = {(mod, node.name) for mod, tree in modules.items() for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    return top | {(mod, name) for mod, name, _ in _methods(modules)}


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
