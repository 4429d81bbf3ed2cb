"""Only hopf reads or builds the structure tensors mult, comult and star of a
HopfData, and it keeps mult and comult in one format, their nonzeros.

Every other module does its algebra arithmetic through HopfData.product,
HopfData.coproduct and HopfData.star_vec; hopf.product_algebra builds the
tensors of a semidirect product from those of its base. FiniteGroup.mult, a
group's multiplication table, is a different attribute; it is told apart by
the name of its receiver. No array a HopfData holds, in its attributes or
its cache, has d^3 entries or more, even after every cached reader has run.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "semirep"

TENSORS = {"mult", "comult", "star"}
# Receivers of FiniteGroup.mult: in any module, and inside groups, where
# FiniteGroup and Subgroup are defined and no HopfData appears.
GROUP_RECEIVERS = {"lam", "g", "group"}
GROUPS_MODULE_RECEIVERS = {"self", "other", "self.parent"}


def _dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _is_group_table(mod: str, receiver: str) -> bool:
    return (receiver.rsplit(".", 1)[-1] in GROUP_RECEIVERS
            or (mod == "groups" and receiver in GROUPS_MODULE_RECEIVERS))


def _readers(mod: str, tree: ast.Module) -> list[str]:
    """'module.function:line receiver.attr' for every read of a structure tensor."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Attribute) and node.attr in TENSORS):
                continue
            receiver = _dotted(node.value)
            if node.attr == "mult" and _is_group_table(mod, receiver):
                continue
            found.append(f"{mod}.{getattr(top, 'name', '<module>')}:{node.lineno} "
                         f"{receiver}.{node.attr}")
    return found


def test_only_hopf_reads_structure_tensors():
    found = [hit for p in sorted(SRC.glob("*.py")) if p.stem != "hopf"
             for hit in _readers(p.stem, ast.parse(p.read_text()))]
    assert not found, f"read mult/comult/star through HopfData instead: {found}"


def test_guard_sees_a_dense_contraction():
    """The guard flags the forms the dense corep contractions took."""
    code = ("def tensor(u, w):\n"
            "    h = u.parent\n"
            "    a = np.tensordot(w.entries, h.mult, axes=([2], [1]))\n"
            "    b = np.einsum('pc,ijc->ijp', u.parent.star, u.entries)\n"
            "    return a, b, np.tensordot(u.entries, h.comult, axes=1), lam.mult\n")
    hits = _readers("corep", ast.parse(code))
    assert [h.split()[-1] for h in hits] == ["h.mult", "u.parent.star", "h.comult"]


def _arrays(obj):
    """Every array in obj, looking inside tuples, lists and dicts."""
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in _arrays(x)]
    if isinstance(obj, dict):
        return [a for x in obj.values() for a in _arrays(x)]
    return [obj] if hasattr(obj, "size") and hasattr(obj, "shape") else []


@pytest.mark.parametrize("case", [*"ABCDEFGH", "rung"])
def test_hopf_data_holds_no_cubic_array(case, request):
    """Checked on each product algebra after product, coproduct, gram and
    generators have filled the cache."""
    name = "rung_instance" if case == "rung" else f"inst_{case.lower()}"
    h = request.getfixturevalue(name).product
    x = np.ones(h.dim, dtype=complex)
    h.product(x, x)
    h.coproduct(x)
    h.gram()
    h.generators()
    assert {"mult_rows", "comult_cols", "gram", "generators"} <= h._cache.keys()
    sizes = [a.size for a in _arrays(vars(h))]
    assert max(sizes) < h.dim ** 3, (h.dim, max(sizes))
