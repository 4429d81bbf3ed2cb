"""Property-based checks over generated inputs: relabelling Lambda's elements
moves the classification and the fusion cube and nothing else, and any JSON
document given as an instance file ends `check` and `irr` with exit code 0, 1
or 2 and no traceback."""

import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semirep import cli
from semirep.corpus import build_instance, instance_spec
from semirep.mackey import classify, fusion

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def relabelled(spec: dict, pi) -> dict:
    """The instance with Lambda's element r renamed pi[r]."""
    pi = np.asarray(pi)
    table = np.asarray(spec["lambda"]["table"])
    moved = np.empty_like(table)
    moved[np.ix_(pi, pi)] = pi[table]
    action = [spec["action"][r] for r in np.argsort(pi)]
    return dict(spec, action=action, **{"lambda": dict(spec["lambda"], table=moved.tolist())})


def _classified(spec: dict):
    inst = build_instance(spec)
    cl = classify(inst)
    return inst, cl, fusion(inst, cl).coefficients


_shipped = functools.cache(lambda name: _classified(instance_spec(name)))


@pytest.mark.parametrize("name", "GH")
@settings(PROPERTY, max_examples=3)
@given(pi=st.permutations(range(6)).filter(lambda p: p != sorted(p)))
def test_relabelling_lambda_permutes_classification_and_cube(name, pi):
    """With characters matched through chi'[pi(r) d + i] = chi[r d + i], each
    irreducible keeps its dims, orbit on Irr(G) and cocycle class, and the
    cube is the same cube under the matching."""
    inst, cl, cube = _shipped(name)
    _, moved, moved_cube = _classified(relabelled(instance_spec(name), pi))
    d = inst.base.dim
    assert len(moved) == len(cl)
    match = []
    for w in cl:
        chi = np.empty_like(w.character).reshape(-1, d)
        chi[list(pi)] = w.character.reshape(-1, d)
        hits = [j for j, x in enumerate(moved)
                if np.allclose(x.character, chi.reshape(-1), atol=1e-8)]
        assert len(hits) == 1, (w.label, hits)
        x = moved[hits[0]]
        assert (x.dim, x.parameter.u.dim, x.parameter.v.dim, x.orbit, x.cocycle_trivial) \
            == (w.dim, w.parameter.u.dim, w.parameter.v.dim, w.orbit, w.cocycle_trivial)
        match.append(hits[0])
    assert sorted(match) == list(range(len(cl)))
    assert np.array_equal(moved_cube[np.ix_(match, match, match)], cube)


# the field names of the instance-file schema, top level and nested
SCHEMA_KEYS = ["name", "kind", "base", "lambda", "action", "seed", "order", "table",
               "mult", "unit", "comult", "counit", "antipode", "star", "haar"]
KINDS = ["function_algebra", "group_algebra", "raw_hopf"]

json_trees = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(width=32)
    | st.sampled_from(KINDS) | st.text("abk_ :", max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=5),
    max_leaves=24)

# documents with the required fields, each a tree
documents = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS) | json_trees, "base": json_trees,
     "lambda": json_trees, "action": json_trees},
    optional={"name": json_trees, "seed": json_trees})
# a shipped document with one top-level field replaced, or added
mutations = st.builds(lambda name, key, value: dict(instance_spec(name), **{key: value}),
                      st.sampled_from("ABC"), st.sampled_from(SCHEMA_KEYS[:6]), json_trees)


@settings(PROPERTY, max_examples=120)
@given(doc=json_trees | documents | mutations)
def test_any_json_document_exits_cleanly(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("check", "irr"):
        assert cli.main([command, str(path)]) in (0, 1, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") <= 1, err
