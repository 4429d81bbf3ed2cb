"""Property-based checks over generated inputs: relabelling the elements of
Lambda or of the base group K moves the classification and the fusion cube and
nothing else, and any JSON document given as an instance file ends `check` and
`irr` with exit code 0, 1 or 2 and no traceback."""

import functools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from semirep import cli
from semirep.corpus import build_instance, instance_spec
from semirep.mackey import classify, conjugation_pairing, fusion

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


def relabelled_base(spec: dict, pi) -> dict:
    """The instance with the base group's element k renamed pi[k]: its table
    and every automorphism in the action move with it."""
    pi = np.asarray(pi)
    table = np.asarray(spec["base"]["table"])
    moved = np.empty_like(table)
    moved[np.ix_(pi, pi)] = pi[table]
    action = np.empty_like(np.asarray(spec["action"]))
    action[:, pi] = pi[np.asarray(spec["action"])]
    return dict(spec, action=action.tolist(), base=dict(spec["base"], table=moved.tolist()))


def _classified(spec: dict):
    inst = build_instance(spec)
    cl = classify(inst)
    return inst, cl, fusion(inst, cl).coefficients


_shipped = functools.cache(lambda name: _classified(instance_spec(name)))


def _conjugates(inst, cl) -> list[int]:
    labels = [w.label for w in cl]
    return [labels.index(conjugation_pairing(inst, w, cl)) for w in cl]


def _matching(name: str, moved, where) -> list[int]:
    """The index among the moved irreducibles of each of the shipped
    instance's, matched through chi'[where] = chi. Each keeps its dims, orbit
    size and cocycle class, and the cube is the same cube under the
    matching."""
    _, cl, cube = _shipped(name)
    _, moved, moved_cube = moved
    assert len(moved) == len(cl)
    match = []
    for w in cl:
        chi = np.empty_like(w.character)
        chi[where] = w.character
        hits = [j for j, x in enumerate(moved) if np.allclose(x.character, chi, atol=1e-8)]
        assert len(hits) == 1, (w.label, hits)
        x = moved[hits[0]]
        assert (x.dim, x.parameter.u.dim, x.parameter.v.dim, len(x.orbit), x.cocycle_trivial) \
            == (w.dim, w.parameter.u.dim, w.parameter.v.dim, len(w.orbit), w.cocycle_trivial)
        match.append(hits[0])
    assert sorted(match) == list(range(len(cl)))
    assert np.array_equal(moved_cube[np.ix_(match, match, match)], cube)
    return match


@pytest.mark.parametrize("name", "GH")
@settings(PROPERTY, max_examples=3)
@given(pi=st.permutations(range(6)).filter(lambda p: p != sorted(p)))
def test_relabelling_lambda_permutes_classification_and_cube(name, pi):
    """With characters matched through chi'[pi(r) d + i] = chi[r d + i], each
    irreducible keeps its dims, orbit on Irr(G) and cocycle class, and the
    cube is the same cube under the matching."""
    inst, cl, _ = _shipped(name)
    d = inst.base.dim
    moved = _classified(relabelled(instance_spec(name), pi))
    match = _matching(name, moved, (np.asarray(pi)[:, None] * d + np.arange(d)).ravel())
    assert [moved[1][j].orbit for j in match] == [w.orbit for w in cl]


@pytest.mark.parametrize("name", "BC")
@settings(PROPERTY, max_examples=3)
@given(data=st.data())
def test_relabelling_the_base_group_permutes_classification_and_cube(name, data):
    """B is a function algebra and C a group algebra, so the base basis is K
    either way. With characters matched through chi'[r d + pi(k)] =
    chi[r d + k], each irreducible keeps its dims, orbit size, cocycle class
    and conjugate, and the cube is the same cube under the matching."""
    inst, cl, _ = _shipped(name)
    d = inst.base.dim
    pi = data.draw(st.permutations(range(d)).filter(lambda p: p != sorted(p)))
    moved = _classified(relabelled_base(instance_spec(name), pi))
    match = _matching(name, moved, (np.arange(inst.lam_full.order)[:, None] * d + pi).ravel())
    moved_bar = _conjugates(*moved[:2])
    assert [moved_bar[j] for j in match] == [match[b] for b in _conjugates(inst, cl)]


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
