"""Non-table algebras end to end: the shipped instances on a rescaled basis.

On the basis e'_i = s_i e_i, s_i = 2 on odd i (helpers.rescaled_spec), a
shipped instance is the same Hopf algebra, but its comult has nonzeros other
than 1, so it is no table: every dual basis element is a generator, and
coassociativity joins. Every count the commands print is basis-free, so the
structured output must be the shipped instance's, its name aside.
"""

import json

import numpy as np
import pytest

from semirep import cli, hopf
from semirep.corpus import INSTANCES, build_instance

from helpers import rescaled_spec

CASES = "ACEF"
COMMANDS = ("irr", "fuse", "conj", "oracle")
INDUCE = ("--subgroup", "0", "--param", "x:1,v:0")


@pytest.fixture(scope="module")
def rescaled_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("rescaled")
    paths = {}
    for name in CASES:
        paths[name] = out / f"rescaled_{name.lower()}.json"
        paths[name].write_text(json.dumps(rescaled_spec(name)))
    return paths


def structured(capsys, *argv) -> dict:
    assert cli.main([*map(str, argv), "--format", "structured"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("name", CASES)
def test_rescaled_comult_is_no_table_and_every_index_generates(name):
    inst = build_instance(rescaled_spec(name))
    for h in (inst.base, inst.product):
        assert hopf._tables(h).comult is None
        assert np.array_equal(h.generators(), np.arange(h.dim))
        assert not h.generators().flags.writeable


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("name", CASES)
def test_rescaled_output_equals_the_table_instance(name, cmd, rescaled_paths, capsys):
    got = structured(capsys, cmd, rescaled_paths[name])
    want = structured(capsys, cmd, INSTANCES / f"instance_{name.lower()}.json")
    assert got.pop("name") != want.pop("name")
    assert got == want


@pytest.mark.parametrize("name", CASES)
def test_rescaled_check_and_induce(name, rescaled_paths, capsys):
    assert structured(capsys, "check", rescaled_paths[name])["pass"] is True
    got = structured(capsys, "induce", rescaled_paths[name], *INDUCE)
    want = structured(capsys, "induce", INSTANCES / f"instance_{name.lower()}.json", *INDUCE)
    assert (got["dim"], got["irreducible"]) == (want["dim"], want["irreducible"])
