"""Fusion builds each shared artifact once per run and still runs every route.

The counting test wraps the functions `fusion` reaches through module
globals, so it sees exactly the calls a traced run sees.
"""

from itertools import product

import numpy as np
import pytest

from semirep import cli, mackey, oracle
from semirep.corpus import INSTANCES
from semirep.errors import OracleDisagreement
from semirep.groups import left_cosets
from semirep.mackey import (FusionTable, GRParameter, RepParameter, classify,
                            fusion, fusion_entry)

from helpers import spy


def test_fusion_runs_every_route_and_builds_each_artifact_once(inst_d, monkeypatch):
    cl = classify(inst_d)
    k = len(cl)
    cosets = sum(len(left_cosets(w.parameter.lambda0)) for w in cl)
    incidences = spy(monkeypatch, mackey, "incidence")
    reductions = spy(monkeypatch, mackey, "reduce_grp")
    csrs = spy(monkeypatch, mackey, "csr_corep")
    module_homs = spy(monkeypatch, oracle, "module_hom_dim")

    table = fusion(inst_d, cl)

    # one incidence, with its GRP reduction, per (entry, coset triple); one
    # module-hom count per entry
    assert cosets ** 3 == k ** 3 == 1728
    assert len(incidences) == len(reductions) == cosets ** 3
    assert len(module_homs) == k ** 3
    assert table.evaluated == {"formula": k ** 3, "characters": k ** 3,
                               "modules": k ** 3}
    assert table.agreement() == "3/3 methods agree"

    # csr_corep: once per distinct GRP, once per non-empty reduction, and
    # never for a classified parameter
    classified_params = {w.parameter for w in cl}
    params = [args[1] for args, _ in csrs]
    assert not classified_params.intersection(params)
    grps = [p for p in params if not isinstance(p, RepParameter)]
    assert all(isinstance(p, GRParameter) for p in grps)
    assert len({id(p) for p in grps}) == len(grps)
    nonempty = sum(1 for _, red in reductions if red is not None)
    assert len(params) - len(grps) == nonempty
    assert len(params) <= len(grps) + nonempty


def test_fusion_cube_equals_standalone_entries(inst_c):
    cl = classify(inst_c)
    cube = fusion(inst_c, cl).coefficients
    k = len(cl)
    standalone = np.zeros((k, k, k), dtype=int)
    for i1, i2, i3 in product(range(k), repeat=3):
        standalone[i1, i2, i3] = fusion_entry(inst_c, cl[i1], cl[i2], cl[i3])
    assert np.array_equal(cube, standalone)


def test_agreement_requires_every_route_on_every_entry(inst_a):
    cl = classify(inst_a)
    full = fusion(inst_a, cl)
    n = len(cl) ** 3
    assert full.agreement() == "3/3 methods agree"
    for route in ("formula", "characters", "modules"):
        short = FusionTable(full.irreps, full.coefficients,
                            {**full.evaluated, route: n - 1})
        with pytest.raises(OracleDisagreement, match=route):
            short.agreement()
    missing = FusionTable(full.irreps, full.coefficients,
                          {"formula": n, "characters": n})
    with pytest.raises(OracleDisagreement, match="modules"):
        missing.agreement()


def test_fuse_exits_2_when_a_route_was_skipped(monkeypatch, capsys):
    real = cli.fusion

    def skipping(inst, classified):
        table = real(inst, classified)
        return FusionTable(table.irreps, table.coefficients,
                           {**table.evaluated, "modules": 0})

    monkeypatch.setattr(cli, "fusion", skipping)
    assert cli.main(["fuse", str(INSTANCES / "instance_a.json"), "--format", "structured"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle disagreement" in captured.err
