"""Fusion builds each shared artifact once per run and still runs every route.

The counting test wraps the functions `fusion` reaches through module
globals, so it sees exactly the calls a traced run sees. The inputs it
expects are rebuilt here from their definitions and told apart by the bytes
of their arrays, never read from the tables.
"""

from itertools import product

import numpy as np
import pytest

from semirep import cli, mackey, oracle
from semirep.cohomology import Cochain2, trivial_cochain2
from semirep.corep import Corep, tensor as corep_tensor
from semirep.corpus import INSTANCES
from semirep.errors import IntegerRecoveryError, NonIntegerCoefficient, OracleDisagreement
from semirep.groups import (FiniteGroup, Subgroup, all_subgroups, conjugate_intersection,
                            conjugate_subgroup, left_cosets)
from semirep.mackey import (FusionTable, GRParameter, RepParameter, _FusionTables, classify,
                            fusion, move_rep)
from semirep.projective import ProjectiveRep, tensor as proj_tensor
from semirep.semidirect import act_corep

from helpers import fresh, restrict_param, spy, standalone_entry, translate_param


def _content(x):
    """The arrays of a corep or projective rep, as bytes."""
    if isinstance(x, Corep):
        return x.entries.shape, x.entries.tobytes()
    return x.mats.shape, x.mats.tobytes(), x.cocycle.values.tobytes()


def _distinct_inputs(inst, cl):
    """The content-distinct GRPs, (GRP, moved u1, moved V1) inputs of the
    reduction and (moved u1, GRP u) inputs of its isotypic basis, over every
    entry and coset triple. Each object is rebuilt here from its definition
    and compared by the bytes of its arrays, with the meet standing for its
    group: r . p on a meet is (r . u, r . V, r . v), and a GRP is
    (u2 (x) u3, V2 (x) V3, v2 (x) v3) of moved p2, p3."""
    moved = {}

    def move(p, r, meet):
        if (id(p), r, meet) not in moved:
            sub = Subgroup(inst.lam_full, meet)
            moved[id(p), r, meet] = (act_corep(inst, r, p.u),
                                     *(move_rep(inst, r, p.lambda0, sub, x) for x in (p.V, p.v)))
        return moved[id(p), r, meet]

    grps, reductions, isotypic = set(), set(), set()
    for w1, w2, w3 in product(cl, repeat=3):
        params = [w.parameter for w in (w1, w2, w3)]
        subs = [p.lambda0 for p in params]
        for reps in product(*([z for z, _ in left_cosets(s)] for s in subs)):
            meet = conjugate_intersection(subs, list(reps)).elements
            (u1, V1, _), q2, q3 = (move(p, r, meet) for p, r in zip(params, reps))
            grp = (meet, *(_content(f(x2, x3))
                           for f, x2, x3 in zip((corep_tensor, proj_tensor, proj_tensor), q2, q3)))
            grps.add(grp)
            reductions.add((grp, _content(u1), _content(V1)))
            isotypic.add((_content(u1), grp[1]))
    return len(grps), len(reductions), len(isotypic)


def test_fusion_runs_every_route_and_builds_each_artifact_once(inst_d, monkeypatch):
    cl = classify(inst_d)
    k = len(cl)
    cosets = sum(len(left_cosets(w.parameter.lambda0)) for w in cl)
    incidences = spy(monkeypatch, mackey, "incidence")
    reductions = spy(monkeypatch, mackey, "reduce_grp")
    bases = spy(monkeypatch, mackey, "intertwiner_basis")
    csrs = spy(monkeypatch, mackey, "csr_corep")
    module_homs = spy(monkeypatch, oracle, "hom_space_dims")

    table = fusion(inst_d, cl)

    # one incidence per (entry, coset triple); one module-hom count per
    # entry, each of the k^3 systems (w1, w2 (x) w3) counted exactly once
    assert cosets ** 3 == k ** 3 == 1728
    assert len(incidences) == cosets ** 3
    systems = [pair for (pairs,), _ in module_homs for pair in pairs]
    assert len(systems) == k ** 3
    assert len({(id(m1), id(m2)) for m1, m2 in systems}) == k ** 3
    assert {id(m1) for m1, _ in systems} == {id(w.induced.coeff_slices) for w in cl}
    assert len({id(m2) for _, m2 in systems}) == k ** 2
    assert table.evaluated == {"formula": k ** 3, "characters": k ** 3,
                               "modules": k ** 3}
    assert table.agreement() == "3/3 methods agree"

    # one GRP reduction per content-distinct (GRP, moved u1, moved V1), and
    # one isotypic basis per content-distinct (moved u1, GRP u). On D each
    # of the 12 parameters has one coset, its u is one of the 6 characters of
    # the base, its V the same one-dimensional rep and its v one of 2: so
    # 6 x 2 GRPs (u2 (x) u3 is again a character), 12 x 6 reductions and
    # 6 x 6 bases. Told apart by object identity they were 144, 864 and 216.
    want_grps, want_reductions, want_bases = _distinct_inputs(inst_d, cl)
    assert (want_grps, want_reductions, want_bases) == (12, 72, 36)
    assert len(reductions) == want_reductions
    assert len({tuple(map(id, args[1:4])) for args, _ in reductions}) == want_reductions
    assert len(bases) == want_bases
    assert len({tuple(map(id, args)) for args, _ in bases}) == want_bases

    # csr_corep: once per content-distinct GRP, once per non-empty
    # reduction, and never for a classified parameter
    classified_params = {w.parameter for w in cl}
    params = [args[1] for args, _ in csrs]
    assert not classified_params.intersection(params)
    grps = [p for p in params if not isinstance(p, RepParameter)]
    assert all(isinstance(p, GRParameter) for p in grps)
    assert len({id(p) for p in grps}) == len(grps) == want_grps
    nonempty = sum(1 for _, red in reductions if red is not None)
    assert len(params) - len(grps) == nonempty
    assert len(params) <= len(grps) + nonempty


def test_fusion_meets_on_a_nonabelian_lambda(inst_g, inst_h, monkeypatch):
    """On G and H (Lambda = S3) the stabilizers have several cosets and the
    meets are proper subgroups. One fusion run intersects once per distinct
    (Lambda_1, Lambda_2, Lambda_3, reps), takes one transversal per distinct
    Lambda0, and hands each incidence the meet of its own reps."""
    for inst in (inst_g, inst_h):
        cl = classify(inst)
        with monkeypatch.context() as patch:
            meets = spy(patch, mackey, "conjugate_intersection")
            transversals = spy(patch, mackey, "left_cosets")
            incidences = spy(patch, mackey, "incidence")
            fusion(inst, cl)

        stabilizers = [w.parameter.lambda0 for w in cl]
        triples = {(tuple(s.elements for s in subs), reps)
                   for subs in product(stabilizers, repeat=3)
                   for reps in product(*([z for z, _ in left_cosets(s)] for s in subs))}
        keys = [(tuple(s.elements for s in subs), tuple(reps)) for (subs, reps), _ in meets]
        assert len(keys) == len(set(keys)) and set(keys) == triples
        subs = [sub.elements for (sub,), _ in transversals]
        assert len(subs) == len(set(subs)) == len({s.elements for s in stabilizers})

        assert len(incidences) == sum(len(left_cosets(s)) for s in stabilizers) ** 3
        proper = 0
        for (_, params, reps, meet), _ in incidences:
            want = conjugate_intersection([p.lambda0 for p in params], list(reps))
            assert meet.parent is want.parent and meet.elements == want.elements
            proper += meet.order < min(p.lambda0.order for p in params)
        assert proper


def test_fusion_cube_equals_standalone_entries(inst_b, inst_c, inst_g):
    """Every entry from fresh tables equals the cube from one run's shared
    tables; G has a nonabelian Lambda, nontrivial coset representatives and
    meets."""
    for inst in (inst_b, inst_c, inst_g):
        cl = classify(inst)
        cube = fusion(inst, cl).coefficients
        k = len(cl)
        standalone = np.zeros((k, k, k), dtype=int)
        for i1, i2, i3 in product(range(k), repeat=3):
            standalone[i1, i2, i3] = standalone_entry(inst, cl[i1], cl[i2], cl[i3])
        assert np.array_equal(cube, standalone)


def test_moved_params_match_translate_then_restrict(inst_g, inst_h):
    """A moved parameter equals the two-step reference (translate by r, then
    restrict to a subgroup of r Lambda0 r^{-1}) exactly, and parameters that
    differ only in v share its u and V."""
    for inst in (inst_g, inst_h):
        cl = classify(inst)
        tables = _FusionTables(inst, cl)
        subgroups = all_subgroups(inst.lam_full)
        shared, reused = {}, 0
        for w in cl:
            p = w.parameter
            for r in inst.lam_full.elements():
                target = conjugate_subgroup(p.lambda0, r)
                for meet in (s for s in subgroups if s.is_subset_of(target)):
                    q, _ = tables.moved_param(p, r, meet)
                    ref = restrict_param(translate_param(inst, r, p), meet)
                    assert type(q) is type(ref) and q.lambda0 == ref.lambda0
                    assert np.array_equal(q.u.entries, ref.u.entries)
                    for got, want in ((q.V, ref.V), (q.v, ref.v)):
                        assert got.group is want.group
                        assert np.array_equal(got.mats, want.mats)
                        assert np.array_equal(got.cocycle.values, want.cocycle.values)
                    key = (p.u, p.V, r, meet.elements)
                    reused += key in shared
                    uv = shared.setdefault(key, (q.u, q.V))
                    assert uv[0] is q.u and uv[1] is q.V
        assert reused


def test_interning_keeps_parents_groups_and_cocycles_apart(inst_f):
    """Equal arrays are one object only over the same parent algebra or group
    object and with the same cocycle. F's 4-dimensional irreducible has a V
    in a nontrivial cocycle class, so V's mats with the all-ones cocycle are
    a different rep."""
    cl = classify(inst_f)
    tables = _FusionTables(inst_f, cl)
    p = next(w.parameter for w in cl if w.parameter.V.dim == 2)
    u, V = p.u, p.V
    twin = FiniteGroup(V.group.mult.copy())
    built = {
        "u": Corep(u.parent, u.entries.copy()),
        "u over an equal parent": Corep(fresh(u.parent), u.entries.copy()),
        "V": ProjectiveRep(V.group, V.mats.copy(), V.cocycle),
        "V over an equal group": ProjectiveRep(twin, V.mats.copy(),
                                               Cochain2(twin, V.cocycle.values)),
        "V with another cocycle": ProjectiveRep(V.group, V.mats.copy(),
                                                trivial_cochain2(V.group)),
    }
    for name, x in built.items():
        assert tables._intern(x) is x, name
    assert tables._intern(Corep(u.parent, u.entries.copy())) is built["u"]
    assert tables._intern(ProjectiveRep(V.group, V.mats.copy(), Cochain2(
        V.group, V.cocycle.values.copy()))) is built["V"]
    squares = [tables.tensor(x, x) for x in built.values()]
    assert len({id(x) for x in squares}) == len(built)

    u, V, W = built["u"], built["V"], built["V with another cocycle"]
    g = tables._intern(GRParameter(u, V, V, p.lambda0))
    assert tables._intern(GRParameter(u, V, V, p.lambda0)) is g
    for other in (GRParameter(u, W, V, p.lambda0), GRParameter(u, V, W, p.lambda0)):
        assert tables._intern(other) is other


def test_non_integer_total_raises_non_integer_coefficient(inst_a, monkeypatch):
    """A first incidence of 1/2 and zeros after it make the coset sum
    |meet| / 2, which |Lambda| = 2 does not divide."""
    cl = classify(inst_a)
    values = iter([0.5])
    monkeypatch.setattr(mackey, "incidence", lambda *args, **kwargs: next(values, 0))
    with pytest.raises(NonIntegerCoefficient, match="not a multiple"):
        standalone_entry(inst_a, cl[0], cl[0], cl[0])


def test_unrelated_fault_in_fusion_entry_is_not_an_oracle_disagreement(inst_a, monkeypatch):
    """An integer-recovery failure inside the formula route reaches the caller
    as itself, in the exit-1 family: nothing turns it into the exit-2
    NonIntegerCoefficient, which only a coset sum that |Lambda| does not
    divide may raise."""
    cl = classify(inst_a)
    fault = IntegerRecoveryError("value (0.5+0j) is not within 0.1 of an integer")

    def broken(*args, **kwargs):
        raise fault

    monkeypatch.setattr(mackey, "as_int", broken)
    with pytest.raises(IntegerRecoveryError) as info:
        standalone_entry(inst_a, cl[0], cl[0], cl[0])
    assert info.value is fault


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
