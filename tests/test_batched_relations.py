"""The batched group-relation checks against their element-by-element references.

The library checks each relation between elements of Lambda0 (the cocycle
law, projectivity, covariance, the factor extraction of a GRP) over the whole
multiplication table in one array expression, and contracts coreps with mult
in two fixed steps. Here every such check that runs while classifying and
fusing A-H is repeated by its loop or einsum reference from helpers.py, and
every induced corep by its l2(Lambda) (x) H construction there:
values must agree to 1e-12, witnesses exactly, and an input that fails must
raise the same exception with the same message. Corrupted inputs reach every
error branch, and a counter test on `fuse` D pins how often each check runs.
"""

import io
import sys
from collections import Counter
from contextlib import redirect_stdout

import numpy as np
import pytest

from semirep import cli, corep, groups, induction, mackey, projective, semidirect
from semirep._linalg import TOL_ACCEPT, max_abs
from semirep.cohomology import (Cochain1, Cochain2, coboundary, is_cocycle,
                                trivial_cochain2)
from semirep.corpus import INSTANCES, instance
from semirep.errors import (NonUnitaryExtraction, NotCovariant, NotProjective,
                            ValidationError)
from semirep.groups import cyclic_group, symmetric_group
from semirep.mackey import GRParameter, _FusionTables, classify, fusion, reduce_grp
from semirep.projective import (ProjectiveRep, cocycle_of, irreducible_projreps,
                                regular_twisted_rep, transitional_map)
from semirep.semidirect import check_covariant, join_covariant

from helpers import (_einsum_corep_tensor, _einsum_verify_corep,
                     _loop_check_covariant, _loop_coboundary, _loop_cocycle_of,
                     _loop_grp_factor, _loop_is_cocycle, _loop_join_covariant_entries,
                     _loop_proj_tensor_mats, _loop_regular_twisted_mats,
                     _loop_transitional_map, _loop_verify, reference_induce,
                     trivial_rep)

TOL = 1e-12


def _bindings(func):
    """Every (module, name) in semirep bound to func."""
    return [(mod, name) for key, mod in list(sys.modules.items())
            if key == "semirep" or key.startswith("semirep.")
            for name, value in list(vars(mod).items()) if value is func]


def _outcome(call):
    try:
        return call(), None
    except Exception as exc:  # compared with the other route's outcome
        return None, exc


def _same_failure(exc, ref_exc):
    if ref_exc is None:
        return f"raised {exc!r}, the reference returned"
    if (type(exc), str(exc)) != (type(ref_exc), str(ref_exc)):
        return f"raised {exc!r}, the reference raised {ref_exc!r}"
    return None


# -- what each batched check is compared on --------------------------------------

def _close(out, ref):
    """Arrays or residuals equal to TOL."""
    diff = max_abs(np.asarray(out) - np.asarray(ref))
    return None if diff <= TOL else f"differs from the reference by {diff:.2e}"


def _cmp_witnessed(out, ref):
    """(ok, worst, witness) triples: ok and witness equal, worst to TOL."""
    if out[0] != ref[0] or out[2] != ref[2] or abs(out[1] - ref[1]) > TOL:
        return f"{out} != reference {ref}"
    return None


def _cmp_report(out, ref):
    if out["pass"] != ref["pass"] or any(abs(out[k] - ref[k]) > TOL
                                         for k in ref if k != "pass"):
        return f"{out} != reference {ref}"
    return None


def _ref_grp(inst, g, u0, v0, basis=None, big=None):
    """The loop factor, paired with the v that reduce_grp will return."""
    v1 = _loop_grp_factor(g, u0, v0)
    return None if v1 is None else (v1, g)


def _cmp_grp(out, ref):
    if (out is None) != (ref is None):
        return f"reduced to {out}, the reference factor is {ref}"
    if out is None:
        return None
    v1, g = ref
    want = np.stack([np.kron(g.v.mats[r], v1[r]) for r in range(len(v1))])
    return _close(out.v.mats, want)


MIRRORED = {  # name -> (function, reference, comparison of their results)
    "cocycle_of": (cocycle_of, _loop_cocycle_of,
                   lambda out, ref: _close(out.values, ref.values)),
    "is_cocycle": (is_cocycle, _loop_is_cocycle, _cmp_witnessed),
    "ProjectiveRep.verify": (ProjectiveRep.verify, _loop_verify, _close),
    "projective.tensor": (projective.tensor, _loop_proj_tensor_mats,
                          lambda out, ref: _close(out.mats, ref)),
    "check_covariant": (check_covariant, _loop_check_covariant, _cmp_witnessed),
    "join_covariant": (join_covariant, _loop_join_covariant_entries,
                       lambda out, ref: _close(out.entries, ref)),
    "corep.tensor": (corep.tensor, _einsum_corep_tensor,
                     lambda out, ref: _close(out.entries, ref)),
    "verify_corep": (corep.verify_corep, _einsum_verify_corep, _cmp_report),
    "reduce_grp": (reduce_grp, _ref_grp, _cmp_grp),
    "induce": (induction.induce, reference_induce,
               lambda out, ref: _close(out.result.entries, ref.entries)),
}


class _Mirror:
    """Runs the reference beside every call of a mirrored check and keeps
    each disagreement."""

    def __init__(self):
        self.calls = Counter()
        self.mismatches = []

    def wrap(self, name, func, reference, compare):
        def mirrored(*args, **kwargs):
            self.calls[name] += 1
            out, exc = _outcome(lambda: func(*args, **kwargs))
            ref, ref_exc = _outcome(lambda: reference(*args, **kwargs))
            if exc is not None:
                problem = _same_failure(exc, ref_exc)
            elif ref_exc is not None:
                problem = f"returned, the reference raised {ref_exc!r}"
            else:
                problem = compare(out, ref)
            if problem:
                self.mismatches.append(f"{name}: {problem}")
            if exc is not None:
                raise exc
            return out
        return mirrored

    def install(self, mp):
        for name, (func, reference, compare) in MIRRORED.items():
            wrapper = self.wrap(name, func, reference, compare)
            if name == "ProjectiveRep.verify":
                mp.setattr(ProjectiveRep, "verify", wrapper)
            for mod, attr in _bindings(func):
                mp.setattr(mod, attr, wrapper)


@pytest.fixture(scope="module")
def mirrored_runs():
    """Classify and fuse each of A-H on a fresh instance with every batched
    check mirrored; instance name -> its _Mirror."""
    runs = {}
    for name in "ABCDEFGH":
        mirror = _Mirror()
        with pytest.MonkeyPatch.context() as mp:
            mirror.install(mp)
            inst = instance(name)
            fusion(inst, classify(inst, seed=7))
        runs[name] = mirror
    return runs


@pytest.mark.parametrize("name", list("ABCDEFGH"))
def test_batched_checks_match_loop_references(name, mirrored_runs):
    mirror = mirrored_runs[name]
    assert not mirror.mismatches, mirror.mismatches[:5]
    assert set(mirror.calls) == set(MIRRORED), set(MIRRORED) - set(mirror.calls)


# -- corrupted inputs reach every error branch -----------------------------------

def _raises_like(call, ref_call):
    _, exc = _outcome(call)
    _, ref_exc = _outcome(ref_call)
    assert exc is not None and ref_exc is not None
    assert (type(exc), str(exc)) == (type(ref_exc), str(ref_exc))
    return exc


def test_orthogonal_product_raises_like_reference():
    z3 = cyclic_group(3)
    mats = np.array([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)])
    exc = _raises_like(lambda: cocycle_of(z3, mats), lambda: _loop_cocycle_of(z3, mats))
    assert isinstance(exc, NotProjective)
    assert str(exc) == "V(1)V(2) is orthogonal to V(1*2)"


def test_projectivity_residual_raises_like_reference():
    z2 = cyclic_group(2)
    mats = np.array([np.eye(2), np.diag([1.0, 0.5])])
    exc = _raises_like(lambda: cocycle_of(z2, mats), lambda: _loop_cocycle_of(z2, mats))
    assert str(exc) == f"projectivity residual 0.75 exceeds {TOL_ACCEPT}"


def test_broken_cocycle_law_matches_reference():
    z3 = cyclic_group(3)
    vals = np.ones((3, 3), dtype=complex)
    vals[1, 1] = -1
    omega = Cochain2(z3, vals)
    assert is_cocycle(omega) == _loop_is_cocycle(omega) == (False, 2.0, (1, 1, 2))
    ok, res, triple = _loop_is_cocycle(omega)
    with pytest.raises(ValidationError) as info:
        irreducible_projreps(z3, omega)
    assert str(info.value) == f"not a cocycle (residual {res} at {triple})"


@pytest.mark.parametrize("seed", range(5))
def test_random_phase_tables_match_reference(seed):
    s3 = symmetric_group(3)
    rng = np.random.default_rng(seed)
    vals = np.exp(2j * np.pi * rng.random((6, 6)))
    vals[s3.identity, :] = vals[:, s3.identity] = 1
    omega = Cochain2(s3, vals)
    assert _cmp_witnessed(is_cocycle(omega), _loop_is_cocycle(omega)) is None
    b = Cochain1(s3, np.r_[1, np.exp(2j * np.pi * rng.random(5))])
    assert max_abs(coboundary(b).values - _loop_coboundary(b).values) <= TOL


def test_twisted_regular_rep_and_transitional_map_match_reference():
    s3 = symmetric_group(3)
    rng = np.random.default_rng(3)
    b = Cochain1(s3, np.r_[1, np.exp(2j * np.pi * rng.random(5))])
    omega = coboundary(b)
    reg = regular_twisted_rep(s3, omega)
    assert np.array_equal(reg.mats, _loop_regular_twisted_mats(s3, omega))
    moved = ProjectiveRep(s3, b.values[:, None, None] * reg.mats, omega)
    assert max_abs(transitional_map(reg, moved).values
                   - _loop_transitional_map(reg, moved).values) <= TOL
    zero, off = np.zeros((6, 6)), 0.01 * np.eye(6)  # orthogonal; not scalar-related
    for breaks in ({4: zero}, {4: off}, {2: off, 4: zero}):
        mats = moved.mats.copy()
        for r, change in breaks.items():
            mats[r] = change if change is zero else mats[r] + change
        broken = ProjectiveRep(s3, mats, omega)
        exc = _raises_like(lambda: transitional_map(reg, broken),
                           lambda: _loop_transitional_map(reg, broken))
        assert f"V2({min(breaks)})" in str(exc)


def _f_parameters(inst_f):
    """Classified parameters of F over one Lambda0 of order 4: p2 with the
    two-dimensional u (a genuinely projective V) and p1 with a
    one-dimensional u."""
    cl = classify(inst_f, seed=7)
    params = [w.parameter for w in cl]
    p2 = next(p for p in params if p.u.dim == 2)
    p1 = next(p for p in params if p.u.dim == 1 and p.lambda0 == p2.lambda0)
    assert p2.lambda0.order == 4
    return cl, p2, p1


def test_covariance_break_matches_reference_witness(inst_f):
    """The identity representation of Lambda0 is ordinary, but the inner
    action of F moves the two-dimensional u, so the pair is not covariant."""
    _, p, _ = _f_parameters(inst_f)
    sub = inst_f.principal(p.lambda0)
    ident = trivial_rep(p.V.group, p.u.dim)
    out, ref = check_covariant(sub, p.u, ident), _loop_check_covariant(sub, p.u, ident)
    assert _cmp_witnessed(out, ref) is None
    assert not out[0] and out[2] is not None
    with pytest.raises(NotCovariant) as info:
        join_covariant(sub, p.u, ident.mats)
    assert str(info.value) == f"covariance residual {ref[1]:.2e} at (r, i, j) = {ref[2]}"


def test_join_covariant_rejects_a_projective_lambda_part(inst_f):
    """F's two-dimensional V is covariant with u but genuinely projective:
    its cocycle is far from 1. Labelled with the trivial cocycle, its
    matrices are still rejected, since join_covariant certifies them, not
    the label."""
    _, p, _ = _f_parameters(inst_f)
    sub = inst_f.principal(p.lambda0)
    labelled = ProjectiveRep(p.V.group, p.V.mats, trivial_cochain2(p.V.group))
    assert max_abs(p.V.cocycle.values - 1.0) > 1.0
    assert check_covariant(sub, p.u, labelled)[0]
    with pytest.raises(NotProjective, match="not an ordinary representation"):
        join_covariant(sub, p.u, labelled.mats)


@pytest.mark.parametrize("scale, message", [
    (np.diag([1.0, -1.0]), "compressed V does not factor through V0 at local element 2"),
    (2 * np.eye(2), "extracted factor is not unitary"),
])
def test_grp_factor_failure_matches_reference(inst_f, scale, message):
    """The GRP u2 (x) u1 reduced along (u2, V2), with V broken at local
    elements 2 and 3; the first is reported."""
    cl, p2, p1 = _f_parameters(inst_f)
    e = inst_f.lam_full.identity
    g = _FusionTables(inst_f, cl).grp(p2, e, p1, e, p2.lambda0)[0]
    assert _loop_grp_factor(g, p2.u, p2.V) is not None
    mats = g.V.mats.copy()
    mats[2:] = mats[2:] @ scale
    bad = GRParameter(g.u, ProjectiveRep(g.V.group, mats, g.V.cocycle), g.v, g.lambda0)
    exc = _raises_like(lambda: reduce_grp(inst_f, bad, p2.u, p2.V),
                       lambda: _loop_grp_factor(bad, p2.u, p2.V))
    assert isinstance(exc, NonUnitaryExtraction) and str(exc) == message


# -- how often each check runs -----------------------------------------------------

# Call counts of `semirep fuse instances/instance_d.json --seed 7`. Batching
# the checks dropped and added none; fusion runs each once per input that is
# distinct by content (see test_fusion_tables):
# - classify: cocycle_of 6 (covariant_projective), check_covariant 42,
#   intertwiner_basis 12, verify_corep 12, and 24 joins (12 CSRs, 12
#   induced coreps), each certifying its Lambda part: verify +24.
# - 12 distinct GRPs (6 characters u2 (x) u3 times 2 v's) build one CSR
#   each: verify +12, check_covariant +12.
# - 36 isotypic bases, one per (moved u1, u2 (x) u3): 6 x 6.
# - 72 reductions, one per (GRP, moved u1, moved V1): 12 x 6. The 12 with
#   a non-empty isotypic block each run verify +1, validate (check_covariant
#   +1) and the CSR of the result (verify +1, check_covariant +1).
# So verify runs 60 times: 48 joins and 12 reductions. While the joins
# re-extracted their cocycle, cocycle_of ran 66 times and verify 12.
# While inputs were told apart by object identity there were 144 GRPs, 216
# bases and 864 reductions (330, 474, 144, 228, 12, in the order below, with
# the joins extracting cocycles); before the reduction was shared, every one
# of the 1,728 (entry, coset triple) pairs reduced once (474, 762, 288,
# 1740, 12).
FUSE_D_CALLS = {"cocycle_of": 6, "check_covariant": 78, "ProjectiveRep.verify": 60,
                "intertwiner_basis": 48, "verify_corep": 12}


def test_fuse_d_runs_every_check_and_one_transversal_per_subgroup(monkeypatch):
    counts, transversals, inside = Counter(), Counter(), []

    def counting(name, func):
        def counted(*args, **kwargs):
            counts[name] += 1
            if name == "left_cosets" and inside:
                transversals[args[0].elements] += 1
            if name == "fusion":
                inside.append(True)
            try:
                return func(*args, **kwargs)
            finally:
                if name == "fusion":
                    inside.pop()
        return counted

    funcs = {"cocycle_of": cocycle_of, "check_covariant": check_covariant,
             "intertwiner_basis": corep.intertwiner_basis,
             "verify_corep": corep.verify_corep, "left_cosets": groups.left_cosets,
             "fusion": mackey.fusion}
    for name, func in funcs.items():
        for mod, attr in _bindings(func):
            monkeypatch.setattr(mod, attr, counting(name, func))
    monkeypatch.setattr(ProjectiveRep, "verify",
                        counting("ProjectiveRep.verify", ProjectiveRep.verify))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["fuse", str(INSTANCES / "instance_d.json"),
                         "--format", "structured", "--seed", "7"]) == 0
    assert {k: counts[k] for k in FUSE_D_CALLS} == FUSE_D_CALLS
    assert counts["fusion"] == 1
    assert transversals and max(transversals.values()) == 1
