"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from semirep._linalg import max_abs
from semirep.cohomology import cocycle_inverse
from semirep.corep import irr_enumerate, mor_dim
from semirep.corpus import build_instance, instance_spec
from semirep.groups import all_subgroups, full_subgroup
from semirep.hopf import haar_solve, is_kac, verify_axioms
from semirep.induction import (ind_mor_dim, induce, induced_character,
                               mackey_irreducible)
from semirep.mackey import (RepParameter, classify, conjugate_parameter,
                            covariant_projective, csr_corep, fusion,
                            param_mor_dim, reduce_grp, stabilizer_of_class)
from semirep.projective import irreducible_projreps, proj_mor_dim

NAMES = "ABCDE"
EXPECTED_DIMS = {"A": [1, 1, 2], "B": [1, 1, 1, 1, 2], "C": [1, 1, 1, 1, 2, 2],
                 "D": [1] * 12, "E": [1, 1, 1, 1, 2, 2, 2, 2, 4]}
EXPECTED_SUM_SQ = {"A": 6, "B": 8, "C": 12, "D": 12, "E": 36}

_cache: dict = {}


def inst_of(name):
    if name not in _cache:
        _cache[name] = build_instance(instance_spec(name))
    return _cache[name]


def classified_of(name):
    key = ("cl", name)
    if key not in _cache:
        _cache[key] = classify(inst_of(name))
    return _cache[key]


def parameter_pool(name):
    """Every irreducible parameter (u, V, v) over every admissible subgroup."""
    key = ("pool", name)
    if key in _cache:
        return _cache[key]
    inst = inst_of(name)
    pool = []
    for sub in all_subgroups(inst.lam_full):
        for x, u in enumerate(irr_enumerate(inst.base)):
            if not sub.is_subset_of(stabilizer_of_class(inst, u)):
                continue
            v_cov = covariant_projective(inst, u, sub)
            for v in irreducible_projreps(sub.group, cocycle_inverse(v_cov.cocycle)):
                p = RepParameter(u, v_cov, v, sub)
                p.validate(inst)
                pool.append(p)
    _cache[key] = pool
    return pool


def report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS  {text}")


def test_criterion_01_hopf_axioms():
    worst = 0.0
    for name in "ABCD":
        t0 = time.perf_counter()
        inst = build_instance(instance_spec(name))
        rep = verify_axioms(inst.product)
        elapsed = time.perf_counter() - t0
        assert rep["max"] < 1e-9, (name, rep)
        assert elapsed < 2.0, f"instance {name} took {elapsed:.2f}s"
        worst = max(worst, rep["max"])
        _cache.setdefault(name, inst)
    report(1, f"Hopf axioms on A-D, max residual {worst:.2e} (< 1e-9, target 1e-12)")


def test_criterion_02_haar_closed_form():
    worst = 0.0
    for name in NAMES:
        inst = inst_of(name)
        eta = haar_solve(inst.product)
        n = inst.lam.order
        closed = np.concatenate([inst.base.haar / n] * n)
        worst = max(worst, max_abs(eta - closed))
        assert max_abs(eta - closed) < 1e-12
    report(2, f"haar_solve = |Lambda|^-1 h on A-E, max deviation {worst:.2e} (< 1e-12)")


def test_criterion_03_kac_propagation():
    for name in NAMES:
        inst = inst_of(name)
        assert is_kac(inst.product) == is_kac(inst.base)
    report(3, "is_kac(product) == is_kac(base) on all instances")


def test_criterion_04_classification_dims():
    for name in "ABC":
        t0 = time.perf_counter()
        cl = classify(inst_of(name))
        elapsed = time.perf_counter() - t0
        assert sorted(w.dim for w in cl) == EXPECTED_DIMS[name]
        assert elapsed < 10.0, f"classify({name}) took {elapsed:.2f}s"
        _cache[("cl", name)] = cl
    report(4, "classification dims: A {1,1,2}, B {1,1,1,1,2}, C {1,1,1,1,2,2}")


def test_criterion_05_peter_weyl_completeness():
    for name in NAMES:
        cl = classified_of(name)
        assert sum(w.dim ** 2 for w in cl) == EXPECTED_SUM_SQ[name]
        assert EXPECTED_SUM_SQ[name] == inst_of(name).dim
    report(5, "sum dim^2 = dim(Pol(G)) * |Lambda| exactly on A-E (6, 8, 12, 12, 36)")


def test_criterion_06_character_formula_consistency():
    worst_trace, worst_forms, count = 0.0, 0.0, 0
    for name in NAMES:
        inst = inst_of(name)
        lam = inst.lam_full
        from semirep.groups import left_cosets
        from semirep.semidirect import act_corep, extend, instance_of_corep
        for p in parameter_pool(name):
            u = csr_corep(inst, p)
            chi = induced_character(inst, u)  # also enforces full-vs-coset 1e-12
            ind = induce(inst, u)
            worst_trace = max(worst_trace, max_abs(chi - ind.result.char_vec()))
            # recompute the two forms here so the 1e-12 bound is visible
            full = np.zeros(inst.dim, dtype=complex)
            for r in lam.elements():
                moved = act_corep(inst, r, u)
                full += extend(inst, instance_of_corep(inst, moved),
                               moved.char_vec())
            full /= p.lambda0.order
            coset = np.zeros(inst.dim, dtype=complex)
            for rep, _ in left_cosets(p.lambda0):
                moved = act_corep(inst, rep, u)
                coset += extend(inst, instance_of_corep(inst, moved),
                                moved.char_vec())
            worst_forms = max(worst_forms, max_abs(full - coset))
            count += 1
    assert worst_trace < 1e-9
    assert worst_forms < 1e-12
    report(6, f"induced character = trace on {count} parameters "
              f"(max {worst_trace:.2e} < 1e-9); full vs coset sums "
              f"{worst_forms:.2e} < 1e-12")


def test_criterion_07_intertwiner_formula():
    rng = np.random.default_rng(2024)
    checked = 0
    for name in "ABCD":
        inst = inst_of(name)
        pool = parameter_pool(name)
        csrs = [csr_corep(inst, p) for p in pool]
        n_pairs = 14 if name != "D" else 10
        for _ in range(n_pairs):
            i, j = rng.integers(0, len(pool), 2)
            formula = ind_mor_dim(inst, csrs[int(i)], csrs[int(j)])
            direct = mor_dim(induce(inst, csrs[int(i)]).result,
                             induce(inst, csrs[int(j)]).result)
            assert formula == direct
            checked += 1
    assert checked >= 50
    report(7, f"ind_mor_dim = direct mor_dim on {checked} randomized pairs")


def test_criterion_08_mackey_criterion():
    total, failures = 0, 0
    for name in "ABCD":
        inst = inst_of(name)
        for p in parameter_pool(name):
            u = csr_corep(inst, p)
            ind = induce(inst, u).result
            direct = mor_dim(ind, ind) == 1
            assert mackey_irreducible(inst, u) == direct
            total += 1
            if not direct:
                failures += 1
    assert failures > 0, "corpus must include engineered non-irreducible cases"
    report(8, f"Mackey criterion agrees with mor_dim(Ind U, Ind U) = 1 on "
              f"{total} parameters ({failures} reducible cases included)")


def test_criterion_09_fusion_three_way():
    t0 = time.perf_counter()
    for name in "ABCD":
        inst = inst_of(name)
        cl = classified_of(name)
        table = fusion(inst, cl)  # raises unless all three methods agree
        if name == "A":
            two = next(i for i, w in enumerate(cl) if w.dim == 2)
            decomposition = sorted(table.entry(i, two, two) for i in range(len(cl)))
            assert decomposition == [1, 1, 1]  # 2 (x) 2 = 1 + sgn + 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"fusion on A-D took {elapsed:.1f}s"
    report(9, f"fusion: formula = characters = dual modules on all A-D triples "
              f"({elapsed:.1f}s < 60s); A reproduces 2x2 = 1+sgn+2")


def test_criterion_10_conjugation():
    count = 0
    for name in NAMES:
        inst = inst_of(name)
        h = inst.product
        for w in classified_of(name):
            pbar = conjugate_parameter(inst, w.parameter)
            chi_psi = induce(inst, csr_corep(inst, pbar)).result.char_vec()
            wbar_chi = h.star_vec(w.character)  # character of the conjugate (Kac)
            pairing = h.haar_vec(h.product(h.star_vec(wbar_chi), chi_psi))
            assert abs(pairing - 1.0) < 1e-6
            count += 1
    report(10, f"conjugate_parameter matches character-level conjugation on "
               f"{count} classified irreps")


def test_criterion_11_projective_layer():
    seen = 0
    for name in NAMES:
        inst = inst_of(name)
        for w in classified_of(name):
            sub = w.parameter.lambda0
            omega = w.parameter.v.cocycle
            vs = irreducible_projreps(sub.group, omega)
            assert sum(v.dim ** 2 for v in vs) == sub.order
            gram = np.array([[proj_mor_dim(a, b) for b in vs] for a in vs])
            assert np.array_equal(gram, np.eye(len(vs), dtype=int))
            seen += 1
    report(11, f"projective layer: sum dim(v)^2 = |Lambda0| and identity Gram "
               f"for all {seen} classified (Lambda0, omega) pairs")


def test_criterion_12_reduction_round_trip():
    from semirep.projective import tensor as proj_tensor
    from test_mackey import build_grp_roundtrip
    rng = np.random.default_rng(99)
    count = 0
    for name in ("A", "B", "D"):
        inst = inst_of(name)
        for _ in range(4):
            g, u0, v0, v1, v = build_grp_roundtrip(inst, rng, mult=1)
            red = reduce_grp(inst, g, u0, v0)
            assert red is not None
            built = RepParameter(u0, v0, proj_tensor(v, v1),
                                 full_subgroup(inst.lam_full))
            assert param_mor_dim(inst, red, built) == 1
            count += 1
    assert count >= 10
    report(12, f"reduce_grp round-trips recover V1 (param_mor_dim = 1) on "
               f"{count} randomized constructions")
