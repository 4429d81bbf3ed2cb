"""Instance F: a desk-scale instance whose 2-dim orbit carries a nontrivial
cohomology class, exercising the genuinely projective branch of the pipeline;
and C(Heis3) x| Z3^2, F's analogue at p = 3, whose class has order 3."""

import json
from collections import Counter

import numpy as np
import pytest

from semirep._linalg import as_int
from semirep.cohomology import cocycle_inverse
from semirep import cli
from semirep.corep import irr_enumerate, mor_dim, tensor
from semirep.corpus import INSTANCES, instance
from semirep.groups import full_subgroup
from semirep.induction import mackey_irreducible
from semirep.mackey import classify, conjugation_pairing, covariant_projective
from semirep.oracle import module_hom_dim
from semirep.projective import irreducible_projreps

from helpers import standalone_entry


@pytest.fixture(scope="module")
def inst_f():
    return instance("F")


@pytest.fixture(scope="module")
def classified_f(inst_f):
    return classify(inst_f)


def test_f_dims(inst_f, classified_f):
    assert sorted(w.dim for w in classified_f) == [1] * 16 + [4]
    assert sum(w.dim ** 2 for w in classified_f) == inst_f.dim == 32


def test_f_cocycle_class_is_nontrivial(inst_f):
    two = next(u for u in irr_enumerate(inst_f.base) if u.dim == 2)
    v_cov = covariant_projective(inst_f, two, full_subgroup(inst_f.lam_full))
    omega = v_cov.cocycle
    klein = v_cov.group
    # the gauged cocycle lands in 4th roots of unity
    assert np.max(np.abs(omega.values ** 4 - 1.0)) < 1e-9
    # On the abelian Klein group a cocycle is a coboundary iff it is
    # symmetric. V(r)V(s) = (w / w^T)(r, s) V(s)V(r), and the V of any two
    # distinct non-identity elements anticommute, so w / w^T = -1 there.
    assert np.array_equal(klein.mult, klein.mult.T)
    e = klein.identity
    r, s = np.indices(klein.mult.shape)
    anticommuting = (r != s) & (r != e) & (s != e)
    assert np.max(np.abs(omega.values / omega.values.T
                         - np.where(anticommuting, -1.0, 1.0))) < 1e-9
    # twisted Peter-Weyl: a single 2-dim irreducible on the Klein group, so
    # no one-dimensional one either
    vs = irreducible_projreps(klein, cocycle_inverse(omega))
    assert [v.dim for v in vs] == [2]
    assert not any(v.dim == 1 for v in vs)


def test_f_flags_and_mackey(inst_f, classified_f):
    big = next(w for w in classified_f if w.dim == 4)
    assert not big.cocycle_trivial
    assert all(w.cocycle_trivial for w in classified_f if w.dim == 1)
    assert mor_dim(big.induced, big.induced) == 1
    assert mackey_irreducible(inst_f, big.csr)


def test_f_fusion_spot_checks(inst_f, classified_f):
    h = inst_f.product
    big = next(w for w in classified_f if w.dim == 4)
    ones = [w for w in classified_f if w.dim == 1]
    t44 = tensor(big.induced, big.induced)
    chi44 = h.product(big.character, big.character)
    # 4 (x) 4 contains every 1-dim exactly once and no copy of itself
    for w in ones[:4] + [big]:
        expected = 0 if w is big else 1
        n_formula = standalone_entry(inst_f, w, big, big)
        n_char = as_int(h.haar_vec(h.product(h.star_vec(w.character), chi44)))
        n_module = module_hom_dim(w.induced, t44)
        assert n_formula == n_char == n_module == expected
    # 1-dim (x) 4-dim stays the 4-dim
    assert standalone_entry(inst_f, big, ones[0], big) == 1
    assert standalone_entry(inst_f, ones[1], ones[0], big) == 0


def test_f_conjugation_fixes_big(inst_f, classified_f):
    big = next(w for w in classified_f if w.dim == 4)
    assert conjugation_pairing(inst_f, big, classified_f) == big.label


def test_f_induced_character_consistency(inst_f, classified_f):
    # the projective branch must also satisfy the two character formulas
    from semirep.induction import induce, induced_character
    big = next(w for w in classified_f if w.dim == 4)
    chi = induced_character(inst_f, big.csr)  # enforces full-vs-coset at 1e-12
    ind = induce(inst_f, big.csr)
    assert np.max(np.abs(chi - ind.result.char_vec())) < 1e-9
    assert np.max(np.abs(chi - big.character)) < 1e-9


def test_f_param_mor_dim_on_projective_branch(inst_f, classified_f):
    from semirep.mackey import param_mor_dim
    big = next(w for w in classified_f if w.dim == 4)
    ones = [w for w in classified_f if w.dim == 1]
    assert param_mor_dim(inst_f, big.parameter, big.parameter) == 1
    for w in ones[:3]:
        # different [u] (1-dim vs 2-dim base irreps)
        assert param_mor_dim(inst_f, w.parameter, big.parameter) == 0


def test_heisenberg_irr_reaches_a_class_of_order_3(capsys):
    """On I, Z3^2 acts on C(Heis3) by inner automorphisms, so it fixes every
    class of Irr(Heis3): 9 characters with 9 v each, and the two 3-dim
    irreps, whose covariant V is projective with a class of order 3 in
    H^2(Z3^2, T) = Z3, so each has one 3-dim v: 81 + 2 * 81 = 243."""
    assert cli.main(["irr", str(INSTANCES / "instance_i.json"), "--format",
                     "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 83 and doc["sum_dim_sq"] == 243
    shapes = Counter((w["dim"], w["dim_u"], w["dim_v"], w["cocycle_trivial"])
                     for w in doc["irreps"])
    assert shapes == {(1, 1, 1, True): 81, (9, 3, 3, False): 2}
