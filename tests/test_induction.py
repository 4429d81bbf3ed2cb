import numpy as np
import pytest

from semirep.corep import irr_enumerate, mor_dim, verify_corep
from semirep.errors import ValidationError
from semirep.induction import (induce, induced_character, ind_mor_dim,
                               mackey_irreducible)
from semirep.oracle import module_hom_dim
from semirep.semidirect import act_corep

from helpers import direct_sum, embed_base_corep, trivial_corep


def base_char_coreps(inst):
    """Irreducibles of the base, embedded over G x| {e}."""
    return [embed_base_corep(inst, u) for u in irr_enumerate(inst.base)]


def is_trivial_char(inst, u):
    return u.dim == 1 and np.max(np.abs(u.entries[0, 0] - inst.base.unit)) < 1e-9


def trivial_char(inst):
    return next(u for u in base_char_coreps(inst) if is_trivial_char(inst, u))


def nontrivial_chars(inst):
    return [u for u in base_char_coreps(inst) if not is_trivial_char(inst, u)]


def test_induce_dimension_law(inst_a, inst_b):
    for inst in (inst_a, inst_b):
        for u in base_char_coreps(inst):
            ind = induce(inst, u)
            assert ind.result.dim == inst.lam.order * u.dim
            assert verify_corep(ind.result)["pass"]


def test_induce_from_full_subgroup_is_equivalent(inst_a):
    for u in irr_enumerate(inst_a.product):
        ind = induce(inst_a, u)
        assert ind.result.dim == u.dim
        if mor_dim(u, u) == 1:
            assert mor_dim(ind.result, u) == 1
        assert np.max(np.abs(ind.result.char_vec() - u.char_vec())) < 1e-9


def test_instance_a_omega_induces_2dim_irreducible(inst_a):
    omega = nontrivial_chars(inst_a)[0]
    ind = induce(inst_a, omega)
    assert ind.result.dim == 2
    assert mor_dim(ind.result, ind.result) == 1
    # oracle route: the induced module is irreducible over the dual algebra
    assert module_hom_dim(ind.result, ind.result) == 1


def test_induced_character_matches_trace(inst_a, inst_b, inst_c):
    for inst in (inst_a, inst_b, inst_c):
        for u in base_char_coreps(inst):
            chi = induced_character(inst, u)
            ind = induce(inst, u)
            assert np.max(np.abs(chi - ind.result.char_vec())) < 1e-9


def test_induced_character_from_trivial_subgroup_form(inst_a):
    # Lambda0 = {e}: chi_W = sum_r alpha*_{r^{-1}}(chi_u) (x) delta_e
    u = nontrivial_chars(inst_a)[0]
    chi = induced_character(inst_a, u)
    lam = inst_a.lam_full
    d = inst_a.base.dim
    expected = np.zeros(inst_a.dim, dtype=complex)
    base_chi = u.entries[0, 0]
    e_local = inst_a.subgroup.to_local(lam.identity)
    for r in lam.elements():
        expected[e_local * d:(e_local + 1) * d] += \
            inst_a.alpha[lam.inverse(r)] @ base_chi
    assert np.max(np.abs(chi - expected)) < 1e-12


def test_instance_b_induced_character_is_d4_2dim(inst_b):
    # chi_{01} has trivial stabilizer under the swap; its induced character is
    # the 2-dim character of D4 = (Z2 x Z2) x| Z2 under the classical
    # identification: 2 at the identity, -2 at the central element (1,1),
    # zero everywhere else.
    base = inst_b.base
    chi01 = next(u for u in base_char_coreps(inst_b)
                 if abs(u.entries[0, 0][1] + 1) < 1e-9
                 and abs(u.entries[0, 0][2] - 1) < 1e-9)
    chi = induced_character(inst_b, chi01)
    expected = np.zeros(8, dtype=complex)
    e_local = inst_b.subgroup.to_local(inst_b.lam_full.identity)
    expected[e_local * 4 + 0] = 2.0   # (0,0) in Z2 x Z2
    expected[e_local * 4 + 3] = -2.0  # (1,1)
    assert np.max(np.abs(chi - expected)) < 1e-12
    ind = induce(inst_b, chi01)
    assert ind.result.dim == 2 and mor_dim(ind.result, ind.result) == 1


def test_translation_invariance_of_induction(inst_a, inst_c):
    for inst in (inst_a, inst_c):
        lam = inst.lam_full
        for u in base_char_coreps(inst)[:3]:
            chi = induced_character(inst, u)
            for r in lam.elements():
                moved = act_corep(inst, r, u)
                chi_r = induced_character(inst, moved)
                assert np.max(np.abs(chi - chi_r)) < 1e-12


def test_ind_mor_dim_examples(inst_a):
    omega, omega2 = nontrivial_chars(inst_a)
    # both nontrivial characters induce the same 2-dim irreducible
    assert ind_mor_dim(inst_a, omega, omega2) == 1
    assert ind_mor_dim(inst_a, omega, omega) == 1
    # trivial character induces triv (+) sign of S3: self-mor-dim 2
    assert ind_mor_dim(inst_a, trivial_char(inst_a), trivial_char(inst_a)) == 2


def test_ind_mor_dim_of_trivial_counts_trivial_multiplicity(inst_a):
    # U = trivial corep over the full subgroup, W over {e}
    full_triv = trivial_corep(inst_a.product)
    omega = nontrivial_chars(inst_a)[0]
    assert ind_mor_dim(inst_a, full_triv, omega) == 0
    assert ind_mor_dim(inst_a, full_triv, trivial_char(inst_a)) == 1


def test_mackey_criterion(inst_a, inst_b):
    omega = nontrivial_chars(inst_a)[0]
    assert mackey_irreducible(inst_a, omega)
    triv_e = trivial_char(inst_a)
    # trivial character of G over {e} induces a reducible rep when |Lambda| > 1
    assert not mackey_irreducible(inst_a, triv_e)
    assert mor_dim(induce(inst_a, triv_e).result,
                   induce(inst_a, triv_e).result) == 2
    # engineered failures on B: fixed characters over the trivial subgroup
    swap_fixed = [u for u in base_char_coreps(inst_b)
                  if mor_dim(act_corep(inst_b, 1, u), u) == 1]
    assert len(swap_fixed) == 2
    for u in swap_fixed:
        assert not mackey_irreducible(inst_b, u)


def test_mackey_agrees_with_direct(inst_a, inst_b):
    for inst in (inst_a, inst_b):
        for u in base_char_coreps(inst):
            direct = mor_dim(induce(inst, u).result, induce(inst, u).result) == 1
            assert mackey_irreducible(inst, u) == direct


def test_mackey_requires_irreducible(inst_a):
    triv_e = trivial_char(inst_a)
    omega = nontrivial_chars(inst_a)[0]
    red = direct_sum(triv_e, omega)
    with pytest.raises(ValidationError):
        mackey_irreducible(inst_a, red)
