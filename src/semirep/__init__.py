"""Representation theory of semidirect products of finite quantum groups.

Build G x| Lambda from Hopf structure constants and a finite group acting by
quantum automorphisms; classify its irreducible unitary corepresentations via
representation parameters; compute conjugates and fusion rules. Every pipeline
result is cross-checked against brute-force oracles (character pairings,
intertwiner nullspaces, dual-algebra module decompositions).
"""

from .cohomology import Cochain1, Cochain2, coboundary, is_cocycle
from .corep import (Corep, conjugate, intertwiner_basis, irr_action,
                    irr_decompose, irr_enumerate, mor_dim, regular_corep,
                    tensor, verify_corep)
from .corpus import build_instance, instance, instance_spec
from .groups import (FiniteGroup, GroupAction, Subgroup, all_subgroups,
                     conjugate_intersection, conjugate_subgroup, cyclic_group,
                     direct_product, full_subgroup, generated, left_cosets, orbit,
                     orbits, stabilizer, symmetric_group)
from .hopf import (HopfData, action_from_group_hom, function_algebra,
                   group_algebra, haar_solve, is_kac, product_algebra,
                   verify_axioms)
from .induction import (InducedRep, ind_mor_dim, induce, induced_character,
                        mackey_irreducible)
from .mackey import (ClassifiedIrr, FusionTable, GRParameter, RepParameter, classify,
                     conjugate_parameter, covariant_projective, csr_corep, fusion,
                     incidence, param_mor_dim, parameters, reduce_grp)
from .oracle import module_hom_dim, oracle_irr_dims
from .projective import (ProjectiveRep, cocycle_of, contragredient,
                         irreducible_projreps, proj_mor_dim, projective_rep,
                         rescale, transitional_map)
from .semidirect import (SemidirectInstance, act_corep, build, check_covariant,
                         extend, join_covariant, restrict_corep)

__version__ = "0.1.0"
