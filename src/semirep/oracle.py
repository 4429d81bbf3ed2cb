"""Brute-force oracle over the dual algebra.

A corepresentation u of H makes its carrier space a module over the dual
*-algebra A^: the dual basis element f_a acts by the coefficient slice
u[:, :, a]. Decomposing modules and counting module homs uses nothing but
dense linear algebra (no characters, no Haar pairings), which makes this
layer an independent cross-check for the classification and fusion
pipelines. Every system here stacks only the slices of the f_a that generate
A^ (Corep.coeff_slices, certified by HopfData.generators): a map commutes
with the whole module action exactly when it commutes with the generators'
action, so the counts are those over all d slices. The module-route fusion
cube counts its k^3 hom spaces in k batches, one per w2 (_linalg.hom_space_dims).
"""

from __future__ import annotations

import numpy as np

from ._linalg import DEFAULT_SEED, compress_stack, decompose, hom_space_dims
from .corep import Corep, regular_corep, tensor
from .errors import PeterWeylMismatch
from .hopf import HopfData


def module_hom_dim(u: Corep, w: Corep) -> int:
    """dim of module homomorphisms between the slice modules of two coreps,
    as the one-pair hom_space_dims batch."""
    return hom_space_dims([(u.coeff_slices, w.coeff_slices)])[0]


def module_fusion_cube(coreps: list[Corep]) -> np.ndarray:
    """N[i1, i2, i3] = module_hom_dim(w_i1, w_i2 (x) w_i3) over all triples.

    For each w2, the k tensors w2 (x) w3 are built and all k^2 systems
    (w1, w2 (x) w3) are counted together, so at most k tensors are held.
    """
    k = len(coreps)
    cube = np.zeros((k, k, k), dtype=int)
    for i2, w2 in enumerate(coreps):
        tensors = [tensor(w2, w3).coeff_slices for w3 in coreps]
        counts = hom_space_dims([(w1.coeff_slices, t) for t in tensors for w1 in coreps])
        cube[:, i2, :] = np.reshape(counts, (k, k)).T
    return cube


def module_decompose(u: Corep, comm, seed: int = DEFAULT_SEED):
    """Irreducible submodules of u's slice module, with multiplicities; comm
    is a basis of the module's commutant.

    Returns a list of (slices, multiplicity). Equivalence is decided by
    module-hom dimension, never by characters, all pairs in one
    hom_space_dims batch.
    """
    return decompose(u.coeff_slices, comm, lambda s: s, compress_stack,
                     lambda fs, pairs: hom_space_dims([(fs[i], fs[j]) for i, j in pairs]),
                     seed)


def oracle_irr_dims(h: HopfData, seed: int = DEFAULT_SEED) -> list[int]:
    """Dimensions of Irr(H) from the regular module, certified by Peter-Weyl."""
    dims = sorted(f.shape[1] for f, _ in module_decompose(*regular_corep(h), seed))
    if sum(d * d for d in dims) != h.dim:
        raise PeterWeylMismatch(
            f"dual-algebra blocks give sum dim^2 = {sum(d * d for d in dims)}"
            f" != {h.dim}")
    return dims
