"""The shipped desk-scale instances.

  A: C(Z3) x| Z2, inversion             (classically S3)
  B: C(Z2 x Z2) x| Z2, factor swap      (classically D4)
  C: C[S3] x| Z2, conjugation by a transposition (noncommutative base)
  D: C[S3] x| Z2, trivial action        (a direct product)
  E: C(Z3 x Z3) x| (Z2 x Z2), independent sign flips (|Lambda| = 4; the
     stabilizers are {e}, both Z2 factors and Lambda, so fusion meets
     subgroups of every order)
  F: C(D4) x| (Z2 x Z2), inner automorphisms (the 2-dim irrep of D4 carries
     a nontrivial cohomology class, so one classified irrep needs a genuinely
     projective v)
"""

from __future__ import annotations

import itertools

import numpy as np

from ._linalg import int_array
from .errors import ParseError, ValidationError
from .groups import (FiniteGroup, cyclic_group, dihedral_group, direct_product,
                     symmetric_group)
from .hopf import (HopfData, action_from_group_hom, function_algebra,
                   group_algebra, verify_axioms)
from .semidirect import SemidirectInstance, build


def _s3_conjugation_perm() -> np.ndarray:
    s3 = symmetric_group(3)
    perms = sorted(itertools.permutations(range(3)))
    t12 = perms.index((1, 0, 2))
    return np.array([s3.mul(s3.mul(t12, x), t12) for x in s3.elements()])


def instance_spec(name: str) -> dict:
    """The raw data of a shipped instance, in the CLI file schema."""
    name = name.upper()
    if name == "A":
        z3 = cyclic_group(3)
        z2 = cyclic_group(2)
        return {
            "name": "A: C(Z3) x| Z2 by inversion",
            "kind": "function_algebra",
            "base": {"order": 3, "table": z3.mult.tolist()},
            "lambda": {"order": 2, "table": z2.mult.tolist()},
            "action": [[0, 1, 2], [0, 2, 1]],
        }
    if name == "B":
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        z2 = cyclic_group(2)
        swap = [0, 2, 1, 3]  # (a, b) -> (b, a) with packing 2a + b
        return {
            "name": "B: C(Z2xZ2) x| Z2 by factor swap",
            "kind": "function_algebra",
            "base": {"order": 4, "table": v4.mult.tolist()},
            "lambda": {"order": 2, "table": z2.mult.tolist()},
            "action": [[0, 1, 2, 3], swap],
        }
    if name == "C":
        s3 = symmetric_group(3)
        z2 = cyclic_group(2)
        return {
            "name": "C: C[S3] x| Z2 by conjugation",
            "kind": "group_algebra",
            "base": {"order": 6, "table": s3.mult.tolist()},
            "lambda": {"order": 2, "table": z2.mult.tolist()},
            "action": [list(range(6)), _s3_conjugation_perm().tolist()],
        }
    if name == "D":
        s3 = symmetric_group(3)
        z2 = cyclic_group(2)
        return {
            "name": "D: C[S3] x Z2, trivial action",
            "kind": "group_algebra",
            "base": {"order": 6, "table": s3.mult.tolist()},
            "lambda": {"order": 2, "table": z2.mult.tolist()},
            "action": [list(range(6)), list(range(6))],
        }
    if name == "F":
        d4 = dihedral_group(4)
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        # conjugation by rot^a flip^b for the Lambda element packed as 2a + b
        perms = []
        for a in range(2):
            for b in range(2):
                g0 = d4.mul(a, 4 * b)
                perms.append([d4.conjugate(g0, x) for x in d4.elements()])
        return {
            "name": "F: C(D4) x| (Z2xZ2) by inner automorphisms",
            "kind": "function_algebra",
            "base": {"order": 8, "table": d4.mult.tolist()},
            "lambda": {"order": 4, "table": v4.mult.tolist()},
            "action": perms,
        }
    if name == "E":
        z3z3 = direct_product(cyclic_group(3), cyclic_group(3))
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        # point (a, b) packed as 3a + b; generators flip the signs independently
        perms = []
        for r1 in range(2):
            for r2 in range(2):
                perm = []
                for a in range(3):
                    for b in range(3):
                        aa = (-a) % 3 if r1 else a
                        bb = (-b) % 3 if r2 else b
                        perm.append(3 * aa + bb)
                perms.append(perm)
        return {
            "name": "E: C(Z3xZ3) x| (Z2xZ2) by sign flips",
            "kind": "function_algebra",
            "base": {"order": 9, "table": z3z3.mult.tolist()},
            "lambda": {"order": 4, "table": v4.mult.tolist()},
            "action": perms,
        }
    raise KeyError(f"unknown instance {name!r}")


def _table(spec: dict, key: str) -> np.ndarray:
    try:
        return int_array(spec[key]["table"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{key!r} needs an integer multiplication table") from exc


def build_instance(spec: dict) -> SemidirectInstance:
    """Assemble a SemidirectInstance from the file-schema dictionary."""
    lam = FiniteGroup(_table(spec, "lambda"))
    kind = spec["kind"]
    if kind == "function_algebra":
        base_group = FiniteGroup(_table(spec, "base"))
        base = function_algebra(base_group)
        autos = action_from_group_hom(base, lam, spec["action"], "function")
    elif kind == "group_algebra":
        base_group = FiniteGroup(_table(spec, "base"))
        base = group_algebra(base_group)
        autos = action_from_group_hom(base, lam, spec["action"], "group")
    elif kind == "raw_hopf":
        def tensorize(obj):
            arr = np.asarray(obj, dtype=float)
            if arr.shape[-1] == 2:
                return arr[..., 0] + 1j * arr[..., 1]
            return arr.astype(complex)

        try:
            raw = [tensorize(spec["base"][k]) for k in
                   ("mult", "unit", "comult", "counit", "antipode", "star", "haar")]
            action = [tensorize(m) for m in spec["action"]]
        except KeyError as exc:
            raise ParseError(f"raw_hopf base is missing {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"raw_hopf data is malformed: {exc}") from exc
        base = HopfData(*raw)
        report = verify_axioms(base)
        if not report["pass"]:
            raise ValidationError(
                f"raw Hopf data fails axioms (max residual {report['max']:.2e})")
        autos = action_from_group_hom(base, lam, action, "matrix")
    else:
        raise ParseError(f"unknown instance kind {kind!r}")
    return build(base, lam, autos)


def instance(name: str) -> SemidirectInstance:
    return build_instance(instance_spec(name))
