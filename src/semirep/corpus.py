"""The instance-file schema and the shipped instances.

Instance files are JSON documents:

    {
      "name": "A: C(Z3) x| Z2 by inversion",
      "kind": "function_algebra" | "group_algebra" | "raw_hopf",
      "base": {"order": n, "table": [[...]]}          (group kinds)
              | {"mult": ..., "unit": ..., ...}       (raw_hopf; complex
                 entries as [re, im] pairs)
      "lambda": {"order": m, "table": [[...]]},
      "action": [perm-per-lambda-element]             (group kinds)
              | [matrix-per-lambda-element]           (raw_hopf),
      "seed": 7                                       (optional)
    }

read_spec is the one reader of this format: the command line and
instance_spec both go through it. The shipped instances A-H exist only as the
files instances/instance_<x>.json, listed in the README's table.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._linalg import int_array
from .errors import ParseError, ValidationError
from .groups import FiniteGroup
from .hopf import (HopfData, action_from_group_hom, function_algebra,
                   group_algebra, verify_axioms)
from .semidirect import SemidirectInstance, build

INSTANCES = Path(__file__).resolve().parents[2] / "instances"


def read_spec(path) -> dict:
    """The JSON document of an instance file, with its top-level fields checked."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: the top level must be a JSON object")
    for field in ("kind", "base", "lambda", "action"):
        if field not in spec:
            raise ParseError(f"{path}: missing field {field!r}")
    return spec


def instance_spec(name: str) -> dict:
    """The document of the shipped instance `name` (A-H, any case)."""
    path = INSTANCES / f"instance_{name.lower()}.json"
    if path not in INSTANCES.glob("instance_*.json"):
        raise KeyError(f"unknown instance {name!r}")
    return read_spec(path)


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
