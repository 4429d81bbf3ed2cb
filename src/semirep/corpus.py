"""The instance-file schema and the shipped instances.

Instance files are JSON documents:

    {
      "name": "A: C(Z3) x| Z2 by inversion",
      "kind": "function_algebra" | "group_algebra" | "raw_hopf",
      "base": {"order": n, "table": [[...]]}          (group kinds)
              | {"mult": ..., "unit": ..., ...}       (raw_hopf; dense
                 tensors, entries real or [re, im] pairs)
      "lambda": {"order": m, "table": [[...]]},
      "action": [perm-per-lambda-element]             (group kinds)
              | [matrix-per-lambda-element]           (raw_hopf),
      "seed": 7                                       (optional)
    }

read_spec is the one reader of this format: the command line and
instance_spec both go through it. The shipped instances A-I exist only as the
files instances/instance_<x>.json, listed in the README's table.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ._linalg import int_array
from .errors import ParseError, ValidationError
from .groups import FiniteGroup
from .hopf import (RANKS, HopfData, action_from_group_hom, function_algebra,
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
    """The document of the shipped instance `name` (A-I, any case)."""
    path = INSTANCES / f"instance_{name.lower()}.json"
    if path not in INSTANCES.glob("instance_*.json"):
        raise KeyError(f"unknown instance {name!r}")
    return read_spec(path)


def _table(spec: dict, key: str) -> np.ndarray:
    """The multiplication table under key; its "order", when given, must be
    the table's number of rows."""
    try:
        table = int_array(spec[key]["table"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{key!r} needs an integer multiplication table") from exc
    rows = len(table) if table.ndim else 0
    order = spec[key].get("order", rows)
    if type(order) is not int or order != rows:
        raise ParseError(f"{key!r} has order {order!r}, but its table has {rows} rows")
    return table


def _raw_tensor(obj, name: str, rank: int) -> np.ndarray:
    """A raw_hopf tensor of the given rank: real entries, or [re, im] pairs
    along one more axis; every entry finite."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == rank + 1 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    elif arr.ndim != rank:
        raise ParseError(f"{name} must have rank {rank}, or {rank + 1} with [re, im] "
                         f"pairs; it has shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ParseError(f"{name} has a non-finite entry")
    return arr.astype(complex)


def build_instance(spec: dict) -> SemidirectInstance:
    """Assemble a SemidirectInstance from the file-schema dictionary."""
    lam = FiniteGroup(_table(spec, "lambda"))
    kind = spec["kind"]
    if kind in ("function_algebra", "group_algebra"):
        algebra = function_algebra if kind == "function_algebra" else group_algebra
        base = algebra(FiniteGroup(_table(spec, "base")))
        alpha = action_from_group_hom(base, lam, spec["action"], "permutation")
    elif kind == "raw_hopf":
        try:
            raw = {k: _raw_tensor(spec["base"][k], k, rank) for k, rank in RANKS.items()}
            action = [_raw_tensor(m, "action matrix", 2) for m in spec["action"]]
        except KeyError as exc:
            raise ParseError(f"raw_hopf base is missing {exc}") from exc
        except (IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"raw_hopf data is malformed: {exc}") from exc
        base = HopfData.from_dense(**raw)
        report = verify_axioms(base)
        if not report["pass"]:
            raise ValidationError(
                f"raw Hopf data fails axioms (max residual {report['max']:.2e})")
        alpha = action_from_group_hom(base, lam, action, "matrix")
    else:
        raise ParseError(f"unknown instance kind {kind!r}")
    return build(base, lam, alpha)


def instance(name: str) -> SemidirectInstance:
    return build_instance(instance_spec(name))
