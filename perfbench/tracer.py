"""Outside-in tracer for semirep's layers; nothing under `src/` changes.

`Tracer.install()` wraps the public functions named in LAYERS. The package
binds names with `from .x import f`, so each wrapper replaces the binding in
every `semirep.*` namespace that holds the same function object, not only in
the defining module. `HopfData.product` and `SemidirectInstance.principal` are
wrapped on their classes.

Each call records a span (name, start, end, parent) in memory; a layer's self
time is its span's duration minus the durations of its wrapped children.
Some layers also get probes that read argument shapes before the call: those
figures (`*_cells`, `*_bytes`, shares) are computed, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

import numpy as np

LAYERS = {
    "semirep.mackey": ["incidence", "fusion_entry", "fusion", "csr_corep",
                       "reduce_grp", "classify", "conjugation_pairing"],
    "semirep.semidirect": ["join_covariant", "act_corep", "restrict_corep",
                           "build"],
    "semirep.groups": ["conjugate_intersection", "left_cosets"],
    "semirep.projective": ["proj_mor_dim", "irreducible_projreps"],
    "semirep._linalg": ["module_hom_basis", "nullspace", "as_int"],
    "semirep.oracle": ["module_hom_dim", "module_decompose", "oracle_irr_dims"],
    "semirep.corep": ["tensor", "irr_enumerate", "irr_decompose", "regular_corep",
                      "intertwiner_basis", "mor_dim", "irr_action", "conjugate"],
    "semirep.hopf": ["verify_axioms", "action_from_group_hom"],
    "semirep.cli": ["load_instance", "emit"],
    "semirep.induction": ["induce", "mackey_irreducible"],
}
METHODS = {  # span name -> (module, class, method)
    "hopf.HopfData.product": ("semirep.hopf", "HopfData", "product"),
    "semidirect.principal": ("semirep.semidirect", "SemidirectInstance", "principal"),
}


def _dense_limit() -> int:
    return getattr(sys.modules["semirep._linalg"], "DENSE_NULLSPACE_LIMIT", 1024)


# -- probes: computed from arguments, run before the wrapped call ---------------

def _probe_csr(tr, args, kwargs):
    """Content key of the parameter: equal keys could share one CSR corep."""
    p = args[1] if len(args) > 1 else kwargs["p"]
    digest = hashlib.blake2b(repr(p.lambda0.elements).encode(), digest_size=16)
    for arr in (p.u.entries, p.V.mats, p.v.mats):
        digest.update(np.ascontiguousarray(arr).tobytes())
    tr.csr_params.add(digest.digest())


def _probe_principal(tr, args, kwargs):
    inst, sub = args[0], args[1] if len(args) > 1 else kwargs["sub"]
    if sub.elements not in inst.top._principal_cache:
        tr.add("semidirect.principal.misses", 1)


def _probe_module_hom(tr, args, kwargs):
    mats1 = args[0] if args else kwargs["mats1"]
    mats2 = args[1] if len(args) > 1 else kwargs["mats2"]
    n = np.shape(mats1[0])[0] * np.shape(mats2[0])[0]
    staged = len(mats1) * n > 8 * _dense_limit()
    tr.add("linalg.module_hom_basis.system_cells", (3 if staged else len(mats1)) * n * n)
    tr.add("linalg.module_hom_basis.staged", int(staged))


def _probe_nullspace(tr, args, kwargs):
    shape = np.shape(args[0] if args else kwargs["mat"])
    tr.add("linalg.nullspace.svd_cells", int(np.prod(shape)))


def _probe_verify_axioms(tr, args, kwargs):
    d = (args[0] if args else kwargs["h"]).dim
    tr.peak("hopf.verify_axioms.d4_bytes", 16 * d ** 4)  # one complex128 d^4 array


def _probe_intertwiner(tr, args, kwargs):
    u, w = args[0], args[1]
    tr.add("corep.intertwiner_basis.averaged", int(u.dim * w.dim > _dense_limit()))


def _probe_as_int(tr, args, kwargs):
    try:
        x = complex(args[0] if args else kwargs["value"])
    except (TypeError, ValueError):
        return
    tr.peak("linalg.as_int.worst_margin", max(abs(x.real - round(x.real)), abs(x.imag)))


PROBES = {
    "mackey.csr_corep": _probe_csr,
    "semidirect.principal": _probe_principal,
    "linalg.module_hom_basis": _probe_module_hom,
    "linalg.nullspace": _probe_nullspace,
    "hopf.verify_axioms": _probe_verify_axioms,
    "corep.intertwiner_basis": _probe_intertwiner,
    "linalg.as_int": _probe_as_int,
}


RATIOS = {  # ratio -> (numerator, denominator), both summed over jobs
    "mackey.csr_corep.distinct_ratio": ("mackey.csr_corep.distinct", "mackey.csr_corep.calls"),
    "semidirect.principal.miss_ratio": ("semidirect.principal.misses",
                                        "semidirect.principal.calls"),
    "linalg.module_hom_basis.staged_share": ("linalg.module_hom_basis.staged",
                                              "linalg.module_hom_basis.calls"),
    "corep.intertwiner_basis.averaged_share": ("corep.intertwiner_basis.averaged",
                                               "corep.intertwiner_basis.calls"),
}
PEAKS = ("hopf.verify_axioms.d4_bytes", "linalg.as_int.worst_margin")


def combine(summaries: list[dict]) -> dict:
    """Totals over jobs: sums, except peaks (max); ratios from the sums."""
    totals: dict[str, float] = {}
    for summary in summaries:
        for key, val in summary.items():
            totals[key] = max(totals.get(key, val), val) if key in PEAKS \
                else totals.get(key, 0) + val
    for name, (num, den) in RATIOS.items():
        totals[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
    return totals


class Tracer:
    """Spans and counters of one job, kept in memory until it ends."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent span]
        self.stack: list[int] = []
        self.sums: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.csr_params: set[bytes] = set()

    def add(self, key: str, value) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(self, args, kwargs)
            idx = len(spans)
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def install(self) -> None:
        """Wrap every layer function in all semirep namespaces bound to it."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "semirep" or n.startswith("semirep.")]
        for modname, funcs in LAYERS.items():
            module = sys.modules[modname]
            for fname in funcs:
                fn = getattr(module, fname)
                layer = modname[len("semirep."):].lstrip("_")  # names start with a letter
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, attr, wrapper)
        for name, (modname, cls, meth) in METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            setattr(klass, meth, self._wrap(name, getattr(klass, meth)))

    def summary(self) -> dict:
        """Per layer: calls and self time; plus the probe counters."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        names = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[f"{name}.calls"] = int(mask.sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
        out.update(self.sums)
        out.update(self.peaks)
        out["mackey.csr_corep.distinct"] = len(self.csr_params)
        return out

    def save(self, path) -> None:
        """Write the raw spans: name index, start, end, parent span."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(path, names=np.array(self.names),
                            name=arr[:, 0].astype(np.int16), start=arr[:, 1],
                            end=arr[:, 2], parent=arr[:, 3].astype(np.int64))
