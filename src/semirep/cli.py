"""Command-line front end.

Instance files follow the schema in corpus, whose read_spec reads them.

Commands: check, irr, fuse, induce, conj, oracle. Structured output is JSON
with integers as integers and complex numbers as [re, im] pairs; it is
byte-identical across runs for a fixed file and seed. `check` reports the Hopf
axiom residuals; building an instance already rejects any residual above
TOL_VERIFY (1e-9), so a file that fails them exits 1 on every command.
`oracle` checks its dims against classify and its cube against dimensions;
`conj` checks that the pairing is an involution. Only induce takes --subgroup
and --param.

Exit codes: 0 ok, 1 validation failure, 2 internal oracle disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import _linalg
from .corep import irr_enumerate
from .corpus import build_instance, read_spec
from .errors import OracleDisagreement, ParseError, SemirepError, ValidationError
from .groups import Subgroup
from .induction import induce, mackey_irreducible
from .mackey import classify, conjugation_pairing, csr_corep, fusion, parameters
from .oracle import module_fusion_cube, oracle_irr_dims
from .semidirect import SemidirectInstance


def _round_float(x: float) -> float:
    out = round(float(x), 12)
    return 0.0 if out == 0.0 else out  # normalize -0.0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round_float(obj.real), _round_float(obj.imag)]
    if isinstance(obj, (float, np.floating)):
        return _round_float(obj)
    if isinstance(obj, np.ndarray):
        # tolist already gives plain int and bool; only float and complex entries
        # need rounding
        return obj.tolist() if obj.dtype.kind in "biu" else _jsonable(obj.tolist())
    return obj


def emit(doc: dict, fmt: str, human_lines):
    """Print doc as JSON, or the human lines, an iterable read only here."""
    if fmt == "structured":
        print(json.dumps(_jsonable(doc), indent=2, sort_keys=False))
    else:
        for line in human_lines:
            print(line)


def load_instance(path: str) -> tuple[SemidirectInstance, dict]:
    spec = read_spec(path)
    return build_instance(spec), spec


def cmd_check(inst, spec, args):
    # Building the instance raised on any residual above TOL_VERIFY, so the
    # report here always passes.
    report = inst.axioms
    doc = {"name": spec.get("name", "?"), "dim": inst.dim,
           "residuals": {k: v for k, v in report.items() if k != "pass"},
           "pass": report["pass"]}
    lines = [f"instance: {doc['name']}  (dim {inst.dim})"]
    for key, val in report.items():
        if key in ("pass", "max"):
            continue
        lines.append(f"  {key:<24} {val:.3e}")
    lines.append(f"  max residual {report['max']:.3e} -> PASS")
    emit(doc, args.format, lines)
    return 0


def cmd_irr(inst, spec, args):
    cl = classify(inst, seed=args.seed)
    rows = []
    for w in cl:
        p = w.parameter
        rows.append({
            "label": w.label,
            "orbit_rep": w.orbit_rep,
            "orbit": list(w.orbit),
            "lambda0_generators": p.lambda0.generators(),
            "cocycle_trivial": bool(w.cocycle_trivial),
            "dim_u": p.u.dim,
            "dim_v": p.v.dim,
            "dim": w.dim,
        })
    doc = {"name": spec.get("name", "?"),
           "count": len(cl),
           "sum_dim_sq": sum(w.dim ** 2 for w in cl),
           "irreps": rows}
    lines = [f"instance: {doc['name']}",
             f"{'label':<6} {'orbit rep':<10} {'Lambda0 gens':<14} "
             f"{'cocycle triv':<13} {'dim u':<6} {'dim v':<6} {'dim':<4}"]
    for r in rows:
        lines.append(f"{r['label']:<6} {r['orbit_rep']:<10} "
                     f"{str(r['lambda0_generators']):<14} "
                     f"{str(r['cocycle_trivial']):<13} {r['dim_u']:<6} "
                     f"{r['dim_v']:<6} {r['dim']:<4}")
    lines.append(f"sum dim^2 = {doc['sum_dim_sq']} (product dim {inst.dim})")
    emit(doc, args.format, lines)
    return 0


def cmd_fuse(inst, spec, args):
    cl = classify(inst, seed=args.seed)
    table = fusion(inst, cl)
    doc = {"name": spec.get("name", "?"),
           "labels": [w.label for w in cl],
           "dims": [w.dim for w in cl],
           "cube": table.coefficients,
           "agreement": table.agreement()}

    def lines():  # k^2 lines of k entries each, built only when printed
        yield f"instance: {doc['name']}"
        yield "fusion cube N[w1][w2][w3]:"
        for i2, w2 in enumerate(cl):
            for i3, w3 in enumerate(cl):
                terms = []
                for i1, w1 in enumerate(cl):
                    n = table.entry(i1, i2, i3)
                    if n:
                        terms.append(f"{n if n > 1 else ''}{w1.label}")
                yield f"  {w2.label} x {w3.label} = {' + '.join(terms)}"
        yield f"oracle agreement: {doc['agreement']}"

    emit(doc, args.format, lines())
    return 0


def _parse_param_spec(text: str) -> dict:
    out = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        key, _, val = chunk.partition(":")
        key = key.strip()
        if key not in ("x", "v") or key in out:
            raise ParseError(f"--param {text!r}: {'repeated' if key in out else 'unknown'} "
                             f"key {key!r}; expected 'x:IDX,v:IDX'")
        try:
            out[key] = int(val)
        except ValueError as exc:
            raise ParseError(f"--param {text!r}: expected 'x:IDX,v:IDX'") from exc
    return out


def cmd_induce(inst, spec, args):
    if args.subgroup is None or args.param is None:
        raise ParseError("induce requires --subgroup and --param")
    try:
        elems = tuple(sorted(int(x) for x in args.subgroup.split(",")))
        sub = Subgroup(inst.lam_full, elems)
    except ValueError as exc:
        raise ParseError(f"--subgroup {args.subgroup!r}: not integers") from exc
    except ValidationError as exc:
        raise ParseError(f"--subgroup {args.subgroup!r}: {exc}") from exc
    psec = _parse_param_spec(args.param)
    xs = irr_enumerate(inst.base, args.seed)
    if not 0 <= psec.get("x", -1) < len(xs):
        raise ParseError(f"--param x must be in 0..{len(xs) - 1}")
    params = parameters(inst, xs[psec["x"]], sub, args.seed)
    if not 0 <= psec.get("v", -1) < len(params):
        raise ParseError(f"--param v must be in 0..{len(params) - 1}")
    csr = csr_corep(inst, params[psec["v"]])
    ind = induce(inst, csr)
    irreducible = ind.result.self_mor_dim == 1
    mackey = mackey_irreducible(inst, csr)
    if mackey != irreducible:
        raise OracleDisagreement("Mackey criterion disagrees with direct mor_dim")
    doc = {"name": spec.get("name", "?"),
           "subgroup": list(elems),
           "param": {"x": psec["x"], "v": psec["v"]},
           "dim": ind.result.dim,
           "character": ind.result.char_vec(),
           "irreducible": bool(irreducible)}
    lines = [f"induced dim {ind.result.dim}; "
             f"{'irreducible' if irreducible else 'reducible'} "
             f"(Mackey criterion agrees)"]
    emit(doc, args.format, lines)
    return 0


def cmd_conj(inst, spec, args):
    cl = classify(inst, seed=args.seed)
    pairing = {w.label: conjugation_pairing(inst, w, cl) for w in cl}
    if any(pairing.get(pairing[k]) != k for k in pairing):
        raise OracleDisagreement(f"conjugation is not an involution: {pairing}")
    doc = {"name": spec.get("name", "?"), "conjugation": pairing}
    lines = [f"instance: {doc['name']}", "conjugation involution:"]
    for k in pairing:
        lines.append(f"  {k} -> {pairing[k]}")
    emit(doc, args.format, lines)
    return 0


def cmd_oracle(inst, spec, args):
    dims = oracle_irr_dims(inst.product, args.seed)
    # standalone fusion of the classified list against the module oracle
    cl = classify(inst, seed=args.seed)
    classified = sorted(w.dim for w in cl)
    if dims != classified:
        raise OracleDisagreement(
            f"dual-algebra dims {dims} differ from the classified dims {classified}")
    cube = module_fusion_cube([w.induced for w in cl])
    wdims = np.array([w.dim for w in cl])
    bad = np.argwhere(np.einsum("abc,a->bc", cube, wdims) != np.outer(wdims, wdims))
    if len(bad):
        raise OracleDisagreement("module fusion cube breaks dim(w2 (x) w3) at "
                                 + " x ".join(cl[i].label for i in bad[0]))
    doc = {"name": spec.get("name", "?"), "irr_dims": dims, "fusion_cube": cube}
    lines = [f"instance: {doc['name']}",
             f"dual-algebra irreducible dims: {dims}",
             f"fusion cube computed from module homs "
             f"({len(cl)}^3 entries)"]
    emit(doc, args.format, lines)
    return 0


COMMANDS = {
    "check": cmd_check,
    "irr": cmd_irr,
    "fuse": cmd_fuse,
    "induce": cmd_induce,
    "conj": cmd_conj,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semirep",
        description="Representation theory of semidirect products of finite "
                    "quantum groups with finite groups.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("file", help="instance JSON file")
    ap.add_argument("--format", choices=("human", "structured"), default="human")
    ap.add_argument("--seed", type=int, default=None,
                    help="seed for the spectral splittings (default: file seed or 7)")
    ap.add_argument("--subgroup", default=None,
                    help="comma-separated Lambda element indices (induce)")
    ap.add_argument("--param", default=None,
                    help="parameter spec 'x:IDX,v:IDX' (induce)")
    return ap


@np.errstate(all="ignore")  # no warnings: every non-finite residual fails its check
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "induce" and (args.subgroup, args.param) != (None, None):
            raise ParseError("--subgroup and --param apply only to induce")
        inst, spec = load_instance(args.file)
        if args.seed is None:
            seed = spec.get("seed", _linalg.DEFAULT_SEED)
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ParseError(f"seed must be an integer, not {seed!r}")
            args.seed = seed
        return COMMANDS[args.command](inst, spec, args)
    except OracleDisagreement as exc:
        print(f"oracle disagreement: {exc}", file=sys.stderr)
        return 2
    except (SemirepError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
