"""Workload inputs: generated instance files and the job list of each workload.

A job is one CLI invocation, `semirep <cmd> <file> --format structured
--seed S [extra args]`. The shipped instances A-F are read from `instances/`
unchanged; the C(S4) x| Z2 rung and the sweep family are generated here from
`semirep.groups`, so the same workload seed always writes byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from semirep.groups import (automorphisms, cyclic_group, dihedral_group,
                            direct_product, quaternion_group, symmetric_group)

# Irreducible dimensions of the shipped instances (README table, sorted).
SHIPPED_DIMS = {
    "A": [1, 1, 2],
    "B": [1, 1, 1, 1, 2],
    "C": [1, 1, 1, 1, 2, 2],
    "D": [1] * 12,
    "E": [1] * 4 + [2] * 4 + [4],
    "F": [1] * 16 + [4],
}

# The bases of the random-instance families, with the irreducible dimensions
# of each group (those of C(G)); C[G] has |G| one-dimensional coreps.
SWEEP_BASES = {
    "Z4": (lambda: cyclic_group(4), [1, 1, 1, 1]),
    "Z6": (lambda: cyclic_group(6), [1] * 6),
    "Z2xZ2": (lambda: direct_product(cyclic_group(2), cyclic_group(2)), [1] * 4),
    "S3": (lambda: symmetric_group(3), [1, 1, 2]),
    "D4": (lambda: dihedral_group(4), [1, 1, 1, 1, 2]),
    "Q8": (quaternion_group, [1, 1, 1, 1, 2]),
}
SWEEP_KINDS = ("function", "group")


@dataclass(frozen=True)
class Job:
    """One CLI invocation of a workload, with the reason it is there."""
    key: str                 # reference key: "<instance>/<cmd>[/x<X>]"
    cmd: str
    path: str                # instance file, relative to the checkout root
    why: str
    extra: tuple[str, ...] = ()
    facts: dict = field(default_factory=dict, compare=False)  # checker inputs

    def argv(self, seed: int) -> list[str]:
        return [self.cmd, self.path, "--format", "structured",
                "--seed", str(seed), *self.extra]


def _shipped(name: str, cmd: str, why: str) -> Job:
    dims = SHIPPED_DIMS[name]
    return Job(key=f"{name}/{cmd}", cmd=cmd,
               path=f"instances/instance_{name.lower()}.json", why=why,
               facts={"dim": sum(d * d for d in dims), "irr_dims": dims})


# -- generated instances --------------------------------------------------------

def s4_rung_spec() -> dict:
    """C(S4) x| Z2, Lambda acting by conjugation with the transposition (0 1)."""
    s4 = symmetric_group(4)
    z2 = cyclic_group(2)
    t01 = sorted(itertools.permutations(range(4))).index((1, 0, 2, 3))
    conj = [s4.mul(s4.mul(t01, x), t01) for x in s4.elements()]
    return {
        "name": "C(S4) x| Z2 by conjugation with a transposition",
        "kind": "function_algebra",
        "base": {"order": 24, "table": s4.mult.tolist()},
        "lambda": {"order": 2, "table": z2.mult.tolist()},
        "action": [list(range(24)), conj],
    }


def sweep_family() -> list[tuple[str, dict, list[int]]]:
    """The 56 instances of the random-instance test families.

    Every base, as a function and as a group algebra, with Z2 acting by each
    automorphism of order at most 2. Returns (id, spec, base irrep dims).
    """
    z2 = cyclic_group(2)
    out = []
    for name, (make, group_dims) in SWEEP_BASES.items():
        g = make()
        ident = np.arange(g.order)
        involutions = [a for a in automorphisms(g) if np.array_equal(a[a], ident)]
        for kind in SWEEP_KINDS:
            dims = group_dims if kind == "function" else [1] * g.order
            for k, a in enumerate(involutions):
                spec = {
                    "name": f"{kind}[{name}]#{k}",
                    "kind": f"{kind}_algebra",
                    "base": {"order": g.order, "table": g.mult.tolist()},
                    "lambda": {"order": 2, "table": z2.mult.tolist()},
                    "action": [ident.tolist(), a.tolist()],
                }
                out.append((spec["name"], spec, dims))
    return out


def sweep_draw(seed: int) -> list[tuple[str, dict, list[int], int]]:
    """One instance per (base, kind) stratum, and an irrep index X for induce.

    Stratifying keeps the size mix of every draw alike, so pass times compare
    across seeds. Returns (id, spec, base irrep dims, X).
    """
    rng = random.Random(seed)
    strata: dict[str, list] = {}
    for inst_id, spec, dims in sweep_family():
        strata.setdefault(inst_id.split("#")[0], []).append((inst_id, spec, dims))
    draw = []
    for stratum in strata.values():
        inst_id, spec, dims = rng.choice(stratum)
        draw.append((inst_id, spec, dims, rng.randrange(len(dims))))
    return draw


def _write(path: Path, spec: dict) -> None:
    path.write_text(json.dumps(spec, sort_keys=True, separators=(",", ":")))


# -- workloads ------------------------------------------------------------------

def workload_jobs(name: str, seed: int, tmpdir: Path, root: Path) -> list[Job]:
    """The job list of a workload; generated instance files go to tmpdir.

    Why each workload is in the benchmark is recorded in BENCHMARK.json; why
    each job is in its workload, in the job's `why`.
    """
    if name == "fuse-cube":
        return [
            _shipped("A", "fuse", "smallest cube (k=3): fixed cost of the "
                     "three fusion routes"),
            _shipped("B", "fuse", "k=5 with a factor-swap action"),
            _shipped("C", "fuse", "k=6 over a noncommutative base"),
            _shipped("D", "fuse", "k=12, 1,728 entries: csr_corep runs about "
                     "5,760 times for 12 parameters; most of the pass"),
        ]
    if name == "ladder":
        s4 = tmpdir / "instance_s4.json"
        _write(s4, s4_rung_spec())
        s4_job = Job(key="S4/irr", cmd="irr", path=str(s4.relative_to(root)),
                     why="dim 48: verify_axioms' dense d^4 work is most of "
                         "the job, peak near 690 MB",
                     facts={"dim": 48, "irr_dims": None})
        return [
            _shipped("E", "irr", "dim 36: regular-corep decomposition and a "
                     "nontrivial isotropy family"),
            _shipped("F", "check", "dim 32, |Lambda| = 4: axioms verified at "
                     "build and again by the command"),
            _shipped("F", "irr", "dim 32: needs a genuinely projective v"),
            s4_job,
            _shipped("E", "oracle", "dual-algebra oracle: about 1,170 large "
                     "two-stage module-hom systems, peak near 900 MB"),
        ]
    if name == "sweep":
        return [job for inst_id, spec, dims, x in sweep_draw(seed)
                for job in sweep_jobs(inst_id, spec, dims, [x], tmpdir, root)]
    raise KeyError(f"unknown workload {name!r}")


def sweep_jobs(inst_id: str, spec: dict, dims: list[int], xs: list[int],
               tmpdir: Path, root: Path) -> list[Job]:
    """check, irr, conj, and induce at each irrep index in xs, on one instance."""
    path = tmpdir / (inst_id.translate(str.maketrans("[]#", "__-")) + ".json")
    _write(path, spec)
    rel = str(path.relative_to(root))
    facts = {"dim": 2 * spec["base"]["order"], "irr_dims": None,
             "lam_order": 2, "base_dims": dims}
    jobs = [
        Job(f"{inst_id}/check", "check", rel, "build plus a second axiom check",
            facts=facts),
        Job(f"{inst_id}/irr", "irr", rel, "classification from scratch", facts=facts),
        Job(f"{inst_id}/conj", "conj", rel,
            "classification plus the conjugation pairing", facts=facts),
    ]
    for x in xs:
        jobs.append(Job(f"{inst_id}/induce/x{x}", "induce", rel,
                        "induction from the trivial subgroup, which stabilizes "
                        "every irrep", ("--subgroup", "0", "--param", f"x:{x},v:0"),
                        facts={**facts, "x": x}))
    return jobs
