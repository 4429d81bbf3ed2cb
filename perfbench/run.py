"""The semirep benchmark: CLI jobs in fresh processes, one at a time.

    python3 perfbench/run.py --workload {fuse-cube,ladder,sweep,all}
                             --seed N --seconds S --trace {0,1}

A job is one CLI command, `semirep <cmd> <file> --format structured --seed N`,
run by `worker.py` in a fresh interpreter: every real invocation pays for its
own start-up, parse, build and axiom check and keeps nothing between runs.
One client runs the jobs in a closed loop: the job list once, then again
in order while the next job still fits in `--seconds`. Every output goes
through `checker.py`; a job fails on a non-zero exit, an exception, a
timeout or a rejected output.

With `--trace 0` the end-to-end metrics are printed:
  wall_s       sum over the job list of each job's median `semirep.cli.main`
               time (interpreter start and import excluded)
  setup_s      median over the run's jobs of the time from spawning the
               interpreter until `import semirep.cli` has finished
  peak_rss_mb  highest worker ru_maxrss among the run's jobs
With `--trace 1` every job runs once untraced and once traced; the per-layer
metrics come from the traced runs, every traced output must equal the
untraced one byte for byte, and the raw spans and counters go to
`.perfbench/trace/<workload>-seed<N>/`.
The last line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs the three workloads and prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import checker
    import inputs
    import tracer
except ImportError as exc:  # not inside a semirep checkout: print no result
    sys.exit(f"error: cannot load the semirep sources under {ROOT / 'src'}: {exc}")

COMMANDS = ("fuse", "check", "irr", "conj", "oracle", "induce")
JOB_TIMEOUT_S = 120

# Workloads and metric names come from BENCHMARK.json. Its per-layer list
# names a self time only for layers that run on every workload, so no listed
# time is a constant 0; counters.json and the report carry every layer.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# -- one job ---------------------------------------------------------------------

def run_job(job, seed: int, spans: Path | None, reference: dict) -> dict:
    """Run one job in a fresh interpreter; returns its timings and problems."""
    request = {"src": str(ROOT / "src"), "argv": job.argv(seed),
               "trace": int(spans is not None), "spans": str(spans)}
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(request)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"job": job, "took_s": JOB_TIMEOUT_S, "problems": [f"{job.key}: timed out"]}
    took = time.monotonic() - spawned
    try:
        report = json.loads(out)
    except ValueError:
        return {"job": job, "took_s": took, "problems": [
            f"{job.key}: worker died ({proc.returncode}): {err.strip()[-300:]}"]}
    if report["error"] is not None or report["rc"] != 0:
        problems = [f"{job.key}: exit {report['rc']} {report['error'] or err.strip()}"]
    else:
        problems = checker.check_output(job, report["stdout"], reference)
    return {"job": job, "took_s": took, "problems": problems, "stdout": report["stdout"],
            "setup_s": report["imported_at"] - spawned, "run_s": report["run_s"],
            "rss_mb": report["rss_kb"] / 1024, "layers": report.get("layers")}


def run_pass(jobs, seed, reference, trace_dir=None) -> list[dict]:
    results = []
    for job in jobs:
        spans = None if trace_dir is None else trace_dir / (
            job.key.translate(str.maketrans("/[]#", "____")) + ".npz")
        results.append(run_job(job, seed, spans, reference))
        for problem in results[-1]["problems"]:
            print(f"FAIL {problem}")
    return results


def run_closed_loop(jobs, seed, reference, seconds) -> list[dict]:
    """One full pass, then the job list again in order while the next job,
    at the length of its previous run, still ends within `seconds`."""
    start = time.monotonic()
    results = run_pass(jobs, seed, reference)
    while time.monotonic() - start + results[-len(jobs)]["took_s"] <= seconds:
        results += run_pass([jobs[len(results) % len(jobs)]], seed, reference)
    return results


# -- metrics ----------------------------------------------------------------------

def end_to_end(results, jobs) -> tuple[dict, dict]:
    """End-to-end metrics, and the per-command time sums for the report."""
    done = [r for r in results if "run_s" in r]
    if not done:
        sys.exit("error: no job completed; nothing to measure")
    per_job = {}
    for r in done:
        per_job.setdefault(r["job"].key, []).append(r["run_s"])
    median_of = {key: statistics.median(v) for key, v in per_job.items()}
    metrics = {
        "wall_s": sum(median_of.values()),
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "peak_rss_mb": max(r["rss_mb"] for r in done),
    }
    by_cmd = {}
    for job in jobs:
        if job.key in median_of:
            by_cmd[f"{job.cmd}_s"] = by_cmd.get(f"{job.cmd}_s", 0.0) + median_of[job.key]
    return metrics, by_cmd


def per_layer(traced, untraced_wall: float) -> dict:
    """Layer totals of the traced pass, and its overhead over the untraced one."""
    totals = tracer.combine([r["layers"] for r in traced if r.get("layers")])
    totals["trace.overhead_s"] = sum(r.get("run_s", 0) for r in traced) - untraced_wall
    return totals


def hottest(res: dict) -> str:
    """One traced job and the layer with the largest self time in it."""
    self_s = {k[:-len(".self_s")]: v for k, v in res["layers"].items() if k.endswith(".self_s")}
    top = max(self_s, key=self_s.get)
    return (f"{res['job'].key}: {res['run_s']:.3f} s traced, largest self time "
            f"{top} {self_s[top]:.3f} s")


# -- a workload run ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = checker.load_reference()
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        jobs = inputs.workload_jobs(name, seed, Path(tmp), ROOT)
        if not trace:
            plain = results = run_closed_loop(jobs, seed, reference, seconds)
        else:
            trace_dir = workdir / "trace" / f"{name}-seed{seed}"
            trace_dir.mkdir(parents=True, exist_ok=True)
            # Each job runs untraced and then traced, so the two runs of a
            # pair see the same machine state and their difference is the
            # tracing overhead rather than drift.
            plain, traced = [], []
            for job in jobs:
                plain += run_pass([job], seed, reference)
                traced += run_pass([job], seed, reference, trace_dir)
                if "stdout" in plain[-1] and plain[-1]["stdout"] != traced[-1].get("stdout"):
                    traced[-1]["problems"].append(f"{job.key}: traced output differs")
                    print(f"FAIL {job.key}: traced output differs")
            results = plain + traced
    e2e, by_cmd = end_to_end(plain, jobs)
    result = {"workload": name, "attempted": len(results),
              "failed": sum(1 for r in results if r["problems"]),
              "end_to_end": e2e, "by_cmd": by_cmd}
    if trace:
        result["layers"] = per_layer(traced, e2e["wall_s"])
        result["hottest"] = [hottest(r) for r in traced if r.get("layers")]
        (trace_dir / "counters.json").write_text(json.dumps(
            {"workload": result["layers"],
             "jobs": {r["job"].key: r["layers"] for r in traced if r.get("layers")}},
            indent=1, sort_keys=True))
    return result


def human_lines(res: dict) -> list[str]:
    e2e = res["end_to_end"]
    lines = [f"workload {res['workload']}: {res['attempted']} jobs, {res['failed']} failed "
             f"(fail_ratio {res['failed'] / res['attempted']:.3f})"]
    for key, unit in END_TO_END.items():
        lines.append(f"  {key:<12} {e2e[key]:10.4f} {unit}")
    for key, val in res["by_cmd"].items():
        lines.append(f"  {key:<12} {val:10.4f} s")
    if "layers" in res:
        lines += [f"  {line}" for line in res["hottest"]]
        lines.append("  per-layer (traced pass):")
        for key in sorted(res["layers"]):
            lines.append(f"    {key:<44} {res['layers'][key]:.6g}")
    return lines


def table(rows: list[dict]) -> list[str]:
    """One row per workload: every end-to-end metric, fail_ratio, command times."""
    cols = {**END_TO_END, "fail_ratio": "ratio", **{f"{c}_s": "s" for c in COMMANDS}}
    if any("layers" in r for r in rows):
        cols["trace.overhead_s"] = "s"
    lines = [f"{'workload':<10}" + "".join(f"{f'{c}[{u}]':>22}" for c, u in cols.items())]
    for r in rows:
        vals = {**r["end_to_end"], **r["by_cmd"], **r.get("layers", {}),
                "fail_ratio": r["failed"] / r["attempted"]}
        lines.append(f"{r['workload']:<10}" + "".join(
            f"{vals[c]:>22.4f}" if c in vals else f"{'-':>22}" for c in cols))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "instances").is_dir():
        sys.exit(f"error: no instances/ directory under {ROOT}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    for name in names:
        rows.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
        print("\n".join(human_lines(rows[-1])))
    if args.workload == "all":
        print("\n".join(table(rows)))
        return 0 if all(r["failed"] == 0 for r in rows) else 1
    res = rows[0]
    source, units = (res["layers"], PER_LAYER) if args.trace else (res["end_to_end"], END_TO_END)
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": source.get(k, 0), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
