"""Run one CLI job in this fresh interpreter and report on it as JSON.

Usage: python3 worker.py '<request json>'

The request holds `src` (the package source directory), `argv` (the CLI
arguments), `trace` (0 or 1) and, when tracing, `spans` (the file the raw
spans go to). The report on stdout holds `imported_at` (CLOCK_MONOTONIC when
`import semirep.cli` had finished, so the caller can time interpreter start-up
plus import), `run_s` (the time of the `semirep.cli.main` call), `rc`,
`rss_kb` (ru_maxrss), `stdout` (the CLI's output), `error`, and with tracing
the per-layer `layers` summary.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    import semirep.cli
    imported_at = time.monotonic()

    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = semirep.cli.main(request["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the job failed; report it, do not die
        error = traceback.format_exc()
    run_s = time.perf_counter() - start

    report = {"imported_at": imported_at, "run_s": run_s, "rc": rc,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "stdout": out.getvalue(), "error": error}
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.save(request["spans"])
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
