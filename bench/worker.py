"""One pass over a workload's problem list in one fresh process.

    python3 bench/worker.py <job.json> <result.json>
    python3 bench/worker.py --setup-only <workload>

The process imports what the workload needs, prints ``ready`` on stdout,
then solves the job's problems one after another through
``chowforms.cli.main`` (a single client in a closed loop) and writes
per-solve exit codes, stdout hashes and wall times to the result file.
``--setup-only`` stops after ``ready``; the parent times fresh processes
from spawn to ``ready`` as the set-up time.  With ``"trace": true`` the
pass runs under ``layers.Tracer`` and the result holds its per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def set_up(workload):
    """Everything a user pays before the first solve of this workload."""
    import chowforms.cli
    if workload in gen.NEEDS_LP:
        import scipy.optimize  # noqa: F401
    src = os.path.join(ROOT, "src", "")
    if not chowforms.cli.__file__.startswith(src):
        raise SystemExit(f"chowforms was imported from "
                         f"{chowforms.cli.__file__}, not from {src}")
    print("ready", flush=True)


def solve(main, item):
    """Run one CLI command in-process; returns the per-solve record."""
    out, err = io.StringIO(), io.StringIO()
    argv = [item["command"], item["path"], "--seed", str(item["seed"])]
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed solve, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return {"id": item["id"], "rc": rc, "wall": wall, "error": error,
            "stderr_tail": err.getvalue()[-200:],
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run_pass(main, items, tracer=None):
    """Solve every item in order; returns (records, wall seconds)."""
    records = []
    t0 = time.perf_counter()
    for item in items:
        if tracer is None:
            records.append(solve(main, item))
        else:
            with tracer.solve_span(item["id"]):
                records.append(solve(main, item))
    return records, time.perf_counter() - t0


def run_job(job):
    from chowforms.cli import main

    tracer = None
    if job["trace"]:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    try:
        records, wall = run_pass(main, job["items"], tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"solves": records, "wall": wall,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump_spans(job["spans"])
    return result


if __name__ == "__main__":
    if sys.argv[1] == "--setup-only":
        set_up(sys.argv[2])
        sys.exit(0)
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    set_up(job["workload"])
    result = run_job(job)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
