"""Benchmark driver for the chowforms CLI.

    python3 bench/run.py --workload proj-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The driver generates the
workload's problem list from ``--seed`` (see ``gen.py``), times set-up in
fresh processes, then solves the whole list in passes, each pass in one
more fresh process as a single closed-loop client (``worker.py``), for
about ``--seconds``.  Every solve's stdout hash is checked against
``golden.json``.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``layers.py`` with
``--trace 1``.  Lines before it record the environment and explain each
number.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gen
import layers

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
GOLDEN = os.path.join(BENCH, "golden.json")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_PROBES = 11    # fresh set-up-only processes per run
MAX_PASSES = 20
DEADLINE_S = 170     # the whole run, set-up included
TAIL_BEYOND = 10     # solves beyond the tail percentile
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"solves_per_s": "1/s", "solve_s_p50": "s", "solve_s_tail": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_rev():
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env):
    """What every number depends on; printed beside the metrics."""
    probe = ("import importlib.util, importlib.metadata as m, json;"
             "print(json.dumps({'gmpy2': importlib.util.find_spec('gmpy2')"
             " is not None, 'numpy': m.version('numpy'),"
             " 'scipy': m.version('scipy')}))")
    versions = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=60).stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "git_rev": git_rev(),
            "threads": {v: env[v] for v in THREAD_VARS},
            "PYTHONHASHSEED": env["PYTHONHASHSEED"]}


def write_problems(plan, workdir):
    """Problem files for every pool problem in the plan; id -> path."""
    paths = {}
    for family, index, _ in plan:
        pid = f"{family}/{index}"
        if pid not in paths:
            path = os.path.join(workdir, f"{family}.{index}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.problem_text(family, index))
            paths[pid] = path
    return paths


def plan_items(plan, paths):
    """Worker items, one per solve of the plan, in plan order."""
    pins = {pin for pins in gen.PINNED.values() for pin in pins}
    return [{"id": k, "problem": f"{fam}/{idx}",
             "command": gen.FAMILIES[fam][0], "path": paths[f"{fam}/{idx}"],
             "seed": seed, "pinned": (fam, idx, seed) in pins}
            for k, (fam, idx, seed) in enumerate(plan)]


def timed_start(cmd, env, deadline):
    """Start a worker; return (process, seconds from spawn to "ready")."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker until the run's deadline; kill it after that."""
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run's deadline and was killed")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")


def setup_times(workload, env, deadline):
    """Spawn-to-ready times of fresh set-up processes.  One extra process
    first fills the bytecode and file caches and is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        proc, ready = timed_start(
            [sys.executable, WORKER, "--setup-only", workload], env, deadline)
        finish(proc, deadline)
        if i:
            times.append(ready)
    return times


def run_pass(workdir, job, env, deadline):
    """One pass in a fresh worker; returns (result, spawn-to-ready s)."""
    n = job["pass"]
    job_path = os.path.join(workdir, f"job{n}.json")
    result_path = os.path.join(workdir, f"result{n}.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc, ready = timed_start([sys.executable, WORKER, job_path, result_path],
                              env, deadline)
    finish(proc, deadline)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ready


def check(records, items, golden):
    """Mark each solve ok or not; returns the number of solves that exited
    0 with a stdout other than the golden one."""
    wrong = 0
    for rec in records:
        expected = golden.get(items[rec["id"]]["problem"])
        clean = rec["rc"] == 0 and rec["error"] is None
        rec["ok"] = clean and rec["sha256"] == expected
        wrong += clean and rec["sha256"] != expected
    return wrong


def tail_rank(n):
    """1-based rank, among n sorted values, of the highest percentile that
    leaves TAIL_BEYOND values beyond it (the lowest value if n is small)."""
    return max(1, n - TAIL_BEYOND)


def e2e_metrics(passes, items, setup):
    """End-to-end metrics over every solve of every pass.  Pinned
    known-defect solves (``gen.PINNED``, solved once per run) count in
    ``ok_ratio`` only: their wall time, failing or not, is left out of the
    throughput and latency, so fixing the defect moves ``ok_ratio`` and
    nothing else."""
    records = [r for p in passes for r in p["solves"]]
    timed = [r for r in records if not items[r["id"]]["pinned"]]
    pinned_wall = sum(r["wall"] for r in records if items[r["id"]]["pinned"])
    # A failed solve counts as slower than every successful one.
    walls = [w for _, w in sorted((not r["ok"], r["wall"]) for r in timed)]
    n = len(walls)
    rank = tail_rank(n)
    attempted = len(records)
    ok = sum(r["ok"] for r in records)
    timed_ok = sum(r["ok"] for r in timed)
    timed_wall = sum(p["wall"] for p in passes) - pinned_wall
    metrics = {
        "solves_per_s": timed_ok / timed_wall,
        "solve_s_p50": statistics.median(walls),
        "solve_s_tail": walls[rank - 1],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "ok_ratio": ok / attempted,
        "setup_s": statistics.median(setup),
    }
    pinned = attempted - n
    notes = {
        "solves_per_s": f"{timed_ok} of {n} solves in {timed_wall:.3f} s "
                        f"over {len(passes)} passes, walls " +
                        ", ".join(f"{p['wall']:.3f}" for p in passes) +
                        (f", less {pinned_wall:.3f} s of {pinned} pinned "
                         f"solves" if pinned else ""),
        "solve_s_p50": f"median of {n} solves over {len(passes)} passes",
        "solve_s_tail": f"p{100 * rank / n:.1f}: rank {rank} of {n} "
                        f"solves, {n - rank} beyond it",
        "ok_ratio": f"fail_ratio = {attempted - ok}/{attempted} = "
                    f"{(attempted - ok) / attempted:.4f}",
        "setup_s": f"median of {len(setup)}: " +
                   ", ".join(f"{t:.4f}" for t in setup),
    }
    return metrics, notes


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "chowforms", "cli.py")):
        raise BenchError("no src/chowforms in this checkout; run from the "
                         "root of a chowforms source tree")
    if args.workload not in gen.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + DEADLINE_S
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    env = worker_env()
    print("env: " + json.dumps(environment(env), sort_keys=True))

    plan = gen.workload_plan(args.workload, args.seed)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    items = plan_items(plan, write_problems(plan, workdir))
    regular = [item for item in items if not item["pinned"]]
    job = {"workload": args.workload, "trace": False,
           "spans": os.path.join(workdir, "spans.jsonl")}

    setup = setup_times(args.workload, env, deadline)
    passes, wrong = [], 0
    start = time.monotonic()
    while True:
        # A traced run makes one untraced pass, then one traced pass.
        # Pinned known-defect solves run once, in the second pass, so a
        # traced run traces them too.
        job.update({"pass": len(passes),
                    "items": items if len(passes) == 1 else regular,
                    "trace": bool(args.trace) and len(passes) == 1})
        result, ready = run_pass(workdir, job, env, deadline)
        setup.append(ready)
        wrong += check(result["solves"], items, golden)
        passes.append(result)
        elapsed = time.monotonic() - start
        if args.trace:
            if len(passes) == 2:
                break
        elif len(passes) >= MAX_PASSES or (
                len(passes) >= gen.PASSES[args.workload] and
                elapsed + 2 * elapsed / len(passes) > args.seconds):
            # Passes beyond the workload's count only when the program got
            # so fast that two more would still end within --seconds.
            break

    correct = wrong == 0
    if args.trace:
        plain, traced = ({r["id"]: r for r in p["solves"]} for p in passes)
        if any(traced[k]["sha256"] != r["sha256"] for k, r in plain.items()):
            print("check: traced and untraced stdout hashes differ")
            correct = False
        values = dict(passes[1]["layers"])
        values["trace.overhead_ratio"] = (
            sum(traced[k]["wall"] for k in plain) /
            sum(r["wall"] for r in plain.values()) - 1)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.metric_units().items()}
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']} {m['unit']}")
    else:
        values, notes = e2e_metrics(passes, items, setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        for name, m in metrics.items():
            extra = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {m['value']:.6g} {m['unit']}{extra}")
    records = [r for p in passes for r in p["solves"]]
    failed = [r for r in records if not r["ok"]]
    for r in failed:
        item = items[r["id"]]
        print(f"failed: {item['problem']} seed={item['seed']} rc={r['rc']} "
              f"wall={r['wall']:.3f}s "
              f"{(r['error'] or r['stderr_tail']).strip()[-120:]!r}")
    if wrong:
        print(f"check: {wrong} solve(s) printed a stdout that differs from "
              f"the golden hash")
    return {"correct": correct, "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
