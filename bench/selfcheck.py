"""Self-checks of the benchmark itself; exits 1 on the first failure.

    PYTHONPATH=src python3 bench/selfcheck.py

1. For a given seed the generator writes byte-identical problem files.
2. A golden hash that is wrong on purpose counts as a failed solve.
3. Traced and untraced solves print identical stdout.
4. The tracer puts every wrapped function back afterwards.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

import gen
import layers
import run
import worker


def digest_dir(path):
    return {name: hashlib.sha256(open(os.path.join(path, name), "rb")
                                 .read()).hexdigest()
            for name in sorted(os.listdir(path))}


def check_generator():
    for workload in gen.WORKLOADS:
        plan = gen.workload_plan(workload, 7)
        assert plan == gen.workload_plan(workload, 7), workload
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            run.write_problems(plan, a)
            run.write_problems(plan, b)
            assert digest_dir(a) == digest_dir(b), workload


def sample_items(tmp, count=6):
    """The first ``count`` solves of a proj-small plan, as worker items."""
    plan = gen.workload_plan("proj-small", 3)[:count]
    return run.plan_items(plan, run.write_problems(plan, tmp))


def check_wrong_golden(main, items, golden):
    records, _ = worker.run_pass(main, items)
    good = [dict(r) for r in records]
    assert run.check(good, items, golden) == 0 and all(r["ok"] for r in good)
    bad_golden = dict(golden)
    bad_golden[items[0]["problem"]] = "0" * 64
    bad = [dict(r) for r in records]
    assert run.check(bad, items, bad_golden) == 1 and not bad[0]["ok"]
    return records


def originals():
    out = {}
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("chowforms") or name == "scipy.optimize":
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    from chowforms.mpoly import MPoly
    out[("MPoly", "evaluate")] = MPoly.__dict__["evaluate"]
    out[("MPoly", "__mul__")] = MPoly.__dict__["__mul__"]
    out[("MPoly", "__rmul__")] = MPoly.__dict__["__rmul__"]
    return out


def check_tracing(main, items, plain):
    before = originals()
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced, _ = worker.run_pass(main, items, tracer)
    finally:
        tracer.restore()
    assert [r["sha256"] for r in traced] == [r["sha256"] for r in plain]
    assert originals() == before, "a wrapper was left in place"
    metrics = tracer.metrics()
    assert set(metrics) | {"trace.overhead_ratio"} == \
        set(layers.metric_units())
    assert metrics["cli.parse_problem.s"] > 0


def main():
    import json
    import scipy.optimize  # noqa: F401  (so linprog's restore is checked)
    from chowforms.cli import main as cli_main

    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    checks = [("generator is deterministic", check_generator)]
    with tempfile.TemporaryDirectory() as tmp:
        items = sample_items(tmp)
        state = {}

        def wrong_golden():
            state["plain"] = check_wrong_golden(cli_main, items, golden)

        def tracing():
            check_tracing(cli_main, items, state["plain"])

        checks += [("wrong golden hash counts as a failure", wrong_golden),
                   ("tracing keeps stdout and restores originals", tracing)]
        for name, fn in checks:
            try:
                fn()
            except AssertionError as exc:
                print(f"FAIL {name}: {exc}")
                return 1
            print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
