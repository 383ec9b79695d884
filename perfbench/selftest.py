"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json prints with its unit, that each
output check rejects a bank value perturbed by 1e-6 relative (and the job then
counts as failed), that a seed regenerates byte-identical inputs, that call
counts repeat exactly, and that self times stay non-negative when traced
calls run on worker threads.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import types

import run

run.load_program()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = os.path.join(run.HERE, ".work", "selftest")
FRESH_SEED = int.from_bytes(os.urandom(3), "big")


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cli(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metrics_print_with_units():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            lines, result = _cli(workload, FRESH_SEED, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            for name, unit in want.items():
                assert any(re.fullmatch(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}", line)
                           for line in lines), f"{name} not printed with unit {unit}"
            if trace:
                _check_trace_invariants(workload, result)


# Set-up calls each workload's prepare() makes at the tiny sizes.
SETUP_CALLS = {
    "fixed-bank": {"analysis.random_bank": 3, "pipeline.ingest": 2,
                   "templates.hermite_template": 12, "graphs.make_color_coding": 0},
    "train-window": {"analysis.random_bank": 0, "pipeline.ingest": 2,
                     "templates.hermite_template": 0, "graphs.make_color_coding": 0},
    "combinatorial": {"analysis.random_bank": 1, "pipeline.ingest": 0,
                      "templates.hermite_template": 0, "graphs.make_color_coding": 2},
}


def _check_trace_invariants(workload: str, result: dict) -> None:
    c = {k: m["value"] for k, m in result["metrics"].items()}
    for func, calls in SETUP_CALLS[workload].items():
        assert c[f"setup.{func}.calls"] == calls, (workload, func, c[f"setup.{func}.calls"])
    assert all(v >= 0 for k, v in c.items() if k.endswith(".self_s")), (workload, c)
    # The benchmark reaches every evaluator through core.max_filter, so a
    # tracer that misses a reference to a wrapped function shows up here.
    evaluator_calls = sum(v for k, v in c.items()
                          if k.startswith("groups.") and k.endswith(".calls"))
    assert evaluator_calls == c["core.max_filter.calls"] > 0, (workload, c)
    assert (c["assignment.max_profit_assignment.calls"]
            == c["groups.mf_column_permutation.calls"]), workload


def _perturbed(values, i):
    values = values.copy()
    values[i] *= 1.0 + 1e-6
    return values


def test_checks_reject_perturbed_bank_value():
    for name, wl in workloads.WORKLOADS.items():
        workdir = os.path.join(WORK, name)
        run.make_inputs(name, 3, workdir, "tiny")
        state = wl.prepare(workdir)
        out = wl.job(state)
        assert wl.check(state, out) == [], name
        for kind, values in out["bank_values"].items():
            for i in workloads._bank_subsample(len(values)):
                bad = copy.copy(out)
                bad["bank_values"] = dict(out["bank_values"], **{kind: _perturbed(values, i)})
                assert wl.check(state, bad), (name, kind, i)

        class Perturbing(wl):
            @staticmethod
            def job(state):
                out = wl.job(state)
                kind, values = next(iter(out["bank_values"].items()))
                out["bank_values"] = dict(out["bank_values"], **{kind: _perturbed(values, 0)})
                return out

        results = run.job_loop(Perturbing, state, 0.0, time.perf_counter(), traced=False)
        metrics = run.end_to_end(results, [(1.0, run.REF_LOOP_S)])
        assert all(not r["ok"] for r in results), name
        assert metrics["ok_frac"][0] == 0.0, name


def test_seed_regenerates_identical_inputs():
    for name in workloads.WORKLOADS:
        for size in ("tiny", "full"):
            a = run.make_inputs(name, FRESH_SEED, os.path.join(WORK, "a"), size)
            b = run.make_inputs(name, FRESH_SEED, os.path.join(WORK, "b"), size)
            c = run.make_inputs(name, FRESH_SEED + 1, os.path.join(WORK, "c"), size)
            assert a == b != c, (name, size)


def test_call_counts_repeat():
    for name in workloads.WORKLOADS:
        first, _ = run.run(name, 5, 0.0, True, "tiny", os.path.join(WORK, "r1"))
        second, _ = run.run(name, 5, 0.0, True, "tiny", os.path.join(WORK, "r2"))
        counts = [{k: m["value"] for k, m in r["metrics"].items()
                   if k.endswith(".calls") or k.startswith("graphs.dp_")
                   or k.endswith("calls_per_eval")} for r in (first, second)]
        assert counts[0] == counts[1], name
        _check_trace_invariants(name, first)


def test_self_time_per_thread():
    """Spans on worker threads must not be subtracted from a span open on
    another thread; with one shared stack the parent's self time went
    negative."""
    pkg = types.ModuleType("pbselftest")
    mod = types.ModuleType("pbselftest.mod")

    def inner():
        time.sleep(0.02)

    def outer():
        threads = [threading.Thread(target=mod.inner) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    mod.inner, mod.outer = inner, outer
    sys.modules["pbselftest"], sys.modules["pbselftest.mod"] = pkg, mod
    try:
        tracer = Tracer("pbselftest", {"mod": ("outer", "inner")})
        with tracer:
            mod.outer()
        res = tracer.results()
    finally:
        del sys.modules["pbselftest"], sys.modules["pbselftest.mod"]
    assert res[("mod", "inner")][0] == 4 and res[("mod", "outer")][0] == 1
    assert all(self_s >= 0 for _, self_s in res.values()), res
    assert res[("mod", "inner")][1] >= 4 * 0.02
    assert mod.outer is outer, "tracer left a wrapper installed"


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    print(f"fresh seed {FRESH_SEED}")
    try:
        for name, fn in tests:
            t0 = time.perf_counter()
            try:
                fn()
                print(f"PASS {name} ({time.perf_counter() - t0:.1f} s)")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
