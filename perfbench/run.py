"""Closed-loop benchmark of maxfilt: one client, each job starting after the
previous one finishes, everything in one process.

    python3 perfbench/run.py --workload fixed-bank --seed 1 --seconds 38 --trace 0

``--trace 0`` times whole jobs with tracing off and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics of the boundary functions (see ``tracer.py``).  Inputs are
generated from ``--seed`` under ``perfbench/.work`` and removed afterwards.
The last line of standard output is the result JSON; a run record (machine,
reference-loop samples, raw wall times, code counts, known-defect probe)
precedes it.

Job and set-up times are reported at a fixed host speed.  A shared host's
speed drifts by tens of percent over minutes, and every workload slows with
it, so a fixed reference loop (``reference_loop``) is timed between jobs and
between set-up probes, each wall time is divided by the loop time around it,
and the median quotient is reported in seconds of a host on which one loop
slice takes ``REF_LOOP_S``.  The loop is the benchmark's own code and calls
nothing in the program, so a change to the program moves the reported times
in the same proportion as the wall times.  The raw wall times and loop times
are kept in the run record.

BLAS and OpenMP run on one thread: on a few shared cores, library thread
pools measure the scheduler rather than the program.  The program's own
threads (``district``'s ``--threads`` default) are left as they are.

Run from a checkout that holds ``src/maxfilt``; elsewhere it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os

# Before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up probes: at least SETUP_PROBES_MIN fresh processes, more while they
# take under SETUP_PROBE_BUDGET_S in total, so a cheap set-up gets a median
# of many samples.
SETUP_PROBES_MIN = 3
SETUP_PROBES_MAX = 15
SETUP_PROBE_BUDGET_S = 3.0
MIN_JOBS = 3
# Start no new job after this many seconds, so a run ends well within 180 s.
JOB_DEADLINE_S = 120.0
# Time of one reference-loop slice on the host the reported times are scaled
# to: about its median on a 2-core Intel Xeon VM, where a slice took
# 0.018-0.034 s as the host's load changed.
REF_LOOP_S = 0.028
REF_SLICES = 5
SETUP_FUNCS = (("analysis", "random_bank"), ("graphs", "make_color_coding"),
               ("pipeline", "ingest"), ("templates", "hermite_template"))


class MissingProgram(RuntimeError):
    pass


def load_program():
    """Import maxfilt from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "maxfilt", "__init__.py")):
        raise MissingProgram(f"no maxfilt package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import maxfilt

    if os.path.dirname(os.path.dirname(os.path.abspath(maxfilt.__file__))) != SRC:
        raise MissingProgram(f"maxfilt imported from {maxfilt.__file__}, not {SRC}")
    return maxfilt


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, workdir: str, size: str = "full") -> str:
    """Write the workload's inputs and return their SHA-256 digest."""
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workloads.WORKLOADS[workload].generate(seed, workdir, size)
    return inputs_digest(workdir)


def inputs_digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(workdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes
# ---------------------------------------------------------------------------

def setup_probe(workload: str, workdir: str) -> float:
    """Time ``import maxfilt`` plus the workload's preparation in this
    (fresh) process.  Only the standard library is imported before it."""
    t0 = time.perf_counter()
    load_program()
    import workloads

    workloads.WORKLOADS[workload].prepare(workdir)
    return time.perf_counter() - t0


def measure_setup(workload: str, workdir: str) -> list:
    """Set-up probes in fresh processes: a list of (seconds, reference-loop
    seconds around the probe)."""
    times = []
    refs = [reference_loop()]
    t0 = time.perf_counter()
    while len(times) < SETUP_PROBES_MIN or (
            len(times) < SETUP_PROBES_MAX and time.perf_counter() - t0 < SETUP_PROBE_BUDGET_S):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
             "--workload", workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        refs.append(reference_loop())
    return [(t, (a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]


# ---------------------------------------------------------------------------
# Run record (informational, gates nothing)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reference_data() -> dict:
    import numpy as np

    rng = np.random.default_rng(0)
    return {"zs": rng.standard_normal((3, 10)),
            "lifted": [rng.standard_normal((3, 10, 200)) for _ in range(40)],
            "signals": [rng.standard_normal(256) for _ in range(32)],
            "rows": list(rng.standard_normal((64, 32))), "z": np.linspace(-1.0, 1.0, 32),
            "cube": rng.standard_normal((256, 40, 40)), "mask": rng.random((256, 1, 40)) < 0.5,
            "cost": rng.standard_normal((48, 48)), "pot": np.zeros(48)}


def _reference_slice() -> float:
    """Fixed work of the kinds the program does: small numpy calls (inner
    products, norms, shifts, searches) over a 2 MB working set; FFT
    correlations and sorting; interpreted Python around tiny numpy calls;
    masked reductions over a 3 MB array; and scalar reads of numpy arrays in
    Python loops."""
    import numpy as np

    d = _reference_data()
    zs, z, cube, mask, cost, pot = d["zs"], d["z"], d["cube"], d["mask"], d["cost"], d["pot"]
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        for x in d["lifted"]:
            acc += float(np.einsum("cw,cwt->t", zs, x).max()) + float(np.linalg.norm(x))
            acc += float(np.roll(x, 3, axis=2)[0, 0, 0]) + len(np.flatnonzero(x[0, 0] > 1.0))
            acc += bool(np.isfinite(x).all())
    for _ in range(4):
        for sig in d["signals"]:
            acc += float(np.fft.irfft(np.fft.rfft(sig) * np.fft.rfft(sig[::-1])).max())
            acc += sorted(sig.tolist())[-1]
    for _ in range(25):
        for row in d["rows"]:
            acc += float((row * z).max())
    for _ in range(2):
        acc += float(np.where(mask, cube, -np.inf).max(axis=2).sum())
    for _ in range(3):
        for i in range(48):
            for j in range(48):
                cur = cost[i, j] - pot[i] - pot[j]
                if cur < 0.0:
                    acc += cur
    return time.perf_counter() - t0


def reference_loop() -> float:
    """Median time of REF_SLICES reference slices."""
    return statistics.median(_reference_slice() for _ in range(REF_SLICES))


def at_reference_speed(samples: list) -> float:
    """Median of (seconds, reference seconds) pairs, scaled to REF_LOOP_S."""
    return statistics.median(t / ref for t, ref in samples) * REF_LOOP_S


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def code_counts() -> dict:
    lines = branches = 0
    pkg = os.path.join(SRC, "maxfilt")
    for dirpath, _, files in os.walk(pkg):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    text = fh.read()
                lines += text.count("\n")
                branches += len(re.findall(r"isinstance\(group\b", text))
    return {"src_lines": lines, "isinstance_branches": branches}


def known_defect_probe(workdir: str) -> dict:
    """Untimed: ``maxfilt lipschitz`` on perm:64 escapes as an uncaught
    OverflowError (64! ** 4 in ``random_bank_parameters``) instead of exit
    code 5.  Reported so the defect stays visible; it is why the timed
    Lipschitz job runs on cyclic:256."""
    argv = ["lipschitz", "--group", "perm:64", "--n", "4", "--samples", "2", "--seed", "0"]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "maxfilt.cli"] + argv, capture_output=True,
                          text=True, timeout=120, cwd=workdir, env=env)
    err = proc.stderr.strip().splitlines()
    return {"command": "maxfilt " + " ".join(argv), "exit": proc.returncode,
            "uncaught": "Traceback" in proc.stderr, "last_line": err[-1] if err else "",
            "still_fails": proc.returncode not in (0, 5) or "Traceback" in proc.stderr}


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def attempt(wl, state, tracer=None) -> dict:
    """Run one job (timed), then its output check (untimed)."""
    out = None
    gc.collect()  # so garbage left by the previous job is not collected in this one
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.job(state)
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = wl.check(state, out)
    except Exception:
        if out is None:
            elapsed = time.perf_counter() - t0
        problems = ["raised:\n" + traceback.format_exc()]
    for problem in problems:
        print(f"[{wl.name}] check failed: {problem}", file=sys.stderr)
    return {"ok": not problems, "seconds": elapsed, "out": out,
            "trace": tracer.results() if tracer is not None else None}


def job_loop(wl, state, seconds: float, run_start: float, traced: bool) -> list:
    """Closed loop for about ``seconds``: a job starts while the run is
    expected to end nearer to ``seconds`` with it than without it.  The
    reference loop runs before the first job and after each one; each result
    carries the mean of the two around it as ``ref``.  With ``traced``,
    untraced and traced jobs alternate, so the tracing overhead is measured
    in the same run."""
    from tracer import Tracer

    min_jobs = 2 * 2 if traced else MIN_JOBS
    results = []
    ref = reference_loop()
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        n = len(results)
        cycle = (now - t0) / n if n else 0.0
        enough = n >= min_jobs and now - t0 + cycle / 2 > seconds
        if results and (enough or now - run_start > JOB_DEADLINE_S):
            break
        use_tracer = traced and n % 2 == 1
        result = attempt(wl, state, Tracer() if use_tracer else None)
        ref_after = reference_loop()
        result["ref"] = (ref + ref_after) / 2
        ref = ref_after
        results.append(result)
    return results


def _ok_samples(results: list) -> list:
    """(seconds, reference seconds) of the jobs that passed, or of all jobs
    when none did."""
    ok = [r for r in results if r["ok"]] or results
    return [(r["seconds"], r["ref"]) for r in ok]


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(results: list, setup_samples: list) -> dict:
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    return {
        "job_s": (at_reference_speed(_ok_samples(results)), "s"),
        "setup_s": (at_reference_speed(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(state, results: list, setup_trace: dict) -> tuple:
    """Per-layer metrics from the traced jobs; returns (metrics, problems)."""
    import workloads
    from tracer import BOUNDARIES, metric_prefix

    problems = []
    traced = [r for r in results if r["trace"] is not None]
    untraced = [r for r in results if r["trace"] is None]
    metrics = {}
    first = traced[0]["trace"]
    for r in traced[1:]:
        if any(r["trace"][key][0] != first[key][0] for key in first):
            problems.append("call counts differ between traced jobs")
            break
    for module, funcs in BOUNDARIES.items():
        for func in funcs:
            key = (module, func)
            name = metric_prefix(module, func)
            metrics[f"{name}.calls"] = (first[key][0], "count")
            metrics[f"{name}.self_s"] = (statistics.median(r["trace"][key][1] for r in traced), "s")
    for module, func in SETUP_FUNCS:
        calls, self_s = setup_trace[(module, func)]
        metrics[f"setup.{metric_prefix(module, func)}.calls"] = (calls, "count")
        metrics[f"setup.{metric_prefix(module, func)}.self_s"] = (self_s, "s")
    for r in traced:
        negative = [k for k, (_, s) in r["trace"].items() if s < 0]
        if negative:
            problems.append(f"negative self time: {negative}")

    out = traced[0]["out"] or {}
    evals = out.get("evals", 0)
    mf_calls = first[("core", "max_filter")][0]
    metrics["core.max_filter.calls_per_eval"] = (mf_calls / evals if evals else 0.0, "ratio")
    pair, dense = workloads.dp_ops(state, out)
    metrics["graphs.dp_pair_ops"] = (pair, "count")
    metrics["graphs.dp_dense_ops"] = (dense, "count")
    metrics["graphs.dp_useful_ratio"] = (pair / dense if dense else 0.0, "ratio")
    t_on = at_reference_speed(_ok_samples(traced))
    t_off = at_reference_speed(_ok_samples(untraced))
    metrics["trace.overhead"] = (t_on / t_off - 1.0, "ratio")
    return metrics, problems


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        workdir: str | None = None) -> tuple:
    """One benchmark run; returns (result, record)."""
    run_start = time.perf_counter()
    load_program()
    import numpy
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[workload]
    workdir = workdir or os.path.join(HERE, ".work", f"{workload}-{seed}")
    digest = make_inputs(workload, seed, workdir, size)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "inputs_sha256": digest, "nproc": os.cpu_count(),
              "cpu_model": cpu_model(), "python": platform.python_version(),
              "numpy": numpy.__version__, **code_counts(),
              "reference_loop_start_s": reference_loop()}
    try:
        setup_trace = None
        if trace:
            tracer = Tracer()
            with tracer:
                state = wl.prepare(workdir)
            setup_trace = tracer.results()
            record["untraced_functions"] = tracer.missing
        else:
            setup_samples = measure_setup(workload, workdir)
            record["setup_samples"] = {"seconds": [t for t, _ in setup_samples],
                                       "reference_s": [r for _, r in setup_samples]}
            state = wl.prepare(workdir)
        record["known_defect"] = known_defect_probe(workdir)
        results = job_loop(wl, state, seconds, run_start, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["reference_loop_end_s"] = reference_loop()

    untraced = [r for r in results if r["trace"] is None]
    times = [r["seconds"] for r in untraced]
    record["job_s_untraced"] = {
        "quartiles": quartiles(times), "count": len(times), "samples": times,
        "reference_s": [r["ref"] for r in untraced],
        "quartiles_at_reference_speed": quartiles(
            [r["seconds"] / r["ref"] * REF_LOOP_S for r in untraced])}
    record["items_per_job"] = wl.items(state)
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    problems = []
    if trace:
        metrics, problems = per_layer(state, results, setup_trace)
    else:
        metrics = end_to_end(results, setup_samples)
    for problem in problems:
        print(f"[{workload}] trace check failed: {problem}", file=sys.stderr)
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.setup_probe)))
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        load_program()
    except (MissingProgram, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    d = record["known_defect"]
    print(f"known defect: `{d['command']}` {'still fails' if d['still_fails'] else 'fixed'}"
          f" (exit {d['exit']}: {d['last_line']})", file=sys.stderr)
    print(json.dumps({"run_record": record}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
