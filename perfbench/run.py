"""Benchmark driver for conergy.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 25 --trace 0

Single process, single thread, closed loop with one caller.  The job list
comes from the seed (see jobs.py) and runs in-process through the public
entry points: ``conergy.cli.main(argv)`` with stdout captured, and
``conergy.algebra.ce_bound_check`` for algebras.  Every output is checked
against reference.py, which does not use conergy.

With ``--trace 0`` the job list runs in passes until the next pass would end
after ``--seconds``; the last stdout line reports the end-to-end metrics.
With ``--trace 1`` one untraced pass is followed by one traced pass; their
outputs must be equal, spans go to .perfbench_out/, and the last line
reports the per-layer metrics.  The line before it carries the seed, the
job-list digest and, untraced, the median and tail job latency with the
tail's percentile and sample count.
"""

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, job_list_digest, make_jobs  # noqa: E402
from reference import Checker  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# set-up is timed this many times, half before the measured passes and half
# after, so that one slow moment of a shared machine does not set the median
SETUP_REPEATS = 8
TAIL_BEYOND = 10
WARMUP = (
    {"kind": "cli", "argv": ["enumerate", "--n", "5"]},
    {"kind": "cli", "argv": ["conlat", "--builder", "glue:chain:2,b4"]},
    {"kind": "cli", "argv": ["energy", "--builder", "n5"]},
    {"kind": "cli", "argv": ["quotient", "--builder", "chain:3", "--by", "[0,0,2]"]},
    {"kind": "cli", "argv": ["verify", "--suite", "remark1", "--n", "4"]},
    {"kind": "cli", "argv": ["oracle", "--n", "3"]},
    {"kind": "algebra", "n": 3, "ops": [["f", 1, [1, 1, 2]]]},
)


def use_checkout_sources():
    """Let the enumeration budget reach n = 9 and import from src/."""
    os.environ["CONERGY_BUDGET_N"] = "9"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_package():
    """Import conergy afresh from this checkout's src/, compiling the
    sources (no cached bytecode is read or written)."""
    for name in [m for m in sys.modules if m == "conergy" or m.startswith("conergy.")]:
        del sys.modules[name]
    pkg = importlib.import_module("conergy")
    if Path(pkg.__file__).resolve().parent != SRC / "conergy":
        raise ImportError(f"conergy imported from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"conergy.{name}") for name in LAYERS}


def run_job(mods, job):
    """Run one job; returns (seconds, output)."""
    if job["kind"] == "cli":
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = mods["cli"].main(job["argv"])
        except (Exception, SystemExit) as exc:
            return time.perf_counter() - start, {"error": repr(exc)}
        return time.perf_counter() - start, {"rc": rc, "stdout": out.getvalue()}
    alg = mods["algebra"]
    start = time.perf_counter()
    try:
        ops = tuple(alg.Operation(name, arity, tuple(table)) for name, arity, table in job["ops"])
        verdict = alg.ce_bound_check(alg.FiniteAlgebra(job["n"], ops))
    except Exception as exc:
        return time.perf_counter() - start, {"error": repr(exc)}
    return time.perf_counter() - start, {"verdict": dataclasses.asdict(verdict)}


def run_pass(mods, jobs, tracer=None):
    """One pass over the job list: (wall seconds, job seconds, outputs)."""
    gc.collect()
    times, outputs = [], []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        dt, out = run_job(mods, job)
        times.append(dt)
        outputs.append(out)
    return time.perf_counter() - start, times, outputs


def set_up(workload, seed):
    """Import, generate the job list and warm up; returns the modules, the
    jobs and the seconds it took."""
    start = time.perf_counter()
    mods = load_package()
    jobs = make_jobs(workload, seed)
    for job in WARMUP:
        run_job(mods, job)
    return mods, jobs, time.perf_counter() - start


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def check_pass(checker, jobs, outputs, failures):
    for job, out in zip(jobs, outputs):
        err = checker.check(job, out)
        if err is not None:
            failures.append(f"{job['id']} {job.get('argv', job.get('family'))}: {err}")


def measure(mods, jobs, seconds, checker, failures):
    """Passes until the next one would end after ``seconds``: (pass wall
    times, every job latency of every pass)."""
    walls, latencies = [], []
    start = time.perf_counter()
    while True:
        wall, times, outputs = run_pass(mods, jobs)
        walls.append(wall)
        latencies += times
        check_pass(checker, jobs, outputs, failures)
        if time.perf_counter() - start + wall > seconds:
            return walls, latencies


def traced_pair(mods, jobs, checker, failures, spans_path):
    wall_plain, _, plain = run_pass(mods, jobs)
    tracer = Tracer()
    tracer.install(mods)
    try:
        wall_traced, _, traced = run_pass(mods, jobs, tracer)
    finally:
        tracer.uninstall()
    for job, a, b in zip(jobs, plain, traced):
        if a != b:
            failures.append(f"{job['id']}: traced output differs from the untraced one")
    check_pass(checker, jobs, plain, failures)
    check_pass(checker, jobs, traced, failures)
    tracer.write(spans_path)
    return tracer.metrics(wall_traced - wall_plain), wall_plain, wall_traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "conergy" / "__init__.py").is_file():
        print(f"perfbench: no conergy sources under {SRC}", file=sys.stderr)
        return 2
    use_checkout_sources()
    sys.pycache_prefix = str(OUT / "no-bytecode")
    setup_times, digests = [], set()

    def timed_setups():
        for _ in range(SETUP_REPEATS // 2):
            mods, jobs, seconds = set_up(args.workload, args.seed)
            setup_times.append(seconds)
            digests.add(job_list_digest(jobs))
        return mods, jobs

    mods, jobs = timed_setups()
    checker = Checker()
    failures = []
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "job_list_sha256": job_list_digest(jobs),
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, wall_plain, wall_traced = traced_pair(mods, jobs, checker, failures, spans_path)
        attempted = 2 * len(jobs)
        detail.update(untraced_wall_s=wall_plain, traced_wall_s=wall_traced, spans=str(spans_path.relative_to(ROOT)))
    else:
        walls, latencies = measure(mods, jobs, args.seconds, checker, failures)
        attempted = len(walls) * len(jobs)
        tail_s, tail_pct = tail(latencies)
        detail.update(
            passes=len(walls),
            job_p50_ms={"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            job_tail_ms={"value": tail_s * 1e3, "unit": "ms", "percentile": tail_pct, "samples": len(latencies)},
        )
        timed_setups()
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "ok_ratio": {"value": 1.0 - len(failures) / attempted, "unit": "ratio"},
        }
    if len(digests) != 1:
        failures.append("the same seed gave different job lists")
    detail["failures"] = failures[:20]
    for line in failures:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
