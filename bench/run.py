"""One run of the jetzeta benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
`src/`, the fixtures are read from `fixtures/`.  Workloads, their jobs and
oracles are in `workloads.py`; the traced run's wrappers are in `tracing.py`.

Every workload is a closed loop with one caller: the next job starts when the
previous one has returned and been checked.  The seed makes one pass of jobs.
A run repeats that pass, each job as cold as a fresh CLI call, until the
next pass would end after S seconds (one pass at least), and times every job
by its fastest repetition.  The host's speed drifts, by up to a factor of two
within seconds on a shared machine, and a job's fastest repetition is the one
that drift slowed least.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
alternates untraced passes and passes with wrappers around the library's
public functions, removes the wrappers and reports the per-layer metrics,
each the median over the traced passes.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "jetzeta" / "__init__.py").is_file():
    sys.exit(f"bench: no jetzeta sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import jetzeta  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 5

# end-to-end metrics listed, with their bounds, in BENCHMARK.json
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Printed and recorded, but not listed in BENCHMARK.json.  fail_ratio is 0
# whenever the program is right.  The per-job order statistics fall on short
# jobs in a sparse spread of job times, and vary between runs by more than
# any bound the benchmark may fix.
PRINTED_UNITS = {"job_s_p50": "s", "job_s_tail": "s", "fail_ratio": "ratio"}

PER_LAYER_UNITS = {
    "gf.field_builds": "count", "gf.table_build_s": "s", "gf.vec_calls": "count",
    "gf.vec_busy_s": "s", "gf.vec_elems": "count", "gf.vec_ns_per_elem": "ns",
    "gf.vec_bytes_computed": "B", "gf.add_v_busy_s": "s", "gf.pow_v_busy_s": "s",
    "count.calls": "count", "count.busy_s": "s", "count.self_s": "s",
    "count.prime_busy_s": "s", "count.ext_busy_s": "s", "count.max_q": "elements",
    "count.call_s_p50": "s",
    "classify.calls": "count", "classify.busy_s": "s", "classify.self_s": "s",
    "classify.route_interp": "count", "classify.route_residue": "count",
    "classify.route_trace": "count", "classify.counts_per_call": "count/call",
    "classify.table_ratio": "ratio", "classify.good_primes_s": "s",
    "system.calls": "count", "system.build_s": "s",
    "laurent.divide_exact_calls": "count", "laurent.divide_exact_busy_s": "s",
    "dagger.fit_calls": "count", "dagger.fit_busy_s": "s",
    "dagger.hadamard_busy_s": "s", "dagger.add_busy_s": "s",
    "dagger.peeled_busy_s": "s",
    "cells.faces_busy_s": "s", "cells.chi_busy_s": "s", "cells.lattice_busy_s": "s",
    "zeta.calls": "count", "zeta.busy_s": "s",
    "resolution.busy_s": "s",
    **{f"{layer}.self_s": "s"
       for layer in list(tracing.LAYERS) + [tracing.HARNESS_LAYER]},
    "trace.spans": "count", "trace.solve_s": "s", "trace.overhead_ratio": "ratio",
    "trace.self_sum_ratio": "ratio",
}


@dataclass
class Pass:
    """Wall and CPU seconds of each job of one pass, and the jobs that failed."""

    wall: list[float]
    cpu: list[float]
    failed: int
    spans: list[tracing.Span] = field(default_factory=list)


def run_pass(jobs: list[workloads.Job], tracer: tracing.Tracer | None = None) -> Pass:
    """Run the jobs one after another; each starts as cold as a fresh CLI call."""
    out = Pass([], [], 0)
    for i, job in enumerate(jobs):
        workloads.cold_start()
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                job.run()
            else:
                tracer.begin_job(i)
                tracer.call("bench:job", job.run, (), {})
        except workloads.OracleMismatch as exc:
            out.failed += 1
            print(f"bench: job {job.name} disagrees with its oracle: {exc}",
                  file=sys.stderr)
        except Exception:  # a failing job is counted, the run goes on
            out.failed += 1
            print(f"bench: job {job.name} raised:", file=sys.stderr)
            traceback.print_exc()
        out.wall.append(time.perf_counter() - w0)
        out.cpu.append(time.process_time() - c0)
    return out


def run_passes(jobs: list[workloads.Job], seconds: float,
               trace: bool = False) -> tuple[list[Pass], list[Pass]]:
    """Untraced and traced passes, alternating when `trace` is set, for as
    long as the next pass, taken to last as long as the longest so far, ends
    within `seconds`.  There is at least one pass of each kind asked for."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        p0 = time.perf_counter()
        if trace and len(traced) < len(untraced):
            tracer = tracing.Tracer()
            tracer.install()
            try:
                one = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            one.spans = tracer.spans
            traced.append(one)
        else:
            untraced.append(run_pass(jobs))
        now = time.perf_counter()
        longest = max(longest, now - p0)
        if (not trace or traced) and now - start + longest > seconds:
            return untraced, traced


def fastest(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Each job's least wall and least CPU seconds over the passes."""
    return ([min(p.wall[j] for p in passes) for j in range(len(passes[0].wall))],
            [min(p.cpu[j] for p in passes) for j in range(len(passes[0].cpu))])


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it, and its
    value (nearest rank).  Below 20 samples no such percentile lies above the
    median, and the maximum stands in for it, as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Seconds from spawning a run's process until its first job is ready,
    for each of SETUP_SPAWNS spawns."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                _, err = proc.communicate(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
        samples.append(ready - t0)
    return samples


def _commit() -> str | None:
    """The checkout's git commit; None outside a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args: argparse.Namespace, jobs: list[workloads.Job]) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": [job.name for job in jobs],
        "threads": max(job.threads for job in jobs),
        "nproc": workloads.nproc(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "commit": _commit(), "src_sha256": _src_digest(),
    }


def end_to_end(args: argparse.Namespace, jobs: list[workloads.Job],
               setup: list[float]) -> tuple[dict, dict, list[Pass]]:
    passes, _ = run_passes(jobs, args.seconds)
    wall, cpu = fastest(passes)
    tail_s, tail_pct = tail(wall)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": sum(wall),
        "cpu_s": sum(cpu),
        "job_s_p50": statistics.median(wall),
        "job_s_tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"setup_s": f"median of {len(setup)} spawns",
             "solve_s": f"{len(jobs)} jobs, each the fastest of {len(passes)} passes",
             "job_s_tail": f"p{tail_pct} of {len(jobs)} jobs"}
    return metrics, notes, passes


def per_layer(args: argparse.Namespace, jobs: list[workloads.Job]) -> tuple[dict, dict, list[Pass]]:
    untraced, traced = run_passes(jobs, args.seconds, trace=True)
    untraced_s = sum(fastest(untraced)[0])
    traced_s = sum(fastest(traced)[0])
    # each traced pass does the same work: counts repeat exactly, times vary
    per_pass = [tracing.layer_metrics(p.spans, sum(p.wall)) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.solve_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    notes = {"trace.solve_s": f"{len(jobs)} jobs, each the fastest of {len(traced)} traced passes",
             "trace.overhead_ratio": f"over {untraced_s:.6g} s untraced, "
                                     f"the fastest of {len(untraced)} passes",
             "trace.spans": f"per pass; layer metrics are medians of {len(traced)} traced passes"}
    return metrics, notes, untraced + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not Path(jetzeta.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported jetzeta from {jetzeta.__file__}, not {SRC}")

    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        jobs = workloads.build(args.workload, args.seed)
        metrics, notes, passes = per_layer(args, jobs)
        gated = PER_LAYER_UNITS
    else:
        setup = setup_seconds(args)
        jobs = workloads.build(args.workload, args.seed)
        metrics, notes, passes = end_to_end(args, jobs, setup)
        gated = END_TO_END_UNITS
    attempted = sum(len(p.wall) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["fail_ratio"] = failed / attempted
    notes["fail_ratio"] = f"{failed} of {attempted} jobs"
    units = {name: {**gated, **PRINTED_UNITS}[name] for name in metrics}

    print(f"jetzeta benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(jobs)} jobs a pass, {len(passes)} passes, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<10} {notes.get(name, '')}".rstrip())
    record = {"env": environment(args, jobs), "metrics": metrics, "units": units,
              "notes": notes, "attempted": attempted, "failed": failed,
              "pass_s": [sum(p.wall) for p in passes]}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
