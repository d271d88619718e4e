"""Run one workload for a fixed time and report its metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) alternate an untraced and a traced unit on identical inputs,
report the per-layer metrics and the tracing overhead, and check that the
traced solutions are bit-identical to the untraced ones.  Every run writes a
result file with the host, the inputs and every sample under
``perfbench/out/``, and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Fewest units a run measures, however short --seconds is, so that every
#: reported median is taken over at least this many samples.
MIN_UNITS = 3

#: Timings reported as a median with a tail percentile.
TIMED = ("time_to_solution_s", "setup_s", "solve_s")

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cycles", "count"),
    ("rho_mean", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _tail(samples: list) -> str:
    """The highest of p99, p95, p90, p75 with at least ten samples beyond
    it, or a note that there are too few."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return f"p{q} {np.percentile(samples, q):.4f}"
    return "no tail percentile"


def host_info(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _git_commit() -> str:
    """HEAD read from .git without running git; a benchmark checkout is
    usually not a repository, and src_sha256 identifies the code then."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _measure(run, seconds: float, min_units: int) -> list:
    """Call run() at least `min_units` times, then while another call of
    average length still ends within `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= min_units and \
                elapsed * (len(results) + 1) / len(results) > seconds:
            return results
        results.append(run())
        # Free the unit's cyclic garbage now, so peak memory does not depend
        # on when the collector happens to run.
        gc.collect()


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(units: list, rss_mb: float) -> tuple:
    """Medians of the unit timings, means of the cycle count and of the
    convergence factor over all solves, and the peak memory `rss_mb`; also
    returns the samples behind them."""
    ok = [u for u in units if u.total_s > 0.0]
    setups = [s for u in ok for s in u.setup_s]
    solves = [s for u in ok for s in u.solve_s]
    cycles = [c for u in ok for c in u.cycles]
    rhos = [r for u in ok for r in u.rho]
    values = {
        "time_to_solution_s": [u.total_s for u in ok],
        "setup_s": setups,
        "solve_s": solves,
    }
    metrics = {name: statistics.median(v) if v else None
               for name, v in values.items()}
    values.update(cycles=cycles, rho_mean=rhos)
    if ok and ok[0].solve_points and metrics["setup_s"] is not None:
        # Medians of the full and the one-cycle sweep are steadier than
        # the median of their per-unit differences.
        metrics["solve_s"] = ((metrics["time_to_solution_s"]
                               - metrics["setup_s"]) / ok[0].solve_points)
    metrics["cycles"] = statistics.fmean(cycles) if cycles else None
    metrics["rho_mean"] = statistics.fmean(rhos) if rhos else None
    metrics["peak_rss_mb"] = rss_mb
    return metrics, values


def same_solution(a, b) -> bool:
    """Bitwise equality of two solutions: arrays, or CSV rows as text."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


def run_untraced(args, workload) -> tuple:
    rss_mb = []

    def unit():
        result = workload.run_unit()
        rss_mb.append(_max_rss_mb())
        return result

    units = _measure(unit, args.seconds, MIN_UNITS)
    # Peak memory through the first measured unit: what one solve at this
    # size needs.  Later units only add allocator fragmentation, which
    # grows with the number of units a run happens to fit.
    metrics, samples = end_to_end(units, rss_mb[0])
    return units, metrics, samples, {}


def run_traced(args, workload, twin) -> tuple:
    """Alternate an untraced unit of `workload` and a traced unit of
    `twin` (same seed, so the same inputs)."""
    tracer = tracing.Tracer()
    rng = np.random.default_rng(args.seed)
    snapshots = []

    def pair():
        plain = workload.run_unit(keep=True)
        with tracer.active(unit=len(snapshots)):
            traced = twin.run_unit(keep=True)
        counts, hierarchy = tracer.take_level_counts()
        if hierarchy is not None:
            counts.update(tracing.probe_levels(hierarchy, rng))
        snapshots.append(counts)
        if len(plain.solutions) != len(traced.solutions) or not all(
                same_solution(a, b)
                for a, b in zip(plain.solutions, traced.solutions)):
            traced.failures.append("traced solution differs from untraced")
        plain.solutions = traced.solutions = []
        return plain, traced

    pairs = _measure(pair, args.seconds, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    overhead = (statistics.median(u.total_s for u in traced)
                - statistics.median(u.total_s for u in plain))
    metrics = tracer.layer_metrics(len(traced), snapshots, overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed})
    return plain + traced, metrics, {}, {"spans": str(spans_path)}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="ghostmg benchmark: time to a 1e-10 solve.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes; runs in seconds")
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    host = host_info(args)
    # Warm imports, SciPy's lazy set-up and SuperLU on the tiny sizes of the
    # same workload before anything is timed.
    workloads.make_workload(args.workload, args.seed, OUT,
                            smoke=True).run_unit()
    workload = workloads.make_workload(args.workload, args.seed, OUT,
                                       smoke=args.smoke)
    if args.trace:
        twin = workloads.make_workload(args.workload, args.seed, OUT,
                                       smoke=args.smoke)
        units, metrics, samples, extra = run_traced(args, workload, twin)
        names = tracing.layer_metric_names()
    else:
        units, metrics, samples, extra = run_untraced(args, workload)
        names = END_TO_END
    attempted = sum(u.attempted for u in units)
    failures = [f for u in units for f in u.failures]
    errors = [e for u in units for e in u.errors]
    correct = not failures and all(metrics[n] is not None for n, _ in names)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"units={len(units)} python={host['python']} "
          f"numpy={host['numpy']} scipy={host['scipy']} "
          f"threads={host['threads']}")
    for name, unit in names:
        value = metrics[name]
        line = f"{name} {value!r} {unit}"
        if name in TIMED and samples.get(name):
            line += (f"  (median of {len(samples[name])}; "
                     f"{_tail(samples[name])})")
        print(line)
    if errors:
        print(f"error_linf {max(errors)!r} (max over {len(errors)} solves)")
    print(f"failed_frac {len(failures) / max(attempted, 1)!r} "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"{'-smoke' if args.smoke else ''}.json")
    result_path.write_text(json.dumps({
        "host": host, "metrics": metrics, "samples": samples,
        "error_linf": max(errors) if errors else None,
        "attempted": attempted, "failures": failures, **extra,
    }, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0 if correct else 1
