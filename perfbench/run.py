"""Benchmark for dimergeom: three exact-arithmetic workloads.

    python3 perfbench/run.py --workload dynamics|spectral|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the workload runs whole rounds of operations in a closed
loop (one caller, one operation at a time) for at least --seconds seconds
and at least MIN_OPS operations, and reports the end-to-end metrics.
With --trace 1 it runs the fixed traced suite (see traced.py) and reports
the per-layer metrics; its work is set by the seed alone.

Every operation's output is checked.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.gauge import Gauge  # noqa: E402  (standard library only)

WORKLOADS = ("dynamics", "spectral", "cli")
# set-ups per run, whose median is reported: about 2-10 s of set-up per workload
SETUP_REPS = {"dynamics": 3, "spectral": 5, "cli": 7}
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile

# (name, unit): the end-to-end metrics of every workload
END_TO_END = (
    ("small_op_s.p50", "s"),
    ("large_op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> None:
    """Import the package from ./src and the benchmark modules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dimergeom", "__init__.py")):
        raise SystemExit(f"error: no package source at {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import dimergeom.cli  # noqa: F401
    import perfbench.traced  # noqa: F401
    import perfbench.workloads  # noqa: F401


def build(workload: str, seed: int):
    from perfbench import workloads

    if workload == "dynamics":
        return workloads.dynamics(seed)
    if workload == "spectral":
        return workloads.spectral(seed)
    return workloads.cli_workload(seed, ROOT)


def p90(values) -> tuple:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def timed_rounds(ops, seconds: float, gauge: Gauge) -> tuple:
    """Run whole rounds until both seconds and MIN_OPS are reached.
    Returns ([(op, reference seconds, ok)], {error type: count})."""
    from perfbench.workloads import run_op

    samples, errors = [], {}
    start = time.perf_counter()
    while True:
        for op in ops:
            ok, dt, error = run_op(op, gauge)
            if error:
                errors[error] = errors.get(error, 0) + 1
            samples.append((op, dt, ok))
        if time.perf_counter() - start >= seconds and len(samples) >= MIN_OPS:
            return samples, errors


def class_times(samples, cls: str) -> dict:
    """Input type -> the times of its ops, over the ops of one class."""
    by_type = {}
    for op, dt, _ in samples:
        if op.cls == cls:
            by_type.setdefault(op.name, []).append(dt)
    return by_type


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(args, import_s: float, gauge: Gauge) -> dict:
    from perfbench.workloads import LARGE, SMALL

    setups, reps = [], SETUP_REPS[args.workload]
    for rep in range(reps):
        wl, dt = gauge.timed(build, args.workload, args.seed)
        setups.append(dt)
        if rep < reps - 1 and wl.close:
            wl.close()
    try:
        samples, errors = timed_rounds(wl.round, args.seconds, gauge)
    finally:
        if wl.close:
            wl.close()
    failed = sum(not ok for _, _, ok in samples)
    times = [dt for _, dt, _ in samples]
    tail, beyond = p90(times)
    small, large = class_times(samples, SMALL), class_times(samples, LARGE)
    values = {
        # every input type of a class weighs the same, whatever its count in a round
        "small_op_s.p50": statistics.geometric_mean(statistics.median(t) for t in small.values()),
        "large_op_s.p50": statistics.geometric_mean(statistics.median(t) for t in large.values()),
        "op_s.p90": tail,
        "ops_per_s": (len(samples) - failed) / sum(times),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(args.workload),
        "ok_ratio": (len(samples) - failed) / len(samples),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} ops in {sum(times):.2f} reference s "
          f"(run scale {gauge.run_scale():.3f}), "
          f"{failed} failed, {wl.rejected} input draws rejected in set-up")
    print(f"set-ups: {' '.join(f'{t:.3f}' for t in setups)} s; import {import_s:.3f} s")
    print(f"p90 over {len(samples)} ops, {beyond} beyond it")
    for cls, by_type in ((SMALL, small), (LARGE, large)):
        print(f"{cls} input types, median s (samples): "
              + ", ".join(f"{name} {statistics.median(t):.4f} ({len(t)})" for name, t in by_type.items()))
    for name, count in sorted(errors.items()):
        print(f"error {name}: {count}")
    return values, len(samples), failed


def per_layer(args, gauge: Gauge) -> tuple:
    from perfbench import traced

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
    values, checks = traced.traced_run(args.workload, args.seed, ROOT, spans_path, gauge)
    print(f"traced suite seed {args.seed}: {checks.attempted} checked ops, {checks.failed} failed; spans in {spans_path}")
    return values, checks.attempted, checks.failed


def main(argv=None) -> int:
    args = parse_args(argv)
    # one CPU for this process, its children and the gauge's kernel process,
    # so the kernel reads the speed of the core the timed work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with Gauge() as gauge:
        import_s = gauge.timed(import_package)[1]
        if args.trace:
            from perfbench.traced import PER_LAYER

            values, attempted, failed = per_layer(args, gauge)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            values, attempted, failed = end_to_end(args, import_s, gauge)
            units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
