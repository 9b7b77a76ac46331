"""AutoSens benchmark: one closed-loop workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest-analyze --seed 1 --seconds 25 --trace 0

One process runs one op at a time on the serial executor with BLAS and
OpenMP pinned to one thread. Every timing is scaled to a reference host
speed by a calibration kernel timed around it (see ``hostspeed.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics. The last line of
standard output is the JSON result. See ``perfbench/README.md`` for the
metric definitions.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import Calibration, scale
from tracing import Tracer, op_breakdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_run"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Kernel timings before and after each set-up. A run has only three
#: set-ups, so their scale factors must not rest on one noisy timing each.
SETUP_KERNELS = 5
WORKLOAD_NAMES = ("ingest-analyze", "segment-sweep", "generate-export")
#: ``op_s.tail`` percentile of every workload (also recorded in
#: BENCHMARK.json). A run times at least ceil(10 / (1 - p)) = 34 ops, so 10
#: ops lie beyond it.
TAIL_PERCENTILE = 0.70
#: Traced ops per traced run, at least.
MIN_TRACED_OPS = 10
#: Largest share of a traced op's wall time that may lie outside layer spans.
MAX_UNATTRIBUTED = 0.10
#: The timed phase stops at this multiple of ``--seconds`` whatever the op
#: count, so a run on a slow host still ends in time.
HARD_STOP_FACTOR = 1.6

#: Layer spans recorded by the traced ops, as per-layer metric names.
LAYER_TIMES = (
    "telemetry.decode_s.jsonl",
    "telemetry.decode_s.csv",
    "telemetry.columnarize_s",
    "telemetry.finish_s",
    "telemetry.records_s",
    "telemetry.encode_s.jsonl",
    "telemetry.encode_s.csv",
    "telemetry.where_s",
    "workload.generate_s",
    "core.slotted_counts_s",
    "core.alpha_s",
    "core.corrected_s",
    "core.preference_s",
    "core.average_s",
    "core.quartiles_s",
)
LAYER_COUNTS = {
    "telemetry.rows_good": "count",
    "telemetry.rows_bad": "count",
    "telemetry.read_bytes": "bytes",
    "telemetry.write_bytes": "bytes",
    "workload.accept_ratio": "ratio",
    "core.curves": "count",
    "core.cache_hits": "count",
    "core.cache_misses": "count",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.core, repro.telemetry, repro.workload; "
    "print(time.perf_counter() - t)"
)


def metric_name(span_name: str) -> str:
    """``telemetry.decode.csv`` -> ``telemetry.decode_s.csv``."""
    parts = span_name.split(".")
    parts[1] += "_s"
    return ".".join(parts)


def import_seconds() -> float:
    """Time to import the ``repro`` layers in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS (Linux ``clear_refs`` mode 5)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        print(f"warning: cannot reset peak RSS ({exc}); "
              "peak_rss_mb includes set-up", file=sys.stderr)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(p * n)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def run_checked(workload, fn):
    """(output, problems, seconds) of one op; the check runs after the clock stops."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:
        seconds = time.perf_counter() - t0
        return None, [traceback.format_exc()], seconds
    seconds = time.perf_counter() - t0
    try:
        problems = workload.check(out)
    except Exception:
        problems = [traceback.format_exc()]
    return out, problems, seconds


def set_up(factory, seed: int, workdir: Path, calibrate: Calibration):
    """SETUP_REPEATS seeded set-ups; returns the last workload and timings.

    Each set-up's wall time is scaled by the calibration kernel timed
    SETUP_KERNELS times right before and right after it.
    """
    totals, imports, prints, problems = [], [], [], []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        before = calibrate.median(SETUP_KERNELS)
        imported = import_seconds()
        t0 = time.perf_counter()
        workload = factory(seed, workdir)
        workload.prepare()
        warm = workload.op()
        wall = imported + time.perf_counter() - t0
        factor = scale(before, calibrate.median(SETUP_KERNELS))
        totals.append(wall * factor)
        imports.append(imported * factor)
        print(f"set-up: {wall:.3f} s unscaled (import {imported:.3f} s), "
              f"{wall * factor:.3f} s scaled", file=sys.stderr)
        problems += workload.check(warm)
        prints.append(workload.fingerprint())
        del warm
    if len(set(prints)) != 1:
        problems.append("set-ups from one seed built different inputs")
    return workload, statistics.median(totals), statistics.median(imports), problems


def measure(workload, seconds: float, tail: float, calibrate: Calibration):
    """The untraced closed loop: end-to-end metrics."""
    min_ops = math.ceil(10 / (1.0 - tail))
    times, walls, kernel, failed, rows = [], [], [], 0, 0
    reset_peak_rss()
    before = calibrate()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_FACTOR * seconds or (
                elapsed >= seconds and len(times) >= min_ops):
            break
        out, problems, dt = run_checked(workload, workload.op)
        after = calibrate()
        times.append(dt * scale(before, after))
        walls.append(dt)
        kernel.append(after)
        before = after
        if problems:
            failed += 1
            print("op failed:\n" + "\n".join(problems), file=sys.stderr)
        else:
            rows += workload.rows(out)
        del out
    peak = peak_rss_mb()
    metrics = {
        "rows_per_s": (rows / sum(times), "actions/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (percentile(times, tail), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "ok_share": ((len(times) - failed) / len(times), "ratio"),
    }
    beyond = len(times) - math.ceil(tail * len(times))
    print(f"{len(times)} ops, {beyond} beyond the p{tail * 100:g} tail; "
          f"unscaled op_s.p50 {statistics.median(walls):.4f} s, "
          f"calibration kernel median {statistics.median(kernel):.4f} s",
          file=sys.stderr)
    if beyond < 10:
        print("warning: fewer than 10 ops beyond the tail percentile", file=sys.stderr)
    return metrics, len(times), failed


def measure_traced(workload, seconds: float, tracer, calibrate: Calibration):
    """Alternate untraced and traced ops: per-layer metrics."""
    plain, traced, counts, kernel = [], [], [], []
    # Host-speed factor of each traced op, indexed by the tracer's op id.
    traced_factors = []
    attempted = failed = 0

    def traced_op():
        with tracer.op():
            return workload.traced_op(tracer)

    before = calibrate()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_FACTOR * seconds or (
                elapsed >= seconds and len(traced) >= MIN_TRACED_OPS):
            break
        for op, times in ((workload.op, plain), (traced_op, traced)):
            out, problems, dt = run_checked(workload, op)
            after = calibrate()
            factor = scale(before, after)
            kernel.append(after)
            before = after
            if op is traced_op:
                traced_factors.append(factor)
            attempted += 1
            if problems:
                failed += 1
                print("op failed:\n" + "\n".join(problems), file=sys.stderr)
                continue
            times.append(dt * factor)
            counts.append(workload.counts(out))
            if out.get("cache") is not None:
                counts[-1]["core.cache_hits"] = out["cache"]["hits"]
                counts[-1]["core.cache_misses"] = out["cache"]["misses"]
            del out

    unattributed, self_times = [], {name: [] for name in LAYER_TIMES}
    worst_share = 0.0
    for op_id, spans in tracer.by_op().items():
        wall, gap, per_name = op_breakdown(spans)
        factor = traced_factors[op_id]
        unattributed.append(gap * factor)
        worst_share = max(worst_share, gap / wall)
        by_metric = {metric_name(n): v * factor for n, v in per_name.items()}
        unknown = set(by_metric) - set(LAYER_TIMES)
        if unknown:
            raise RuntimeError(f"spans without a layer metric: {sorted(unknown)}")
        for name in LAYER_TIMES:
            self_times[name].append(by_metric.get(name, 0.0))

    metrics = {name: (statistics.median(v), "s") for name, v in self_times.items()}
    for name, unit in LAYER_COUNTS.items():
        values = [c[name] for c in counts if name in c]
        metrics[name] = (statistics.median(values) if values else 0, unit)
    metrics["obs.trace_overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["bench.unattributed_s"] = (statistics.median(unattributed), "s")
    metrics["host.calibration_s"] = (statistics.median(kernel), "s")
    problems = []
    if worst_share > MAX_UNATTRIBUTED:
        problems.append(f"{worst_share:.1%} of a traced op lies outside layer "
                        f"spans (limit {MAX_UNATTRIBUTED:.0%})")
    print(f"{len(traced)} traced ops, {len(plain)} untraced; worst unattributed "
          f"share {worst_share:.2%}", file=sys.stderr)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calibrate = Calibration()
    try:
        workload, setup_s, import_s, problems = set_up(
            WORKLOADS[args.workload], args.seed, workdir, calibrate)
        gc.collect()
        gc.freeze()
        if args.trace:
            tracer = Tracer()
            metrics, attempted, failed, trace_problems = measure_traced(
                workload, args.seconds, tracer, calibrate)
            problems += trace_problems
            metrics["repro.import_s"] = (import_s, "s")
            tracer.write(OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, attempted, failed = measure(
                workload, args.seconds, TAIL_PERCENTILE, calibrate)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
