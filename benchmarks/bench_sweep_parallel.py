"""Sweep benchmark + regression gate: serial vs parallel vs warm cache.

Runs the same restricted sweep three ways — cold serial, cold parallel
(process-pool precompute), and fully warm (persistent disk cache) — checks
the exports are byte-identical, collects per-stage synthesis timings, and
writes everything to ``benchmarks/results/BENCH_sweep.json``.

The cold serial run calls each experiment directly; the cold parallel run
goes through :func:`repro.eval.sweep.run_sweep` with a process pool.  Both
write through to a fresh disk cache, so the comparison isolates *engine*
overhead (planning, pool spin-up, outcome plumbing) rather than charging
the engine for the durable cache it produces.  Cold
phases are timed ``REPEATS`` times each, interleaved (serial, parallel,
serial, parallel, ...) so load drift hits both alike, with fresh caches and
cleared memory every repetition; the best-of-N wall-clock is reported — the
standard ``timeit`` estimator of achievable cost under additive noise.

The gate then compares against the checked-in baseline
(``benchmarks/results/BENCH_sweep_baseline.json``) and fails (exit 1) on a
regression of more than ``--threshold`` (default 20%).

Only *machine-portable ratio metrics* are gated:

- ``warm_speedup_capped`` — cold-serial wall-clock over fully-warm
                        wall-clock, saturated at 10×.  A healthy cache sits
                        at the cap on any machine (the raw ratio is 100×+
                        here but jitters wildly because the warm run is
                        milliseconds); a broken cache collapses to ~1×,
                        which the 20% threshold catches decisively.
- ``warm_hit_rate``   — disk-cache hit rate of the warm run (≈ 1.0).
- ``graph_fast_speedup_capped`` — reference colored-graph build over the
                        fast-kernel build, saturated at 4× (the fast path
                        measures ~5×; the 20% threshold floors the gate at
                        3.2×, enforcing the ">= 3x" fast-path contract).
- ``msd_table_speedup_capped`` — cold MSD enumeration over warm (memoized
                        table) enumeration, saturated at 10×.
- ``parallel_efficiency_capped`` — cold-serial over cold-parallel
                        wall-clock, saturated at parity: the pool must not
                        cost more than the threshold over in-process
                        computation on this small sweep.
- ``byte_identical``  — parallel and warm exports must equal serial bytes.

Absolute wall-clocks, the uncapped speedups, and per-stage timings are
recorded for inspection but deliberately NOT gated — they do not transfer
across machines.  ``stage_timings_s`` also carries ``cover_speedup``, the
reference greedy loop's time over the array cover's on the same instance.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py --jobs 2
    PYTHONPATH=src python benchmarks/bench_sweep_parallel.py --update-baseline
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

from repro.eval import cache as disk_cache
from repro.eval import experiments
from repro.eval.export import sweep_to_json
from repro.eval.harness import run_experiment
from repro.eval.sweep import SweepOutcome, run_sweep

from bench_synthesis_speed import stage_operations

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_sweep_baseline.json"
OUTPUT_PATH = RESULTS_DIR / "BENCH_sweep.json"

# The gated workload: a restricted but representative slice of the full
# figure/table sweep — two figure families plus Table 1 — kept small so the
# gate stays under a minute on CI runners.
EXPERIMENTS = ["fig6", "fig8a", "table1"]
RESTRICT = dict(filter_indices=[0, 1], wordlengths=[8, 10])

GATED_METRICS = (
    "warm_speedup_capped",
    "warm_hit_rate",
    "graph_fast_speedup_capped",
    "msd_table_speedup_capped",
    "parallel_efficiency_capped",
)

# Saturation point for the gated warm-cache speedup: far below the raw
# ratio on a healthy cache (so timer jitter cannot trip the gate) yet far
# above the ~1x a broken cache produces.
WARM_SPEEDUP_CAP = 10.0

# Fast-path phase gates, same capped-ratio recipe (in-process ratios, so
# they transfer across machines).  The fast graph kernel measures ~5x over
# the reference loop; capping at 4x puts the 20%-threshold floor at 3.2x —
# the ">= 3x faster" contract with jitter headroom.  A warm MSD table is a
# dict hit (raw ratio 100x+); the 10x cap makes the gate about "table still
# works", not timer noise.
GRAPH_SPEEDUP_CAP = 4.0
MSD_SPEEDUP_CAP = 10.0

# Cold parallel over serial, capped at parity: pool spin-up must stay
# cheap next to the work of a small cold sweep.
PARALLEL_EFFICIENCY_CAP = 1.0

#: Cold-phase timing repetitions (interleaved; best-of-N reported).
REPEATS = 5


def _cold():
    experiments.clear_cache()
    disk_cache.configure(None)


def _time_stage_operations(repeats: int = 5):
    """Best-of-N wall-clock per synthesis stage (seconds).

    Two stabilizers, both load-bearing for the gated *ratios* (fast kernel
    over reference, cold table over warm):

    * Samples are taken round-robin — one sample of every op per round,
      not N samples of op A then N of op B — so host load drift lands on
      numerator and denominator alike instead of skewing whichever op was
      timed during the busy window.
    * The collector is paused during samples (``gc.collect()`` between
      them): right after the sweep phases the collector is still digesting
      their garbage, and the first allocations of a new op absorb those GC
      passes — measured 3x inflation on the graph build otherwise.  Each
      op also runs once untimed to warm allocator pools and caches.
    """
    ops = stage_operations()
    best = {name: float("inf") for name in ops}
    for op in ops.values():
        op()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, op in ops.items():
                started = time.perf_counter()
                op()
                best[name] = min(best[name], time.perf_counter() - started)
            gc.enable()
            gc.collect()
            gc.disable()
    finally:
        gc.enable()
    return {name: round(value, 6) for name, value in best.items()}


def run_benchmark(jobs: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as tmp:
        root = pathlib.Path(tmp)

        # 1+2. Cold serial and cold parallel, interleaved.  The serial
        # reference writes through to its own fresh disk cache each
        # repetition so both cold phases do identical durable work; the
        # parallel phase computes in a process pool into an empty disk
        # cache.
        serial_times = []
        parallel_times = []
        serial_json = None
        parallel_json = None
        cache_dir = None
        for rep in range(REPEATS):
            _cold()
            disk_cache.configure(root / f"serial-{rep}")
            gc.collect()
            started = time.perf_counter()
            serial_outcomes = [
                SweepOutcome(i, run_experiment(i, **RESTRICT), None, None, 0.0)
                for i in EXPERIMENTS
            ]
            serial_times.append(time.perf_counter() - started)
            if serial_json is None:
                serial_json = sweep_to_json(serial_outcomes)

            _cold()
            cache_dir = root / f"parallel-{rep}"
            gc.collect()
            started = time.perf_counter()
            parallel_report = run_sweep(
                EXPERIMENTS, jobs=jobs, cache_dir=cache_dir, **RESTRICT
            )
            parallel_times.append(time.perf_counter() - started)
            if parallel_json is None:
                parallel_json = sweep_to_json(parallel_report.outcomes)
        serial_s = min(serial_times)
        parallel_s = min(parallel_times)

        # 3. Fully warm: memory cleared, last parallel disk cache intact.
        experiments.clear_cache()
        started = time.perf_counter()
        warm_report = run_sweep(
            EXPERIMENTS, jobs=jobs, cache_dir=cache_dir, **RESTRICT
        )
        warm_s = time.perf_counter() - started
        warm_json = sweep_to_json(warm_report.outcomes)
        warm_cache = warm_report.cache

    _cold()

    byte_identical = parallel_json == serial_json and warm_json == serial_json
    warm_disk = warm_cache.get("disk") or {}
    warm_hits = warm_disk.get("hits", 0)
    warm_misses = warm_disk.get("misses", 0)
    probes = warm_hits + warm_misses
    stage_timings = _time_stage_operations()
    graph_fast_speedup = (
        stage_timings["graph_construction_reference"]
        / max(stage_timings["graph_construction"], 1e-9)
    )
    msd_table_speedup = (
        stage_timings["msd_enumeration_cold"]
        / max(stage_timings["msd_enumeration_warm"], 1e-9)
    )
    stage_timings["cover_speedup"] = round(
        stage_timings["cover_reference"] / max(stage_timings["cover"], 1e-9), 4
    )
    return {
        "workload": {
            "experiments": EXPERIMENTS,
            "filter_indices": RESTRICT["filter_indices"],
            "wordlengths": RESTRICT["wordlengths"],
        },
        "environment": {
            "jobs": jobs,
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "wall_clock_s": {
            "serial_cold": round(serial_s, 4),
            "parallel_cold": round(parallel_s, 4),
            "warm": round(warm_s, 4),
        },
        "metrics": {
            "parallel_speedup": round(serial_s / max(parallel_s, 1e-9), 4),
            "warm_speedup": round(serial_s / max(warm_s, 1e-9), 4),
            "warm_speedup_capped": round(
                min(serial_s / max(warm_s, 1e-9), WARM_SPEEDUP_CAP), 4
            ),
            "warm_hit_rate": round(warm_hits / probes, 4) if probes else 0.0,
            "graph_fast_speedup": round(graph_fast_speedup, 4),
            "graph_fast_speedup_capped": round(
                min(graph_fast_speedup, GRAPH_SPEEDUP_CAP), 4
            ),
            "msd_table_speedup": round(msd_table_speedup, 4),
            "msd_table_speedup_capped": round(
                min(msd_table_speedup, MSD_SPEEDUP_CAP), 4
            ),
            "parallel_efficiency_capped": round(
                min(serial_s / max(parallel_s, 1e-9), PARALLEL_EFFICIENCY_CAP),
                4,
            ),
            "byte_identical": byte_identical,
        },
        "parallel": parallel_report.stats(),
        "warm": warm_report.stats(),
        "stage_timings_s": stage_timings,
    }


def gate(result: dict, baseline: dict, threshold: float):
    """Return a list of human-readable regression messages (empty = pass)."""
    failures = []
    if not result["metrics"]["byte_identical"]:
        failures.append(
            "byte_identical: parallel/warm exports differ from serial"
        )
    base_metrics = baseline.get("metrics", {})
    for name in GATED_METRICS:
        base = base_metrics.get(name)
        current = result["metrics"].get(name)
        if base is None or not isinstance(base, (int, float)) or base <= 0:
            continue
        floor = base * (1.0 - threshold)
        if current < floor:
            failures.append(
                f"{name}: {current:.4f} < {floor:.4f} "
                f"(baseline {base:.4f}, threshold {threshold:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the parallel runs (default: 2)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="max allowed relative regression on gated metrics (default 0.20)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=OUTPUT_PATH,
        help=f"where to write the report (default {OUTPUT_PATH})",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=BASELINE_PATH,
        help=f"baseline to gate against (default {BASELINE_PATH})",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured result as the new baseline and skip gating",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(jobs=args.jobs)

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[bench_sweep] report written to {args.output}")
    for name, value in result["metrics"].items():
        print(f"[bench_sweep]   {name} = {value}")
    for name, value in result["wall_clock_s"].items():
        print(f"[bench_sweep]   {name} = {value}s")

    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"[bench_sweep] baseline updated at {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(
            f"[bench_sweep] no baseline at {args.baseline}; "
            "run with --update-baseline to create one", file=sys.stderr,
        )
        return 1

    baseline = json.loads(args.baseline.read_text())
    failures = gate(result, baseline, args.threshold)
    if failures:
        for message in failures:
            print(f"[bench_sweep] REGRESSION {message}", file=sys.stderr)
        return 1
    print(f"[bench_sweep] gate passed (threshold {args.threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
