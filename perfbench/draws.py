"""Seeded inputs of the workloads.

The program only ever sees what these functions return; the same seed
always yields the same inputs.  Filter indices are 0-based positions in
``repro.filters.benchmark_suite()``; ``ex01`` is index 0.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: Tap-count bands of the benchmark suite: ex01-ex04 (15-41 taps),
#: ex05/06/09/10 (45-53 taps) and ex07/08/11/12 (57-79 taps).
BANDS: Tuple[Tuple[int, ...], ...] = ((0, 1, 2, 3), (4, 5, 8, 9), (6, 7, 10, 11))

#: The paper sweep's filters: one per band (ex02, ex05, ex08).  Fixed, not
#: drawn: within one band a filter costs up to 5x another (README.md), so a
#: per-seed draw would make the sweep rate measure the draw, not the code.
PAPER_FILTERS: Tuple[int, ...] = (1, 4, 7)
PAPER_WORDLENGTHS: Tuple[int, ...] = (8, 12, 16, 20)
EXPERIMENTS: Tuple[str, ...] = ("fig6", "fig7", "fig8a", "fig8b", "summary", "table1")

JOB_FILTERS: Tuple[int, ...] = BANDS[0] + BANDS[1]
JOB_WORDLENGTHS: Tuple[int, ...] = (8, 12, 16)

#: The design points of the export workloads: the small band at W 8 and 12.
EXPORT_FILTERS: Tuple[int, ...] = BANDS[0]
EXPORT_WORDLENGTHS: Tuple[int, ...] = (8, 12)
EXPORT_FORMATS: Tuple[str, ...] = ("verilog", "c", "dot")

ExportPoint = Tuple[int, int, str]  # (filter index, wordlength, format)

#: Seed of the fixed populations the service and export workloads draw from.
POPULATION_SEED = 0


def _rng(seed: int, stream: str) -> random.Random:
    # Seeding with a str is stable across processes and Python versions.
    return random.Random(f"{stream}:{seed}")


def paper_order(seed: int) -> Tuple[int, ...]:
    """The paper sweep's filters in a seed-drawn order."""
    order = list(PAPER_FILTERS)
    _rng(seed, "paper").shuffle(order)
    return tuple(order)


def job_specs(seed: int, count: int) -> List[Dict[str, List]]:
    """``count`` distinct service job specs, drawn from the seed.

    1-2 experiments, 1-2 filters from the two smaller bands, 1-2
    wordlengths from {8, 12, 16}; lists are sorted so that a spec's
    identity does not depend on draw order.
    """
    rng = _rng(seed, "jobs")
    specs: List[Dict[str, List]] = []
    seen = set()
    while len(specs) < count:
        spec = {
            "experiments": sorted(rng.sample(EXPERIMENTS, rng.randint(1, 2))),
            "filters": sorted(rng.sample(JOB_FILTERS, rng.randint(1, 2))),
            "wordlengths": sorted(rng.sample(JOB_WORDLENGTHS, rng.randint(1, 2))),
        }
        key = spec_key(spec)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def job_batch(seed: int, size: int) -> List[Tuple[Dict[str, List], ExportPoint]]:
    """The service batch: ``size`` (job spec, artifact point) pairs.

    The specs and their order are drawn once, from :data:`POPULATION_SEED`;
    the run's seed draws the artifact each round trip fetches.  Job order
    decides which job first computes a design point that later jobs share,
    and so whether that point runs on the pool or in-process: shuffling
    the order per seed moved throughput by half (README.md).
    """
    return list(zip(job_specs(POPULATION_SEED, size),
                    export_points(seed, size, stream="service-artifact")))


def spec_key(spec: Dict[str, List]) -> Tuple:
    return tuple(tuple(spec[k]) for k in ("experiments", "filters", "wordlengths"))


def plan_crashes(spec: Dict[str, List]) -> bool:
    """Whether the seed's sweep planner is known to crash on ``spec``.

    ``plan_tasks`` sorts ``SweepTask`` values; table1 plans
    (W=16, maximal, mrpf, depth_limit=3) next to fig7's (W=16, maximal,
    mrpf, depth_limit=None) for the same filter make the sort compare
    ``None`` with ``3`` and raise ``TypeError``.  ``summary`` runs fig7.
    """
    experiments = set(spec["experiments"])
    return (
        "table1" in experiments
        and bool(experiments & {"fig7", "summary"})
        and 16 in spec["wordlengths"]
    )


def export_points(seed: int, count: int, stream: str = "export") -> List[ExportPoint]:
    """``count`` export design points drawn (with repeats) from the seed."""
    rng = _rng(seed, stream)
    return [
        (rng.choice(EXPORT_FILTERS), rng.choice(EXPORT_WORDLENGTHS), rng.choice(EXPORT_FORMATS))
        for _ in range(count)
    ]


def all_export_points() -> List[ExportPoint]:
    return [
        (f, w, k) for f in EXPORT_FILTERS for w in EXPORT_WORDLENGTHS for k in EXPORT_FORMATS
    ]


#: Methods each figure computes per (filter, W), by scaling.
_FIGURE_TASKS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "fig6": ("uniform", ("simple", "mrpf")),
    "fig7": ("maximal", ("simple", "mrpf")),
    "fig8a": ("uniform", ("simple", "cse", "mrpf_cse")),
    "fig8b": ("maximal", ("simple", "cse", "mrpf_cse")),
}


def design_points(experiments: Sequence[str], filters: Sequence[int],
                  wordlengths: Sequence[int]) -> int:
    """Distinct design points (filter, W, scaling, digits, method, depth) a plan computes.

    ``summary`` recomputes nothing of its own: it reads fig6-fig8b.
    Table 1 adds W=16 maximal MRPF with depth <= 3 in CSD and SM digits.
    """
    figures = set(experiments) & set(_FIGURE_TASKS)
    if "summary" in experiments:
        figures |= set(_FIGURE_TASKS)
    points = set()
    for figure in figures:
        scaling, methods = _FIGURE_TASKS[figure]
        for f in filters:
            for w in wordlengths:
                points.update((f, w, scaling, "csd", m, None) for m in methods)
    if "table1" in experiments:
        for f in filters:
            points.update((f, 16, "maximal", rep, "mrpf", 3) for rep in ("csd", "sm"))
    return len(points)
