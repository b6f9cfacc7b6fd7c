"""Per-layer metrics of a traced run, named ``<module>.<what>``.

Every ``_s`` metric is a sum of span *self* times: a span's duration minus
the time its child spans cover, so the layer numbers of one process add up
without double counting.  A traced run of any workload reports every
metric; a layer the workload does not reach reads 0.
"""

from __future__ import annotations

import re
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

from . import common, spans

#: (metric, unit) in the order the README's table lists them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graph.setcover.cover_s", "s"),
    ("graph.setcover.covers", "count"),
    ("graph.setcover.picks", "count"),
    ("core.mrp.optimize_self_s", "s"),
    ("core.mrp.optimize_calls", "count"),
    ("graph.colored.build_s", "s"),
    ("graph.colored.builds", "count"),
    ("graph.colored.colors", "count"),
    ("graph.colored.edges", "count"),
    ("graph.spanning.forest_s", "s"),
    ("core.transform.lower_s", "s"),
    ("cse.hartley.eliminate_s", "s"),
    ("baselines.synth_s", "s"),
    ("hwcost.cost_s", "s"),
    ("quantize.quantize_s", "s"),
    ("filters.design_s", "s"),
    ("fastpath.msd_hit_rate", "ratio"),
    ("eval.experiments.memory_hit_rate", "ratio"),
    ("startup.import_repro_s", "s"),
    ("startup.import_scipy_signal_s", "s"),
    ("service.artifacts.generate_s", "s"),
    ("service.client.submit_s", "s"),
    ("service.client.wait_s", "s"),
    ("service.client.result_s", "s"),
    ("service.client.artifact_s", "s"),
    ("service.client.retries", "count"),
    ("service.queue.wait_s", "s"),
    ("service.run_s", "s"),
    ("eval.cache.disk_hit_rate", "ratio"),
    ("eval.supervisor.retries", "count"),
    ("eval.supervisor.pool_rebuilds", "count"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
)

#: Metric name -> span name whose self time it sums.
_SELF_TIME = {
    "graph.setcover.cover_s": "graph.setcover.cover",
    "core.mrp.optimize_self_s": "core.mrp.optimize",
    "graph.colored.build_s": "graph.colored.build",
    "graph.spanning.forest_s": "graph.spanning.forest",
    "core.transform.lower_s": "core.transform.lower",
    "cse.hartley.eliminate_s": "cse.hartley.eliminate",
    "baselines.synth_s": "baselines.synth",
    "hwcost.cost_s": "hwcost.cost",
    "quantize.quantize_s": "quantize.quantize",
    "filters.design_s": "filters.design",
    "service.artifacts.generate_s": "service.artifacts.generate",
    "service.client.submit_s": "service.client.submit",
    "service.client.wait_s": "service.client.wait",
    "service.client.result_s": "service.client.result",
    "service.client.artifact_s": "service.client.artifact",
}

_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def package_import_s(stderr: str, package: str) -> float:
    """Cumulative import seconds of ``package`` from ``-X importtime`` output.

    Sums the outermost lines naming the package or one of its submodules.
    A package reached through a lazy ``__getattr__`` (``from scipy import
    signal``) logs no line of its own, only its submodules; a package that
    was never imported reads 0.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and (match.group(3) == package or match.group(3).startswith(package + ".")):
            entries.append((len(match.group(2)), int(match.group(1))))
    if not entries:
        return 0.0
    outermost = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == outermost) / 1e6


def import_times(samples: int = 3) -> Tuple[float, float]:
    """Median cumulative import time of ``repro`` and of ``scipy.signal`` within it."""
    repro_s: List[float] = []
    scipy_s: List[float] = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro"],
            env=common.child_env(), cwd=common.ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        repro_s.append(package_import_s(proc.stderr, "repro"))
        scipy_s.append(package_import_s(proc.stderr, "scipy.signal"))
    return common.median(repro_s), common.median(scipy_s)


def covered_by_children(records: Sequence[Dict[str, object]], root: str) -> Tuple[float, float]:
    """(wall of the spans named ``root``, wall of their direct children)."""
    roots = {(r["pid"], r["id"]) for r in records if r["name"] == root}
    root_wall = sum(r["wall_s"] for r in records if r["name"] == root)
    child_wall = sum(
        r["wall_s"] for r in records
        if r.get("parent") is not None and (r["pid"], r["parent"]) in roots
    )
    return root_wall, child_wall


def layer_metrics(
    records: Sequence[Dict[str, object]],
    counters: Dict[str, float],
    *,
    startup: Tuple[float, float],
    unattributed_s: float,
    trace_overhead: float,
    views: Sequence[Dict[str, object]] = (),
    client_retries: float = 0.0,
    disk_hit_rate: float = 0.0,
) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, from spans, counters and service job views."""
    own = spans.self_time_by_name(records)
    values: Dict[str, float] = {name: own.get(span, 0.0) for name, span in _SELF_TIME.items()}
    values.update({
        "graph.setcover.covers": spans.count(records, "graph.setcover.cover"),
        "graph.setcover.picks": spans.sum_tag(records, "graph.setcover.cover", "picks"),
        "core.mrp.optimize_calls": spans.count(records, "core.mrp.optimize"),
        "graph.colored.builds": spans.count(records, "graph.colored.build"),
        "graph.colored.colors": spans.sum_tag(records, "graph.colored.build", "colors"),
        "graph.colored.edges": spans.sum_tag(records, "graph.colored.build", "edges"),
        "fastpath.msd_hit_rate": _hit_rate(counters, "msd"),
        "eval.experiments.memory_hit_rate": _hit_rate(counters, "memory"),
        "eval.cache.disk_hit_rate": disk_hit_rate,
        "startup.import_repro_s": startup[0],
        "startup.import_scipy_signal_s": startup[1],
        "service.client.retries": client_retries,
        "service.queue.wait_s": _view_sum(views, "started_at", "submitted_at"),
        "service.run_s": _view_sum(views, "finished_at", "started_at"),
        "eval.supervisor.retries": float(sum(v.get("retries") or 0 for v in views)),
        "eval.supervisor.pool_rebuilds": float(sum(v.get("pool_rebuilds") or 0 for v in views)),
        "unattributed_s": unattributed_s,
        "trace_overhead": trace_overhead,
    })
    return {name: common.metric(float(values[name]), unit) for name, unit in PER_LAYER}


def _hit_rate(counters: Dict[str, float], layer: str) -> float:
    hits = counters.get(f"{layer}_hits", 0.0)
    return common.ratio(hits, hits + counters.get(f"{layer}_misses", 0.0))


def _view_sum(views: Sequence[Dict[str, object]], end: str, start: str) -> float:
    return sum(
        v[end] - v[start] for v in views
        if v.get(end) is not None and v.get(start) is not None
    )


def span_file(records: Sequence[Dict[str, object]], workload: str, seed: int) -> str:
    """Merge the run's spans into one trace file under ``.perfbench_work/traces``."""
    common.TRACES.mkdir(parents=True, exist_ok=True)
    path = common.TRACES / f"{workload}-seed{seed}.jsonl"
    spans.write_jsonl(path, sorted(records, key=lambda r: (r["pid"], r["t"])))
    return str(path.relative_to(common.ROOT))
