"""In-memory spans recorded around calls into the program's layers.

The benchmark measures each layer from outside: :func:`install` replaces a
public function, at every module that bound it by import, with a wrapper
that records one span per call (name, start, end, parent).  Spans stay in
memory and are written at process exit as JSONL in the record format of
``repro.obs`` (``load_trace`` reads it, so ``python -m repro.eval stats
--trace FILE`` and ``export-chrome`` render the breakdown).  Forked pool
workers start with an empty span list and write their own file when they
exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The program's own trace-record format version (``repro.obs.trace``).
TRACE_FORMAT_VERSION = 1


def _cover_tags(result) -> Dict[str, int]:
    return {"picks": len(result.steps)}


def _graph_tags(result) -> Dict[str, int]:
    return {"colors": len(result.colors), "edges": int(result.num_edges)}


#: (defining module, function, span name, tagger) of every wrapped function.
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.graph.colored", "build_colored_graph", "graph.colored.build", _graph_tags),
    ("repro.core.mrp", "optimize", "core.mrp.optimize", None),
    ("repro.graph.setcover", "greedy_weighted_set_cover", "graph.setcover.cover", _cover_tags),
    ("repro.graph.spanning", "build_spanning_forest", "graph.spanning.forest", None),
    ("repro.core.transform", "lower_plan", "core.transform.lower", None),
    ("repro.cse.hartley", "eliminate", "cse.hartley.eliminate", None),
    ("repro.baselines.simple", "synthesize_simple", "baselines.synth", None),
    ("repro.baselines.cse_filter", "synthesize_cse_filter", "baselines.synth", None),
    ("repro.hwcost.adders", "weighted_adder_cost", "hwcost.cost", None),
    ("repro.quantize.scaling", "quantize", "quantize.quantize", None),
    ("repro.filters.design", "design_fir", "filters.design", None),
    ("repro.service.artifacts", "generate_artifact", "service.artifacts.generate", None),
)


class Recorder:
    """Collects spans of one process; thread-safe for appends."""

    def __init__(self, trace_id: str, out_dir: Optional[Path] = None) -> None:
        self.trace_id = trace_id
        self.out_dir = out_dir
        self.counters: Callable[[], Dict[str, float]] = dict
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.records: List[Dict[str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.counter_base: Dict[str, float] = {}

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             tagger: Optional[Callable] = None, tags: Optional[Dict] = None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start_ts = time.time()
        t0 = time.perf_counter()
        c0 = time.thread_time()
        status, result = "error", None
        try:
            result = fn(*args, **(kwargs or {}))
            status = "ok"
            return result
        finally:
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - c0
            stack.pop()
            span_tags = dict(tags or {})
            if tagger is not None and status == "ok":
                span_tags.update(tagger(result))
            self.records.append({
                "v": TRACE_FORMAT_VERSION, "kind": "span", "name": name,
                "id": span_id, "parent": parent, "pid": self.pid, "t": start_ts,
                "wall_s": wall, "cpu_s": max(0.0, cpu), "status": status,
                "trace": self.trace_id, "tags": span_tags,
            })

    def wrap(self, fn: Callable, name: str, tagger: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, tagger)

        return wrapper

    def follow_forks(self) -> None:
        """Record in multiprocessing children too (the sweep's pool workers)."""
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # Runs in the child before its target: drop the parent's spans and
        # write ours at exit.  Pool workers leave through multiprocessing's
        # exit hooks, which run Finalize callbacks but not atexit.
        base = self.counters()
        self._reset()
        self.counter_base = base
        if self.out_dir is not None:
            multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def write(self) -> None:
        """Write this process's spans and counter deltas into ``out_dir``."""
        if self.out_dir is None or os.getpid() != self.pid:
            return
        now = self.counters()
        deltas = {k: v - self.counter_base.get(k, 0.0) for k, v in now.items()}
        stem = f"{self.pid}-{time.monotonic_ns()}"
        write_jsonl(self.out_dir / f"spans-{stem}.jsonl", self.records)
        with open(self.out_dir / f"counters-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(deltas, fh)


class NullRecorder:
    """Stands in for :class:`Recorder` in untraced passes: runs, records nothing."""

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             tagger: Optional[Callable] = None, tags: Optional[Dict] = None):
        return fn(*args, **(kwargs or {}))


def install(recorder: Recorder,
            targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = LAYER_TARGETS) -> int:
    """Wrap every target at every loaded ``repro`` module that holds it.

    ``experiments``, ``core.mrp`` and ``core.transform`` bind these names
    by ``from ... import``, so patching only the defining module would miss
    their calls.  Modules imported later pick up the wrappers from the
    (patched) package namespaces they import from.  Returns how many
    bindings were replaced.
    """
    replaced = 0
    for module_name, attr, span_name, tagger in targets:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = recorder.wrap(original, span_name, tagger)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(loaded)
            for binding, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, binding, wrapper)
                    replaced += 1
    return replaced


def write_jsonl(path: Path, records: Iterable[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_dir(trace_dir: Path) -> Tuple[List[Dict[str, object]], Dict[str, float]]:
    """Every span and the summed counter deltas written into ``trace_dir``."""
    records: List[Dict[str, object]] = []
    counters: Dict[str, float] = {}
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with open(path, "r", encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    for path in sorted(trace_dir.glob("counters-*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            for key, value in json.load(fh).items():
                counters[key] = counters.get(key, 0.0) + value
    return records, counters


# -- analysis ------------------------------------------------------------------

def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(records: Sequence[Dict[str, object]]) -> Dict[Tuple[int, int], float]:
    """Per span ``(pid, id)``: its duration minus the time its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for record in records:
        if record.get("parent") is not None:
            key = (record["pid"], record["parent"])
            start = record["t"]
            children.setdefault(key, []).append((start, start + record["wall_s"]))
    result = {}
    for record in records:
        key = (record["pid"], record["id"])
        result[key] = max(0.0, record["wall_s"] - _covered(children.get(key, [])))
    return result


def self_time_by_name(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    own = self_times(records)
    totals: Dict[str, float] = {}
    for record in records:
        name = record["name"]
        totals[name] = totals.get(name, 0.0) + own[(record["pid"], record["id"])]
    return totals


def sum_tag(records: Sequence[Dict[str, object]], name: str, tag: str) -> float:
    return float(sum(r["tags"].get(tag, 0) for r in records if r["name"] == name))


def count(records: Sequence[Dict[str, object]], name: str) -> int:
    return sum(1 for r in records if r["name"] == name)
