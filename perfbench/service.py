"""Workload ``service_jobs``: closed-loop round trips against the job service.

A fresh ``python -m repro.eval serve --jobs 2`` with its own data directory
and disk cache; two client threads take the batch's jobs in turn and each
repeats submit -> wait_for -> result -> one artifact with
``repro.service.client.ServiceClient`` until the batch is done.  Every job
spec is distinct (job ids are keyed by spec); specs overlap in design
points, so the disk cache serves reads alongside writes.  Batches repeat,
each on a fresh server, until the next one would end past ``--seconds``.
"""

from __future__ import annotations

import contextlib
import io
import re
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import common, draws, layers, spans, tables

CLIENTS = 2
BATCH = 32
SERVER_SETUPS = 3
#: Clients take no new job after this long, and give up on one after
#: CLIENT_BUDGET_S, so a stuck job cannot hold a run past its time limit.
BATCH_DEADLINE_S = 60.0
CLIENT_BUDGET_S = 30.0
#: Jobs between two reference timings: the batch runs in groups of this
#: size, each waiting for the last, so that host-speed drift inside a batch
#: is tracked (README.md, "Host speed").
GROUP = 8
#: Reference-kernel runs between two groups (common.reference_s).
REF_SAMPLES = 10
#: Warm-up before timing: one artifact and one job, with its result, on a
#: design point no batch job or artifact uses (ex12, W=8), so every lazy
#: import of the artifact and sweep paths has run before the clocks start
#: (NOTES.md, second failure).
WARMUP_SPEC = {"experiments": ["fig6"], "filters": [11], "wordlengths": [8]}
WARMUP_ARTIFACT = ("verilog", 11, 8)

Item = Tuple[Dict[str, List], draws.ExportPoint]


@dataclass
class Server:
    proc: subprocess.Popen
    url: str
    setup_s: float


def start_server(workdir: Path, tag: str, trace_dir: Optional[Path] = None,
                 trace_id: Optional[str] = None) -> Server:
    """Start a service on a fresh data directory and cache.

    Set-up ends when ``/healthz`` answers and the warm-up artifact and job
    have completed.
    """
    from repro.service.client import ServiceClient

    argv = ["serve", "--port", "0", "--jobs", "2", "--data-dir", str(workdir / f"{tag}.data"),
            "--cache-dir", str(workdir / f"{tag}.cache")]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro.eval"] + argv
    else:
        cmd = common.launcher_cmd(workdir / f"{tag}.report.json", argv, trace_dir, trace_id)
    log = workdir / f"{tag}.log"
    started = time.perf_counter()
    with open(log, "wb") as out:
        proc = common.spawn(cmd, out, subprocess.STDOUT)
    deadline = started + 120.0
    url = None
    try:
        while url is None:
            text = log.read_text(errors="replace")
            marker = text.find("[serving on ")
            if marker >= 0 and "]" in text[marker:]:
                url = text[marker + len("[serving on "):text.index("]", marker)]
            elif proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"service did not start: {text[-2000:]}")
            else:
                time.sleep(0.002)
        client = ServiceClient(url, deadline_s=CLIENT_BUDGET_S)
        while not client.healthy():
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.002)
        client.artifact(*WARMUP_ARTIFACT)
        view = client.wait_for(client.submit(WARMUP_SPEC)["job_id"])
        if view["state"] != "completed":
            raise RuntimeError(f"warm-up job ended {view['state']}: {view.get('error')}")
        client.result(view["job_id"])
    except BaseException:
        common.stop_process(proc)
        raise
    return Server(proc, url, time.perf_counter() - started)


@dataclass
class Op:
    """One round trip: its position in the batch and how it ended."""

    index: int
    latency_s: float
    view: Optional[Dict[str, object]] = None
    result: Optional[str] = None
    artifact: Optional[str] = None
    error: Optional[str] = None
    #: Mean of the reference times taken just before and after its group.
    ref_s: float = 0.0

    @property
    def relative(self) -> float:
        return self.latency_s / self.ref_s if self.error is None else float("inf")


@dataclass
class Pass:
    """One batch on one server."""

    ops: List[Op] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Sum over the groups of their wall time over their reference time.
    elapsed_ref: float = 0.0
    rss_mb: float = 0.0


def run_batch(server: Server, items: Sequence[Item], recorder, seed: int) -> Pass:
    """Run every item, :data:`GROUP` at a time, timing the reference in between."""
    outcome = Pass()
    stop_at = time.perf_counter() + BATCH_DEADLINE_S
    before = common.reference_s(REF_SAMPLES)
    for start in range(0, len(items), GROUP):
        indices = list(range(start, min(start + GROUP, len(items))))
        ops, elapsed = _run_group(server, items, indices, recorder, seed, stop_at)
        after = common.reference_s(REF_SAMPLES)
        ref = (before + after) / 2.0
        before = after
        for op in ops:
            op.ref_s = ref
        outcome.ops.extend(ops)
        outcome.elapsed_s += elapsed
        outcome.elapsed_ref += elapsed / ref
    outcome.rss_mb = common.vm_hwm_mb(server.proc.pid)
    outcome.ops.sort(key=lambda op: op.index)
    return outcome


def _run_group(server: Server, items: Sequence[Item], indices: List[int], recorder,
               seed: int, stop_at: float) -> Tuple[List[Op], float]:
    """``CLIENTS`` threads take the indexed items in order, one round trip each.

    Items still waiting at ``stop_at`` count as failed round trips.
    Returns the ops and the group's wall time.
    """
    from repro.service.client import ServiceClient

    ops: List[Op] = []
    lock = threading.Lock()
    pending = list(indices)

    def round_trip(client, index: int) -> Op:
        spec, (f, w, kind) = items[index]
        op = Op(index, 0.0)
        t0 = time.perf_counter()
        try:
            view = recorder.call("service.client.submit", client.submit, (spec,))
            view = recorder.call("service.client.wait", client.wait_for, (view["job_id"],))
            op.view = view
            if view["state"] == "completed":
                op.result = recorder.call("service.client.result", client.result,
                                          (view["job_id"],))
                op.artifact = recorder.call("service.client.artifact", client.artifact,
                                            (kind, f, w))
            else:
                op.error = f"{view['state']}: {view.get('error_type')}: {view.get('error')}"
        except Exception as exc:  # noqa: BLE001 - a failed round trip is a data point
            op.error = f"{type(exc).__name__}: {exc}"
        op.latency_s = time.perf_counter() - t0
        return op

    def client_loop(client_id: int) -> None:
        client = ServiceClient(server.url, seed=seed * 16 + client_id,
                               deadline_s=CLIENT_BUDGET_S)
        while True:
            with lock:
                if not pending:
                    return
                if time.perf_counter() > stop_at:
                    ops.extend(Op(i, 0.0, error="not started: batch deadline passed")
                               for i in pending)
                    pending.clear()
                    return
                index = pending.pop(0)
            op = recorder.call("bench.roundtrip", round_trip, (client, index),
                               tags={"index": index})
            with lock:
                ops.append(op)

    started = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return ops, time.perf_counter() - started


_DISK_SERIES = re.compile(
    r'^repro_cache_(hits|misses)_total\{layer="disk"\}\s+([0-9.eE+-]+)\s*$'
)


def disk_hit_rate(server: Server) -> float:
    """The service's disk-cache hit rate, from its ``/metrics`` exposition."""
    with urllib.request.urlopen(server.url + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    counts = {"hits": 0.0, "misses": 0.0}
    for line in text.splitlines():
        match = _DISK_SERIES.match(line)
        if match:
            counts[match.group(1)] += float(match.group(2))
    return common.ratio(counts["hits"], counts["hits"] + counts["misses"])


def expected_artifacts(points: Sequence[draws.ExportPoint]) -> Dict[draws.ExportPoint, str]:
    """Artifact text for each point from the CLI's ``export`` path."""
    from repro.eval.__main__ import main as cli_main

    expected = {}
    for f, w, kind in sorted(set(points)):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli_main(["export", "--filters", str(f), "--wordlengths", str(w),
                             "--format", kind])
        if code != 0:
            raise RuntimeError(f"export {f} {w} {kind} exited {code}")
        expected[(f, w, kind)] = buffer.getvalue()
    return expected


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    unexpected: int = 0
    lines: List[str] = field(default_factory=list)


def check_ops(ops: Sequence[Op], items: Sequence[Item], expected_tables,
              expected_art) -> Tally:
    """Classify each round trip: ok, wrong output, known planner crash, other failure."""
    tally = Tally()
    for op in ops:
        spec, point = items[op.index]
        tally.attempted += 1
        if op.error is not None:
            tally.failed += 1
            known = (
                draws.plan_crashes(spec) and op.view is not None
                and op.view.get("error_type") == "TypeError"
            )
            if not known:
                tally.unexpected += 1
            tally.lines.append(
                f"  failed{' (known planner crash)' if known else ''}: spec {spec}: {op.error}"
            )
            continue
        check = tables.Check()
        tables.check_job_result(op.result, spec, expected_tables, check)
        artifact_ok = op.artifact == expected_art[point]
        if check.failed or not artifact_ok:
            tally.failed += 1
            tally.wrong += 1
            problems = check.problems[:3] + (
                [] if artifact_ok else [f"artifact {point} differs from the CLI export"])
            tally.lines.append(f"  wrong: spec {spec}: {problems}")
    return tally


def _prepare() -> Tuple[float, Dict, Dict]:
    """The client side's imports and the expected outputs, timed."""
    started = time.perf_counter()
    common.use_sources()
    import repro.eval.__main__  # noqa: F401
    import repro.service.client  # noqa: F401
    expected_tables = tables.load_expected()
    expected_art = expected_artifacts(draws.all_export_points())
    return time.perf_counter() - started, expected_tables, expected_art


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Dict[str, object]:
    prepare_s, expected_tables, expected_art = _prepare()
    items = draws.job_batch(seed, BATCH)
    if trace:
        return _traced(seed, workdir, items, expected_tables, expected_art)

    setups: List[float] = []
    batches: List[Pass] = []
    started = time.perf_counter()
    while True:
        server = start_server(workdir, f"server{len(batches)}")
        setups.append(server.setup_s)
        try:
            batches.append(run_batch(server, items, spans.NullRecorder(), seed))
        finally:
            common.stop_process(server.proc)
        elapsed = time.perf_counter() - started
        if elapsed + common.median([b.elapsed_s for b in batches]) > seconds:
            break
    for i in range(max(0, SERVER_SETUPS - len(setups))):
        probe = start_server(workdir, f"probe{i}")
        setups.append(probe.setup_s)
        common.stop_process(probe.proc)

    ops = [op for batch in batches for op in batch.ops]
    tally = check_ops(ops, items, expected_tables, expected_art)
    points = sum(
        draws.design_points(items[op.index][0]["experiments"], items[op.index][0]["filters"],
                            items[op.index][0]["wordlengths"])
        for op in ops if op.error is None
    )
    busy_ref = sum(b.elapsed_ref for b in batches)
    tail = common.tail([op.latency_s if op.error is None else float("inf") for op in ops])
    print(
        f"service_jobs: {len(batches)} batch(es) of {len(items)} jobs in "
        f"{[round(b.elapsed_s, 3) for b in batches]} s, "
        f"{[round(b.elapsed_ref, 1) for b in batches]} ref; {tally.attempted} round trips, "
        f"{tally.attempted - tally.failed} completed ({points} design points), "
        f"{tally.failed} failed ({tally.wrong} wrong output, {tally.unexpected} not the "
        f"known planner crash); server set-ups {[round(s, 3) for s in setups]} s, "
        f"client imports and expected outputs {prepare_s:.3f} s"
    )
    print(
        "service_jobs: job latency tail "
        + (f"p{tail[1]:.1f} = {tail[0]:.3f} s with {tail[2]} samples beyond, "
           if tail else "undefined (fewer than 11 round trips), ")
        + f"n = {len(ops)}; failed_share {common.ratio(tally.failed, tally.attempted):.4f}"
    )
    for line in tally.lines[:20]:
        print(line)
    return {
        "correct": tally.wrong == 0 and tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "setup_s": common.metric(prepare_s + common.median(setups), "s"),
            "peak_rss_mb": common.metric(common.median([b.rss_mb for b in batches]), "MB"),
            "points_per_ref": common.metric(points / busy_ref, "points/ref"),
            "latency_iqm_ref": common.metric(
                common.interquartile_mean([op.relative for op in ops]), "ref"),
        },
    }


def _traced(seed, workdir, items, expected_tables, expected_art):
    """The batch once untraced and once traced, each on a fresh server."""
    from repro.obs import metrics as obs_metrics

    server = start_server(workdir, "plain")
    try:
        plain = run_batch(server, items, spans.NullRecorder(), seed)
    finally:
        common.stop_process(server.proc)
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    trace_id = f"{seed:016x}"
    recorder = spans.Recorder(trace_id, trace_dir)
    server = start_server(workdir, "traced", trace_dir, trace_id)
    retries_before = obs_metrics.DEFAULT_REGISTRY.counter_value("repro_client_retries_total")
    try:
        traced = run_batch(server, items, recorder, seed)
        disk_rate = disk_hit_rate(server)
    finally:
        common.stop_process(server.proc)
    retries = obs_metrics.DEFAULT_REGISTRY.counter_value("repro_client_retries_total")
    recorder.write()
    tally = check_ops(plain.ops + traced.ops, items, expected_tables, expected_art)
    records, counters = spans.read_dir(trace_dir)
    roundtrips, covered = layers.covered_by_children(records, "bench.roundtrip")
    metrics = layers.layer_metrics(
        records, counters,
        startup=layers.import_times(),
        unattributed_s=roundtrips - covered,
        trace_overhead=traced.elapsed_ref / plain.elapsed_ref,
        views=[op.view for op in traced.ops if op.view is not None],
        client_retries=retries - retries_before,
        disk_hit_rate=disk_rate,
    )
    print(
        f"service_jobs traced: batch of {len(items)} jobs in {plain.elapsed_s:.3f} s "
        f"untraced, {traced.elapsed_s:.3f} s traced; trace "
        f"{layers.span_file(records, 'service_jobs', seed)}"
    )
    for line in tally.lines[:20]:
        print(line)
    return {
        "correct": tally.wrong == 0 and tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
