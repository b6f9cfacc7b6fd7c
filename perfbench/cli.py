"""Workload ``cli_export``: a closed loop of ``python -m repro.eval export``.

One process at a time, each exporting one seed-drawn design point (a filter
of the small band, W 8 or 12, Verilog, C or DOT) to standard output.  Each
call pays interpreter start-up and the full ``import repro``, which is the
layer this workload exercises.  The expected bytes come from the service's
artifact endpoint, the other path to the same artifact.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import common, draws, layers, service, spans

SERVER_SETUPS = 3
#: Points drawn per run; far more than a run can complete.
POINT_POOL = 1000


@dataclass
class Call:
    point: draws.ExportPoint
    wall_s: float
    rss_mb: float
    ok: bool
    error: Optional[str]
    #: Mean of the spawn references timed just before and just after the call.
    ref_s: float = 0.0

    @property
    def relative(self) -> float:
        return self.wall_s / self.ref_s if self.ok else float("inf")


def expected_from_service(workdir: Path, points: Sequence[draws.ExportPoint],
                          setups: List[float]) -> Dict[draws.ExportPoint, bytes]:
    """Start the service ``SERVER_SETUPS`` times; fetch the artifacts from the last."""
    from repro.service.client import ServiceClient

    for i in range(SERVER_SETUPS - 1):
        probe = service.start_server(workdir, f"probe{i}")
        setups.append(probe.setup_s)
        common.stop_process(probe.proc)
    server = service.start_server(workdir, "server")
    setups.append(server.setup_s)
    try:
        client = ServiceClient(server.url)
        return {
            (f, w, kind): client.artifact(kind, f, w).encode("utf-8")
            for f, w, kind in sorted(set(points))
        }
    finally:
        common.stop_process(server.proc)


def run_calls(workdir: Path, points: Sequence[draws.ExportPoint], seconds: float,
              expected: Dict[draws.ExportPoint, bytes],
              trace_dir: Optional[Path] = None, trace_id: Optional[str] = None) -> List[Call]:
    """Export one point per process, one process at a time, for ``seconds``."""
    calls: List[Call] = []
    ref_before = common.spawn_reference_s()
    started = time.perf_counter()
    while not calls or time.perf_counter() - started < seconds:
        f, w, kind = points[len(calls)]
        tag = f"{'traced' if trace_dir else 'plain'}{len(calls)}"
        argv = ["export", "--filters", str(f), "--wordlengths", str(w), "--format", kind]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.eval"] + argv
        else:
            cmd = common.launcher_cmd(workdir / f"{tag}.report.json", argv, trace_dir, trace_id)
        out, err = workdir / f"{tag}.out", workdir / f"{tag}.err"
        code, _, wall, rss = common.run_measured(cmd, out, err, timeout_s=60.0)
        got = out.read_bytes()
        ok = code == 0 and got == expected[(f, w, kind)]
        error = None
        if code != 0:
            error = f"exit {code}: {err.read_text(errors='replace')[-500:]}"
        elif not ok:
            error = "output differs from the service artifact"
        ref_after = common.spawn_reference_s()
        calls.append(Call((f, w, kind), wall, rss, ok, error, (ref_before + ref_after) / 2.0))
        ref_before = ref_after
    return calls


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Dict[str, object]:
    common.pin_to_one_cpu()
    import_started = time.perf_counter()
    common.use_sources()
    import repro.service.client  # noqa: F401 - the benchmark side's own set-up
    import_s = time.perf_counter() - import_started

    points = draws.export_points(seed, POINT_POOL)
    setups: List[float] = []
    build_started = time.perf_counter()
    expected = expected_from_service(workdir, draws.all_export_points(), setups)
    fetch_s = time.perf_counter() - build_started - sum(setups)

    if trace:
        return _traced(seed, seconds, workdir, points, expected)

    calls = run_calls(workdir, points, seconds, expected)
    failed = [c for c in calls if not c.ok]
    tail = common.tail([c.wall_s if c.ok else float("inf") for c in calls])
    print(
        f"cli_export: {len(calls)} exports, {len(failed)} failed; walls "
        f"{[round(c.wall_s, 3) for c in calls]} s; reference "
        f"{[round(c.ref_s, 3) for c in calls]} s; server set-ups "
        f"{[round(s, 3) for s in setups]} s, imports {import_s:.3f} s, expected "
        f"artifacts {fetch_s:.3f} s"
    )
    print(
        "cli_export: latency tail "
        + (f"p{tail[1]:.1f} = {tail[0]:.3f} s with {tail[2]} samples beyond"
           if tail else "undefined (fewer than 11 calls)")
        + f"; failed_share {common.ratio(len(failed), len(calls)):.4f}"
    )
    for call in failed[:10]:
        print(f"  failed: {call.point}: {call.error}")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {
            "setup_s": common.metric(import_s + common.median(setups) + fetch_s, "s"),
            "peak_rss_mb": common.metric(common.median([c.rss_mb for c in calls]), "MB"),
            "points_per_ref": common.metric(
                len(calls) / sum(c.relative for c in calls), "points/ref"),
            "latency_iqm_ref": common.metric(
                common.interquartile_mean([c.relative for c in calls]), "ref"),
        },
    }


def _traced(seed: int, seconds: int, workdir: Path, points, expected) -> Dict[str, object]:
    """An untraced and a traced loop over the same points, half the time each."""
    plain = run_calls(workdir, points, seconds / 2.0, expected)
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    traced = run_calls(workdir, points, seconds / 2.0, expected, trace_dir, f"{seed:016x}")
    records, counters = spans.read_dir(trace_dir)
    # Inside each export process the layer spans are the imports and the
    # direct children of the CLI's main; the rest of the call is unnamed.
    _, in_main = layers.covered_by_children(records, "bench.main")
    imports = sum(r["wall_s"] for r in records if r["name"] == "startup.imports")
    n = min(len(plain), len(traced))
    overhead = (sum(c.relative for c in traced[:n])
                / sum(c.relative for c in plain[:n]))
    metrics = layers.layer_metrics(
        records, counters,
        startup=layers.import_times(),
        unattributed_s=sum(c.wall_s for c in traced) - imports - in_main,
        trace_overhead=overhead,
    )
    calls = plain + traced
    failed = [c for c in calls if not c.ok]
    print(
        f"cli_export traced: {len(plain)} untraced and {len(traced)} traced exports; "
        f"trace {layers.span_file(records, 'cli_export', seed)}"
    )
    for call in failed[:10]:
        print(f"  failed: {call.point}: {call.error}")
    return {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }
