"""Workload ``paper_sweep``: cold, serial runs of the paper's evaluation plan.

A sweep is ``python -m repro.eval all`` over the paper's three filters, run
as one fresh process per filter (``all --filters F`` through launch.py,
which reports when the imports ended).  Every in-process cache starts cold,
and the reference kernel is timed between the filters.  Sweeps repeat until
the next one would end past ``--seconds``; there is always at least one.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import common, draws, layers, spans, tables

#: Reference-kernel runs between two filters (common.reference_s).
REF_SAMPLES = 10

Report = Dict[str, object]


def _launch(workdir: Path, tag: str, argv: Sequence[str], trace_dir: Optional[Path] = None,
            trace_id: Optional[str] = None) -> Report:
    """One launched process; its report plus what was measured outside."""
    report_path = workdir / f"{tag}.report.json"
    stdout_path = workdir / f"{tag}.stdout"
    cmd = common.launcher_cmd(report_path, argv, trace_dir, trace_id)
    code, start_ts, _, rss_mb = common.run_measured(
        cmd, stdout_path, workdir / f"{tag}.stderr", timeout_s=100.0
    )
    if code != 0:
        stderr = (workdir / f"{tag}.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {stderr}")
    report = common.read_json(report_path)
    report["setup_s"] = report["ready_ts"] - start_ts
    report["rss_mb"] = rss_mb
    report["stdout"] = stdout_path.read_text(encoding="utf-8")
    return report


def run(seed: int, seconds: int, trace: bool, workdir: Path) -> Dict[str, object]:
    common.pin_to_one_cpu()
    parse_started = time.perf_counter()
    expected = tables.load_expected()
    parse_s = time.perf_counter() - parse_started

    filters = draws.paper_order(seed)
    points = draws.design_points(draws.EXPERIMENTS, filters, draws.PAPER_WORDLENGTHS)
    check = tables.Check()

    def sweep(tag: str, **kwargs) -> Tuple[List[Report], float]:
        """One checked sweep: its reports, and its time in reference-kernel times.

        Each filter's time is divided by the mean of the reference timed
        just before and just after it.
        """
        reports: List[Report] = []
        relative = 0.0
        before = common.reference_s(REF_SAMPLES)
        for f in filters:
            report = _launch(workdir, f"{tag}-{f}", ["all", "--filters", str(f)], **kwargs)
            tables.check_cli_tables(
                report["stdout"], expected, [f], draws.PAPER_WORDLENGTHS, check
            )
            after = common.reference_s(REF_SAMPLES)
            relative += report["main_wall_s"] / ((before + after) / 2.0)
            before = after
            reports.append(report)
        return reports, relative

    if trace:
        return _traced(seed, workdir, sweep, check)

    sweeps: List[Tuple[List[Report], float]] = []
    started = time.perf_counter()
    while True:
        sweeps.append(sweep(f"sweep{len(sweeps)}"))
        walls = [sum(r["main_wall_s"] for r in reports) for reports, _ in sweeps]
        if time.perf_counter() - started + common.median(walls) > seconds:
            break
    setups = [r["setup_s"] for reports, _ in sweeps for r in reports]
    relative = [rel for _, rel in sweeps]
    print(
        f"paper_sweep: filters {[tables.filter_name(f) for f in filters]} "
        f"W {list(draws.PAPER_WORDLENGTHS)}; {len(sweeps)} sweep(s) of {points} points; "
        f"sweep walls {[round(w, 3) for w in walls]} s, "
        f"{[round(r, 1) for r in relative]} ref; rows checked {check.attempted}, "
        f"wrong {check.failed}; set-ups {[round(s, 3) for s in setups]} s"
    )
    for problem in check.problems[:10]:
        print(f"  wrong: {problem}")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            "setup_s": common.metric(common.median(setups) + parse_s, "s"),
            "peak_rss_mb": common.metric(
                common.median([max(r["rss_mb"] for r in reports) for reports, _ in sweeps]),
                "MB"),
            "points_per_ref": common.metric(points * len(sweeps) / sum(relative), "points/ref"),
            "latency_iqm_ref": common.metric(common.interquartile_mean(relative), "ref"),
        },
    }


def _traced(seed: int, workdir: Path, sweep, check: tables.Check) -> Dict[str, object]:
    """One untraced and one traced sweep of the same plan."""
    _, plain = sweep("plain")
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    _, traced = sweep("traced", trace_dir=trace_dir, trace_id=f"{seed:016x}")
    records, counters = spans.read_dir(trace_dir)
    sweep_wall, covered = layers.covered_by_children(records, "bench.main")
    metrics = layers.layer_metrics(
        records, counters,
        startup=layers.import_times(),
        unattributed_s=sweep_wall - covered,
        trace_overhead=traced / plain,
    )
    print(
        f"paper_sweep traced: sweep {sweep_wall:.3f} s, layer spans cover "
        f"{100.0 * common.ratio(covered, sweep_wall):.2f}%; trace "
        f"{layers.span_file(records, 'paper_sweep', seed)}"
    )
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
