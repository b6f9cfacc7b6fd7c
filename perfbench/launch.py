"""Run ``python -m repro.eval ARGS`` and report its phases from outside.

Usage::

    python3 perfbench/launch.py --report R.json [--trace-dir D --trace-id HEX]
        -- <repro.eval arguments>

Imports the CLI module, records when the imports finished, then calls its
``main`` with the given arguments — the same code ``python -m repro.eval``
runs.  On exit it writes a JSON report (import end, main start/end, exit
code, peak RSS).  With ``--trace-dir`` the layer functions are wrapped
(see spans.py) and every process, forked pool workers included, writes
its spans and counter deltas there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, spans  # noqa: E402


def layer_counters() -> dict:
    """Hit/miss counters of the in-process caches.

    Both tables survive a fork, so a pool worker's delta against the
    values it inherited counts only its own lookups.  The disk cache is
    reopened in every worker; its hit rate is read from the service's
    ``/metrics`` instead.
    """
    from repro.eval import experiments

    info = experiments.cache_info()
    msd = info["fastpath"]["msd_table"]
    out = {
        "memory_hits": info["memory"]["hits"],
        "memory_misses": info["memory"]["misses"],
        "msd_hits": msd["hits"],
        "msd_misses": msd["misses"],
    }
    return {k: float(v) for k, v in out.items()}


def _write_report(path: Path, report: dict) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--trace-id", default="0" * 16)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    recorder = None
    if args.trace_dir is not None:
        recorder = spans.Recorder(args.trace_id, args.trace_dir)
        cli = recorder.call(
            "startup.imports", __import__, ("repro.eval.__main__",), {"fromlist": ["main"]}
        )
    else:
        import repro.eval.__main__ as cli
    ready_ts = time.time()
    report = {"ready_ts": ready_ts, "pid": os.getpid()}
    if recorder is not None:
        spans.install(recorder)
        recorder.counters = layer_counters
        recorder.counter_base = layer_counters()
        recorder.follow_forks()
    code = 1
    report["main_start_ts"] = time.time()
    started = time.perf_counter()
    try:
        if recorder is not None:
            code = recorder.call("bench.main", cli.main, (argv,), tags={"argv": argv})
        else:
            code = cli.main(argv)
    finally:
        report["main_wall_s"] = time.perf_counter() - started
        report["exit_code"] = code
        report["vm_hwm_mb"] = common.vm_hwm_mb(os.getpid())
        _write_report(args.report, report)
        if recorder is not None:
            recorder.write()
    return code


if __name__ == "__main__":
    sys.exit(main())
