"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload {paper_sweep,service_jobs,cli_export}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Prints what it measured, then as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero, printing no result, when the
checkout does not hold the program.  See README.md.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import cli, common, paper, service  # noqa: E402

WORKLOADS = {
    "paper_sweep": paper.run,
    "service_jobs": service.run,
    "cli_export": cli.run,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of repro.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        common.check_checkout()
    except common.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the cleanup in finally blocks runs:
    # servers and their pool workers are stopped, the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    common.adopt_orphans()
    common.compile_sources()
    with common.RunDir(args.workload, args.seed) as workdir:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    common.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
