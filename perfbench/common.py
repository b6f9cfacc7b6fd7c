"""Paths, child-process handling and order statistics shared by the workloads."""

from __future__ import annotations

import ctypes
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results"
#: Scratch space inside the checkout: per-run directories (removed when the
#: run ends) and the merged traces of traced runs (kept for later analysis).
WORK = ROOT / ".perfbench_work"
TRACES = WORK / "traces"

#: The program's environment knobs.  Every child starts without them so a
#: caller's shell cannot change which kernels or gates the benchmark runs.
_PROGRAM_ENV_PREFIX = "REPRO_"


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold the program."""


def check_checkout() -> None:
    """Fail unless the sources and the committed expected tables exist."""
    needed = [SRC / "repro" / "__init__.py", SRC / "repro" / "eval" / "__main__.py"]
    needed += [RESULTS / f"{name}.txt" for name in ("fig6", "fig7", "fig8a", "fig8b", "table1")]
    missing = [str(path.relative_to(ROOT)) for path in needed if not path.is_file()]
    if missing:
        raise CheckoutError(f"not a checkout of the program: missing {missing}")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(_PROGRAM_ENV_PREFIX)}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def use_sources() -> None:
    """Make ``import repro`` in this process load the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith(_PROGRAM_ENV_PREFIX)]:
        del os.environ[key]


def compile_sources() -> None:
    """Write bytecode once, so no timed import pays for compiling."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env=child_env(), stdout=subprocess.DEVNULL, check=True, timeout=120,
    )


class RunDir:
    """A fresh per-run directory under :data:`WORK`, removed on exit."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = WORK / f"{workload}-{seed}-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def launcher_cmd(report: Path, argv: Sequence[str], trace_dir: Optional[Path] = None,
                 trace_id: Optional[str] = None) -> List[str]:
    """Command line that runs ``python -m repro.eval ARGV`` via launch.py."""
    cmd = [sys.executable, str(HERE / "launch.py"), "--report", str(report)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir), "--trace-id", trace_id or "0" * 16]
    return cmd + ["--"] + list(argv)


def read_json(path: Path) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A killed server's pool workers are then re-parented to this process,
    so :func:`stop_process` can wait for them to end.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def spawn(cmd: Sequence[str], stdout, stderr) -> subprocess.Popen:
    """Start ``cmd`` from the checkout root in a process group of its own."""
    return subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT,
                            start_new_session=True)


def stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> Optional[int]:
    """SIGTERM ``proc``, wait up to ``grace_s``, then SIGKILL.

    Afterwards every process left in its group (a server's pool workers)
    is killed and waited for.
    """
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _end_group(proc.pid)
    return proc.returncode


def _end_group(pgid: int, timeout_s: float = 30.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        try:
            # Orphans of the group are our children (adopt_orphans).
            os.waitid(os.P_PGID, pgid, os.WEXITED | os.WNOHANG)
        except ChildProcessError:
            pass
        time.sleep(0.005)
    raise RuntimeError(f"processes of group {pgid} did not end")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_measured(cmd: Sequence[str], stdout_path: Path, stderr_path: Path,
                 timeout_s: float) -> Tuple[int, float, float, float]:
    """Run ``cmd`` to completion; (exit code, start ts, wall s, peak RSS MB).

    The child is reaped with a blocking ``wait4``, so the benchmark takes no
    CPU while it runs and its peak RSS comes from the kernel's accounting,
    not from any instrumentation inside it.  A timer kills it after
    ``timeout_s``.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start_ts = time.time()
        started = time.perf_counter()
        proc = spawn(cmd, out, err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM becomes SystemExit): end the child first.
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            _end_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _end_group(proc.pid)
    return proc.returncode, start_ts, wall, usage.ru_maxrss / 1024.0


# -- host speed ----------------------------------------------------------------

def reference_kernel() -> int:
    """Fixed pure-Python work: a greedy set cover over a seeded family.

    The program's hot loop in miniature, so it slows down with the host
    the way the program does; it is benchmark code, so no program change
    can change its cost.  Returns the number of picks.
    """
    rng = random.Random(20030310)
    family = [frozenset(rng.sample(range(240), 14)) for _ in range(800)]
    uncovered = set(range(240))
    picks = 0
    while uncovered:
        gain = max(family, key=lambda s: len(s & uncovered)) & uncovered
        if not gain:
            break
        uncovered -= gain
        picks += 1
    return picks


def reference_s(samples: int) -> float:
    """Mean seconds of ``samples`` runs of :func:`reference_kernel`, now.

    The host this benchmark runs on changes speed by up to 2x over minutes
    (other tenants); dividing an operation's time by the reference time
    taken next to it cancels most of that drift.  The host flips between a
    fast and a slow state within a second, so the mean, which weighs the
    two states by their share of the time, is the estimate; a median
    would jump from one state to the other.
    """
    started = time.perf_counter()
    for _ in range(samples):
        reference_kernel()
    return (time.perf_counter() - started) / samples


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The host's CPUs change speed independently of each other, so a
    reference timed on one CPU says little about an operation that ran on
    another.  Only for workloads that use one CPU at a time.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def spawn_reference_s() -> float:
    """Seconds to start an interpreter that imports numpy, a dependency.

    The reference for operations that are mostly process start and imports
    (``cli_export``): it slows down with the host the way they do, which
    the compute kernel above does not.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - started


# -- order statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (ranks n/4 to 3n/4, trimmed evenly).

    As robust as the median -- up to a quarter of the samples may be
    failures entered as ``inf`` -- but it moves smoothly when latencies
    cluster in groups with a gap at the middle, where the median jumps
    from one group to the other between runs of the same work.
    """
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("interquartile mean of no values")
    cut = n // 4
    middle = ordered[cut:n - cut]
    return sum(middle) / len(middle)


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples beyond)`` or ``None`` when there
    are too few samples.  The value is the order statistic of rank
    ``n - beyond`` (1-based): exactly ``beyond`` samples lie above it, and
    it sits at percentile ``100 * (n - beyond) / n``.  Failed operations
    enter as ``inf``, so they count as missing any latency limit.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return None
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(result: Dict[str, object]) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
