"""The sweep engine: one entry point for every way the experiments run.

:func:`run_sweep` takes the same steps on every call:

1. **Plan** — enumerate the deduplicated (filter, wordlength, scaling,
   representation, method, depth-limit) design points the experiments need.
2. **Restore** — with a ``journal_dir`` and ``resume=True``, replay the
   sweep's write-ahead log (:class:`SweepJournal`) and hydrate the in-memory
   cache from every point that already finished.
3. **Partition** — split the points into cached (memory, then disk) and
   pending.
4. **Compute** the pending points through the serial code path
   (:func:`~repro.eval.experiments._method_result`): in-process when
   ``jobs <= 1``, otherwise in supervised process-pool waves.  Every
   terminal :class:`TaskOutcome` is journaled (flushed and ``fsync``'d)
   before it counts.  A pool broken by a lost worker (OOM killer, SIGKILL)
   is rebuilt after a jittered backoff; its lost tasks are re-probed one
   per pool, and a task that keeps killing workers past ``max_retries`` is
   **quarantined** instead of retried forever.
5. **Fold** worker payloads into the parent's in-memory cache.
6. **Replay** (optional) — run the experiments serially over the warm
   caches.  The replay *is* the serial code path, and a point that failed
   or was quarantined is recomputed inline, so the output is byte-identical
   to a cold serial run by construction.

``task_deadline_s`` bounds each point with a
:class:`~repro.robust.SolverBudget`; ``deadline_at`` (a ``time.time()``
epoch) and ``should_stop`` abort the whole sweep between task completions
with :class:`~repro.errors.SweepAborted`.  A
:class:`~repro.robust.ProcessFaultPlan` (``chaos``) threads deterministic
worker kills, slow tasks and cache-write faults through the computation.
"""

from __future__ import annotations

import os
import random
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import ReproError, SupervisorError, SweepAborted
from ..filters import TABLE1_SPECS, benchmark_filter
from ..numrep import Representation, msd
from ..obs import metrics as obs_metrics
from ..obs import span as obs_span
from ..quantize import ScalingScheme, quantize
from ..robust.budget import SolverBudget
from ..robust.chaos import ProcessFaultPlan
from . import cache as disk_cache
from . import experiments
from .experiments import WORDLENGTHS, ExperimentResult
from .harness import EXPERIMENTS, run_experiment
from .wal import ChecksumLog

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "SweepJournal",
    "SweepOutcome",
    "SweepReport",
    "SweepTask",
    "TaskOutcome",
    "decorrelated_backoff",
    "plan_tasks",
    "resolve_experiment_ids",
    "run_sweep",
    "sweep_signature",
    "task_key",
]

#: Bump when the journal line format or record schema changes; a resumed
#: journal with a different format is rejected, never guessed at.
JOURNAL_FORMAT_VERSION = 1

#: Pool-rebuild backoff (see :func:`decorrelated_backoff`): first delay,
#: growth factor of the upper envelope, and its cap, in seconds.
BACKOFF_S = 0.05
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 2.0

_HEADER_KIND = "header"
_OUTCOME_KIND = "outcome"


@dataclass(frozen=True)
class SweepTask:
    """One design point of a sweep — the unit of work (sort with
    :func:`_task_order`: ``depth_limit`` may be ``None`` or an int)."""

    filter_index: int
    wordlength: int
    scaling: str
    representation: str
    method: str
    depth_limit: Optional[int] = None


def _task_order(task: SweepTask) -> Tuple:
    """Total sort key: table1 pins ``depth_limit=3`` on points other
    experiments plan with ``None``, and ``None < 3`` is a TypeError."""
    return (
        task.filter_index, task.wordlength, task.scaling,
        task.representation, task.method,
        -1 if task.depth_limit is None else task.depth_limit,
    )


@dataclass(frozen=True)
class TaskOutcome:
    """How one design point ended (picklable, JSON-friendly payload).

    ``traceback`` carries the full worker-side traceback string for failed
    tasks — ``repr(exc)`` alone is useless when the exception crossed a
    process boundary and the frames are gone.  ``attempts`` counts how many
    times the task was scheduled; ``quarantined`` marks a task given up on
    after it repeatedly killed workers.
    """

    task: SweepTask
    payload: Optional[Dict[str, object]]
    error_type: Optional[str]
    error: Optional[str]
    elapsed_s: float
    traceback: Optional[str] = None
    attempts: int = 1
    quarantined: bool = False
    #: Wall time as measured by the tracer's ``sweep.task`` span (monotonic
    #: fallback when tracing is off).  ``elapsed_s`` predates the tracer and
    #: is kept for backward compatibility; the two agree up to granularity.
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the design point produced a result."""
        return self.payload is not None


@dataclass(frozen=True)
class SweepOutcome:
    """One experiment's fate in the replay: a failure is recorded, never
    raised, so one pathological instance cannot abort a whole sweep."""

    experiment_id: str
    result: Optional[ExperimentResult]
    error_type: Optional[str]
    error: Optional[str]
    elapsed_s: float

    @property
    def ok(self) -> bool:
        """True when the experiment completed and produced a result."""
        return self.result is not None


@dataclass(frozen=True)
class SweepReport:
    """Everything a sweep did: results, recovery story, timings.

    ``retries`` counts task re-executions after worker loss,
    ``pool_rebuilds`` the executors replaced after a ``BrokenProcessPool``,
    ``tasks_resumed`` the outcomes replayed from the journal instead of
    recomputed.
    """

    outcomes: Tuple[SweepOutcome, ...]  # empty when replay was skipped
    tasks: Tuple[TaskOutcome, ...]
    jobs: int
    tasks_planned: int
    tasks_precached: int
    precompute_s: float
    replay_s: float
    total_s: float
    stage_timings: Dict[str, float]
    cache: Dict[str, object]
    retries: int = 0
    pool_rebuilds: int = 0
    tasks_resumed: int = 0
    journal_path: Optional[str] = None

    @property
    def failed_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Computed tasks that errored (replay recomputes them inline)."""
        return tuple(t for t in self.tasks if not t.ok)

    @property
    def quarantined_tasks(self) -> Tuple[TaskOutcome, ...]:
        """Tasks given up on after repeated worker kills."""
        return tuple(t for t in self.tasks if t.quarantined)

    def stats(self) -> Dict[str, object]:
        """JSON-friendly summary (used by the benchmark gate and the CLI).

        ``cache_put_errors`` and ``cache_quarantined`` surface the uniform
        failure counters of :func:`repro.eval.experiments.cache_info` at the
        top level, whichever cache layers were active.
        """
        return {
            "jobs": self.jobs,
            "tasks_planned": self.tasks_planned,
            "tasks_precached": self.tasks_precached,
            "tasks_computed": len(self.tasks),
            "tasks_failed": len(self.failed_tasks),
            "tasks_quarantined": len(self.quarantined_tasks),
            "tasks_resumed": self.tasks_resumed,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "journal_path": self.journal_path,
            "precompute_s": self.precompute_s,
            "replay_s": self.replay_s,
            "total_s": self.total_s,
            "stage_timings": dict(self.stage_timings),
            "cache": dict(self.cache),
            "cache_put_errors": int(self.cache.get("put_errors", 0)),
            "cache_quarantined": int(self.cache.get("quarantined", 0)),
        }


# -- planning ------------------------------------------------------------------

# Which (scaling, methods) each figure experiment needs; table1/summary are
# handled explicitly in plan_tasks.
_FIGURE_TASKS: Dict[str, Tuple[ScalingScheme, Tuple[str, ...]]] = {
    "fig6": (ScalingScheme.UNIFORM, ("simple", "mrpf")),
    "fig7": (ScalingScheme.MAXIMAL, ("simple", "mrpf")),
    "fig8a": (ScalingScheme.UNIFORM, ("simple", "cse", "mrpf_cse")),
    "fig8b": (ScalingScheme.MAXIMAL, ("simple", "cse", "mrpf_cse")),
}


def resolve_experiment_ids(
    experiment_ids: Optional[Sequence[str]],
) -> List[str]:
    """Validate and canonicalize (sort) the requested experiment ids."""
    ids = (
        sorted(experiment_ids) if experiment_ids is not None
        else sorted(EXPERIMENTS)
    )
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiments {unknown!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return ids


def plan_tasks(
    experiment_ids: Sequence[str],
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> Tuple[SweepTask, ...]:
    """Enumerate the deduplicated design points the experiments will visit.

    The order is deterministic (sorted), so scheduling is reproducible run
    to run regardless of dict iteration or completion order.
    """
    indices = (
        list(filter_indices) if filter_indices is not None
        else list(range(len(TABLE1_SPECS)))
    )
    widths = list(wordlengths) if wordlengths is not None else list(WORDLENGTHS)
    tasks = set()
    for experiment_id in experiment_ids:
        figure_ids = (
            list(_FIGURE_TASKS) if experiment_id == "summary"
            else [experiment_id]
        )
        for figure_id in figure_ids:
            if figure_id == "table1":
                continue
            if figure_id not in _FIGURE_TASKS:
                raise ReproError(
                    f"cannot plan tasks for unknown experiment {figure_id!r}"
                )
            scaling, methods = _FIGURE_TASKS[figure_id]
            for index in indices:
                for wordlength in widths:
                    for method in methods:
                        tasks.add(SweepTask(
                            filter_index=index,
                            wordlength=wordlength,
                            scaling=scaling.value,
                            representation=Representation.CSD.value,
                            method=method,
                        ))
        if experiment_id == "table1":
            for index in indices:
                for representation in (Representation.CSD, Representation.SM):
                    tasks.add(SweepTask(
                        filter_index=index,
                        wordlength=16,
                        scaling=ScalingScheme.MAXIMAL.value,
                        representation=representation.value,
                        method="mrpf",
                        depth_limit=3,
                    ))
    return tuple(sorted(tasks, key=_task_order))


def task_key(task: SweepTask) -> str:
    """Stable string identity of a design point.

    Keys chaos-plan decisions (which must agree between parent and workers)
    and names tasks in reports and logs.
    """
    return "|".join(str(v) for v in (
        task.filter_index, task.wordlength, task.scaling,
        task.representation, task.method, task.depth_limit,
    ))


def sweep_signature(
    experiment_ids: Sequence[str],
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
) -> str:
    """Content hash identifying one sweep's task universe and code version.

    Folded into the journal filename and header so a resume can only replay
    outcomes produced by the *same* sweep shape under the *same* code
    (:func:`~repro.eval.cache.cache_key` mixes in the version tag).
    """
    return disk_cache.cache_key({
        "experiments": list(experiment_ids),
        "filters": (
            list(filter_indices) if filter_indices is not None else None
        ),
        "wordlengths": (
            list(wordlengths) if wordlengths is not None else None
        ),
    })


# -- journal -------------------------------------------------------------------


def _encode_outcome(outcome: TaskOutcome) -> Dict[str, object]:
    record = asdict(outcome)
    record["kind"] = _OUTCOME_KIND
    return record


def _decode_outcome(record: Dict[str, object]) -> TaskOutcome:
    task = SweepTask(**record["task"])
    return TaskOutcome(
        task=task,
        payload=record["payload"],
        error_type=record["error_type"],
        error=record["error"],
        elapsed_s=record["elapsed_s"],
        traceback=record.get("traceback"),
        attempts=record.get("attempts", 1),
        quarantined=record.get("quarantined", False),
        duration_s=record.get("duration_s", 0.0),
    )


class SweepJournal:
    """Append-only, fsync'd, checksummed WAL of sweep task outcomes.

    A thin typed wrapper over :class:`~repro.eval.wal.ChecksumLog` (which
    owns the line format, header validation, and torn-tail truncation): this
    class contributes only the outcome record schema, the journal naming
    convention, and the header identity binding a file to one sweep
    signature under one code version.
    """

    def __init__(self, log: ChecksumLog) -> None:
        self._log = log
        self.path = log.path

    @classmethod
    def _header(cls, signature: str) -> Dict[str, object]:
        return {
            "format": JOURNAL_FORMAT_VERSION,
            "signature": signature,
            "version": disk_cache.version_tag(),
        }

    @classmethod
    def path_for(cls, directory: os.PathLike, signature: str) -> Path:
        """Where the journal for ``signature`` lives under ``directory``."""
        return Path(directory) / f"sweep-{signature[:16]}.wal"

    @classmethod
    def create(cls, directory: os.PathLike, signature: str) -> "SweepJournal":
        """Start a fresh journal (truncating any previous one)."""
        return cls(ChecksumLog.create(
            cls.path_for(directory, signature), cls._header(signature)
        ))

    @classmethod
    def resume(
        cls, directory: os.PathLike, signature: str
    ) -> Tuple["SweepJournal", List[TaskOutcome]]:
        """Reopen a journal for appending, returning its replayed outcomes.

        A missing journal is not an error — the "interrupted before the
        first fsync" case — it simply starts fresh.  A journal whose header
        disagrees on format, signature, or code version raises
        :class:`~repro.errors.JournalError` rather than mixing results
        computed by different code into one sweep.
        """
        log, records = ChecksumLog.resume(
            cls.path_for(directory, signature), cls._header(signature)
        )
        outcomes = [
            _decode_outcome(r) for r in records
            if r.get("kind") == _OUTCOME_KIND
        ]
        return cls(log), outcomes

    def append(self, outcome: TaskOutcome) -> None:
        """Durably record one terminal task outcome (flushed + fsync'd)."""
        self._log.append(_encode_outcome(outcome))

    def close(self) -> None:
        """Close the underlying file (append after close raises)."""
        self._log.close()


class _NullJournal:
    """Journal stand-in when no ``journal_dir`` was given: records nothing."""

    path = None

    def append(self, outcome: TaskOutcome) -> None:
        pass

    def close(self) -> None:
        pass


def decorrelated_backoff(
    previous_s: float,
    base_s: float,
    factor: float,
    cap_s: float,
    rng: random.Random,
) -> float:
    """Next pool-rebuild delay under decorrelated jitter.

    A deterministic exponential schedule makes every recovering worker (and
    every concurrent sweep sharing a host) restart in lockstep, re-creating
    the very resource spike that broke the pool.  Decorrelated jitter (the
    AWS "decorrelated" variant) spreads rebuilds over ``[base_s,
    min(cap_s, previous_s * factor)]``: the *upper envelope* still grows
    exponentially from the previous delay, but the actual draw is uniform
    inside the window, so two supervisors with identical histories diverge.
    ``base_s <= 0`` disables backoff entirely (returns 0.0).
    """
    if base_s <= 0.0:
        return 0.0
    lower = min(base_s, cap_s)
    upper = min(cap_s, max(base_s, previous_s * factor))
    if upper <= lower:
        return lower
    return rng.uniform(lower, upper)


# -- caches --------------------------------------------------------------------


def _memory_key(task: SweepTask) -> Tuple:
    """The experiments._CACHE key for a task (same shape as _method_result)."""
    return (task.filter_index, task.wordlength, task.scaling,
            task.representation, task.method, task.depth_limit)


def _hydrate(task: SweepTask, payload: Dict[str, object]) -> None:
    """Put one encoded result into the in-memory cache unless present."""
    key = _memory_key(task)
    if key not in experiments._CACHE:
        experiments._CACHE[key] = disk_cache.decode_method_result(payload)
        experiments._MEMORY_STATS.stores += 1


def _task_integers(task: SweepTask) -> Tuple[int, ...]:
    """The quantized integer coefficients a task's content key hashes."""
    designed = benchmark_filter(task.filter_index)
    return quantize(
        designed.folded, task.wordlength, ScalingScheme(task.scaling)
    ).integers


def _partition_tasks(
    tasks: Sequence[SweepTask],
) -> Tuple[List[SweepTask], int]:
    """Split planned tasks into (pending, already-cached count).

    The disk-cache probe both counts warm points and promotes them to the
    in-memory layer, so the replay touches no files for them.
    """
    pending: List[SweepTask] = []
    precached = 0
    active = disk_cache.active_cache()
    for task in tasks:
        if _memory_key(task) in experiments._CACHE:
            precached += 1
            continue
        if active is not None:
            payload = active.get(experiments._content_key(
                _task_integers(task), task.wordlength, task.method,
                Representation(task.representation), task.depth_limit, 16,
            ))
            if payload is not None:
                _hydrate(task, payload)
                precached += 1
                continue
        pending.append(task)
    return pending, precached


# -- computing -----------------------------------------------------------------


def _compute_task(
    task: SweepTask, deadline_s: Optional[float]
) -> TaskOutcome:
    """Compute one design point through the serial code path."""
    started = time.monotonic()
    with obs_span(
        "sweep.task",
        filter_index=task.filter_index,
        wordlength=task.wordlength,
        scaling=task.scaling,
        representation=task.representation,
        method=task.method,
    ) as sp:
        try:
            budget = (
                SolverBudget(deadline_s=deadline_s).start()
                if deadline_s is not None else None
            )
            designed = benchmark_filter(task.filter_index)
            result = experiments._method_result(
                designed,
                task.filter_index,
                task.wordlength,
                ScalingScheme(task.scaling),
                task.method,
                representation=Representation(task.representation),
                depth_limit=task.depth_limit,
                budget=budget,
            )
        except Exception as exc:  # noqa: BLE001 — a task must survive any instance
            sp.set_tag("outcome", "failed")
            return TaskOutcome(
                task=task,
                payload=None,
                error_type=type(exc).__name__,
                error=str(exc),
                elapsed_s=time.monotonic() - started,
                traceback=_traceback.format_exc(),
                duration_s=sp.elapsed() or (time.monotonic() - started),
            )
        sp.set_tag("outcome", "ok")
        return TaskOutcome(
            task=task,
            payload=disk_cache.encode_method_result(result),
            error_type=None,
            error=None,
            elapsed_s=time.monotonic() - started,
            duration_s=sp.elapsed() or (time.monotonic() - started),
        )


def _effective_deadline(
    deadline_s: Optional[float], deadline_at: Optional[float]
) -> Optional[float]:
    """Per-task budget recomputed at task start from the job-level clock.

    The whole-sweep ``deadline_at`` (wall-clock epoch, comparable across
    processes) caps each task's deadline at the job's *remaining* time, so
    late tasks get smaller budgets and an N-task sweep cannot run
    ``N x deadline_s`` past its job deadline.  The floor keeps an
    already-over-deadline task failing fast instead of dividing by zero.
    """
    if deadline_at is None:
        return deadline_s
    remaining = deadline_at - time.time()
    if deadline_s is not None:
        remaining = min(deadline_s, remaining)
    return max(0.05, remaining)


def _worker_init(
    cache_dir: Optional[str],
    chaos: Optional[ProcessFaultPlan],
    obs_args: Optional[Tuple[str, bool]] = None,
    msd_snapshot: Optional[Tuple] = None,
) -> None:
    """Pool initializer: disk cache, chaos arming, obs, warm MSD tables.

    ``msd_snapshot`` hands the parent's memoized MSD digit tables to the
    worker — a no-op under fork (the tables are inherited), load-bearing
    under spawn, and harmless either way because restoring is additive.
    """
    disk_cache.configure(cache_dir)
    obs.worker_configure(obs_args)
    msd.restore_tables(msd_snapshot)
    if chaos is not None:
        injector = chaos.cache_injector()
        if injector is not None:
            disk_cache.install_fault_injector(injector)


def _worker_run(
    args: Tuple[
        SweepTask, Optional[float], int, Optional[ProcessFaultPlan],
        Optional[float],
    ],
) -> TaskOutcome:
    task, deadline_s, attempt, chaos, deadline_at = args
    if chaos is not None:
        chaos.apply_worker_faults(task_key(task), attempt)
    outcome = _compute_task(task, _effective_deadline(deadline_s, deadline_at))
    obs.worker_checkpoint()
    return outcome


def _quarantine_outcome(task: SweepTask, attempts: int) -> TaskOutcome:
    return TaskOutcome(
        task=task,
        payload=None,
        error_type="WorkerLost",
        error=(
            f"task {task_key(task)} was in flight for {attempts} broken "
            f"pools; quarantined as a suspected worker killer"
        ),
        elapsed_s=0.0,
        attempts=attempts,
        quarantined=True,
    )


def _precompute_in_process(
    pending: Sequence[SweepTask],
    deadline_s: Optional[float],
    journal,
    chaos: Optional[ProcessFaultPlan],
    deadline_at: Optional[float],
    check_abort: Optional[Callable[[], Optional[str]]],
) -> List[TaskOutcome]:
    """``jobs <= 1``: no pool to lose, but journaling still applies.

    Worker-kill faults are *not* fired here — they would SIGKILL the parent
    itself, which is the scenario the journal (not the pool supervision)
    protects against; slow and cache-write faults still fire.
    """
    injector = chaos.cache_injector() if chaos is not None else None
    previous = (
        disk_cache.install_fault_injector(injector)
        if injector is not None else None
    )
    results: List[TaskOutcome] = []
    try:
        for task in pending:
            if check_abort is not None:
                reason = check_abort()
                if reason is not None:
                    raise SweepAborted(reason)
            if chaos is not None:
                delay = chaos.slow_delay(task_key(task))
                if delay > 0.0:
                    time.sleep(delay)
            outcome = _compute_task(
                task, _effective_deadline(deadline_s, deadline_at)
            )
            journal.append(outcome)
            results.append(outcome)
    finally:
        if injector is not None:
            disk_cache.install_fault_injector(previous)
    return results


def _run_wave(
    batch: Sequence[SweepTask],
    workers: int,
    worker_dir: Optional[str],
    deadline_s: Optional[float],
    attempts: Dict[SweepTask, int],
    chaos: Optional[ProcessFaultPlan],
    journal,
    results: List[TaskOutcome],
    deadline_at: Optional[float],
    check_abort: Optional[Callable[[], Optional[str]]],
) -> List[SweepTask]:
    """Submit one batch to a fresh pool; returns the tasks lost to a break.

    Completed outcomes (including worker-side failures, which arrive as
    error-carrying :class:`TaskOutcome`\\ s, and submission-side errors such
    as unpicklable arguments) are journaled and appended to ``results``
    as they complete; only tasks whose future died with
    :class:`BrokenProcessPool` are returned for the caller to triage.

    ``check_abort`` is polled between completions; a non-``None`` reason
    raises :class:`~repro.errors.SweepAborted` after cancelling every
    not-yet-started future (in-flight tasks still finish inside their own
    per-task deadline, so the overshoot past an abort is bounded by one
    task budget, not the whole remaining batch).
    """
    lost: List[SweepTask] = []
    abort_reason: Optional[str] = None
    # The wave span is open when worker_args() snapshots the trace context
    # below, so every worker's sweep.task spans link to *this* wave.
    with obs_span(
        "sweep.wave", workers=workers, batch=len(batch)
    ) as wave_span:
        executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(
                worker_dir, chaos, obs.worker_args(),
                msd.table_snapshot(),
            ),
        )
        future_map = {
            executor.submit(
                _worker_run,
                (task, deadline_s, attempts[task], chaos, deadline_at),
            ): task
            for task in batch
        }
        try:
            outstanding = set(future_map)
            while outstanding:
                if check_abort is not None:
                    abort_reason = check_abort()
                    if abort_reason is not None:
                        break
                done, outstanding = _futures_wait(
                    outstanding,
                    timeout=0.25 if check_abort is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    task = future_map[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        lost.append(task)
                        continue
                    except Exception as exc:  # noqa: BLE001 — e.g. pickling
                        outcome = TaskOutcome(
                            task=task,
                            payload=None,
                            error_type=type(exc).__name__,
                            error=str(exc),
                            elapsed_s=0.0,
                        )
                    outcome = replace(outcome, attempts=attempts[task] + 1)
                    journal.append(outcome)
                    results.append(outcome)
        finally:
            executor.shutdown(wait=True, cancel_futures=True)
        wave_span.set_tag("lost", len(lost))
    if abort_reason is not None:
        raise SweepAborted(abort_reason)
    return lost


def _precompute_pool(
    pending: Sequence[SweepTask],
    jobs: int,
    deadline_s: Optional[float],
    journal,
    chaos: Optional[ProcessFaultPlan],
    max_retries: int,
    deadline_at: Optional[float],
    check_abort: Optional[Callable[[], Optional[str]]],
) -> Tuple[List[TaskOutcome], int, int]:
    """Pool execution with worker-loss recovery and poison attribution.

    Returns ``(results, retries, pool_rebuilds)``.  Fresh tasks run in
    shared waves at full width.  A broken pool fails *every* in-flight
    future, so a shared-wave loss cannot tell the poison task from innocent
    bystanders; lost tasks are therefore re-probed in **isolation** — one
    task, one worker, one pool — where a second break implicates exactly
    that task.  Each loss adds a strike to the task's ledger; a task
    exceeding ``max_retries`` strikes is quarantined.  Innocents collect at
    most the one shared-wave strike, so with ``max_retries >= 1`` only a
    repeatedly-killing task can be quarantined.  Executor rebuilds are
    spaced by :func:`decorrelated_backoff` to ride out transient resource
    pressure (the OOM-killer case) without recovering sweeps restarting in
    lockstep.
    """
    active = disk_cache.active_cache()
    worker_dir = str(active.root) if active is not None else None
    attempts: Dict[SweepTask, int] = {task: 0 for task in pending}
    queue = deque(sorted(pending, key=_task_order))
    suspects: deque = deque()
    results: List[TaskOutcome] = []
    retries = 0
    pool_rebuilds = 0
    rng = random.Random()
    previous_delay = BACKOFF_S

    def strike(task: SweepTask) -> None:
        nonlocal retries
        attempts[task] += 1
        if attempts[task] > max_retries:
            outcome = _quarantine_outcome(task, attempts[task])
            journal.append(outcome)
            results.append(outcome)
        else:
            retries += 1
            suspects.append(task)

    def backoff() -> None:
        nonlocal previous_delay
        previous_delay = decorrelated_backoff(
            previous_delay, BACKOFF_S, BACKOFF_FACTOR, MAX_BACKOFF_S, rng
        )
        if previous_delay > 0.0:
            time.sleep(previous_delay)

    while queue or suspects:
        # Isolation probes first: settle every suspect before committing a
        # full-width pool that one of them could break again.
        while suspects:
            task = suspects.popleft()
            lost = _run_wave(
                [task], 1, worker_dir, deadline_s, attempts, chaos,
                journal, results, deadline_at, check_abort,
            )
            if lost:
                pool_rebuilds += 1
                with obs_span(
                    "supervisor.recover", kind="isolation", lost=1,
                    rebuilds=pool_rebuilds,
                ):
                    strike(task)
                    backoff()
        if queue:
            batch = sorted(queue, key=_task_order)
            queue.clear()
            lost = _run_wave(
                batch, min(jobs, len(batch)), worker_dir, deadline_s,
                attempts, chaos, journal, results, deadline_at, check_abort,
            )
            if lost:
                pool_rebuilds += 1
                with obs_span(
                    "supervisor.recover", kind="wave", lost=len(lost),
                    rebuilds=pool_rebuilds,
                ):
                    for task in sorted(lost, key=_task_order):
                        strike(task)
                    backoff()
    return results, retries, pool_rebuilds


# -- the engine ----------------------------------------------------------------


def _replay(
    ids: Sequence[str],
    filter_indices: Optional[Sequence[int]],
    wordlengths: Optional[Sequence[int]],
) -> Tuple[SweepOutcome, ...]:
    """Run the experiments serially, recording (not raising) failures."""
    outcomes = []
    for experiment_id in ids:
        started = time.monotonic()
        result = None
        error_type = error = None
        try:
            result = run_experiment(experiment_id, filter_indices, wordlengths)
        except Exception as exc:  # noqa: BLE001 — sweeps must survive
            error_type, error = type(exc).__name__, str(exc)
        outcomes.append(SweepOutcome(
            experiment_id=experiment_id,
            result=result,
            error_type=error_type,
            error=error,
            elapsed_s=time.monotonic() - started,
        ))
    return tuple(outcomes)


def _stage_timings(results: Sequence[TaskOutcome]) -> Dict[str, float]:
    """Aggregate elapsed task time per synthesis method."""
    timings: Dict[str, float] = {}
    for outcome in results:
        stage = outcome.task.method
        timings[stage] = timings.get(stage, 0.0) + outcome.elapsed_s
    return timings


def _record_sweep_metrics(report: SweepReport) -> None:
    """Fold a finished report's totals into the metrics registry.

    Counters are recorded *from the report* (not incrementally along the
    way), so the merged metrics snapshot equals ``report.stats()`` by
    construction.  Called once per report; sweeps in one process accumulate.
    """
    quarantined = len(report.quarantined_tasks)
    failed = len(report.failed_tasks) - quarantined
    ok = len(report.tasks) - len(report.failed_tasks)
    for status, count in (
        ("ok", ok), ("failed", failed), ("quarantined", quarantined),
    ):
        if count:
            obs_metrics.counter(
                "repro_tasks_total", status=status
            ).inc(count)
    for name, count in (
        ("repro_task_retries_total", report.retries),
        ("repro_pool_rebuilds_total", report.pool_rebuilds),
        ("repro_tasks_resumed_total", report.tasks_resumed),
        ("repro_tasks_precached_total", report.tasks_precached),
    ):
        if count:
            obs_metrics.counter(name).inc(count)
    obs_metrics.gauge("repro_sweep_jobs").set(report.jobs)


def run_sweep(
    experiment_ids: Optional[Sequence[str]] = None,
    *,
    filter_indices: Optional[Sequence[int]] = None,
    wordlengths: Optional[Sequence[int]] = None,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    task_deadline_s: Optional[float] = None,
    replay: bool = True,
    journal_dir: Optional[os.PathLike] = None,
    resume: bool = False,
    max_retries: int = 2,
    chaos: Optional[ProcessFaultPlan] = None,
    deadline_at: Optional[float] = None,
    should_stop: Optional[Callable[[], Optional[str]]] = None,
) -> SweepReport:
    """Run a sweep (see the module docstring for its steps).

    ``jobs <= 1`` computes pending points in-process; ``jobs > 1`` uses a
    supervised process pool of that width.  ``cache_dir`` installs a
    persistent :class:`~repro.eval.cache.DiskCache` shared by parent and
    workers (left installed afterwards, so later runs stay warm).
    ``journal_dir`` journals every outcome; ``resume`` replays that journal
    first.  ``max_retries`` bounds the lost-worker strikes before a task is
    quarantined.  With ``replay=False`` only the computation runs and
    ``report.outcomes`` is empty.  Aborting (``deadline_at``,
    ``should_stop``) never loses journaled outcomes — a resumed run skips
    them.
    """
    ids = resolve_experiment_ids(experiment_ids)
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if max_retries < 0:
        raise SupervisorError(f"max_retries must be >= 0, got {max_retries}")
    if resume and journal_dir is None:
        raise SupervisorError("resume=True requires journal_dir")

    check_abort: Optional[Callable[[], Optional[str]]] = None
    if deadline_at is not None or should_stop is not None:
        def check_abort() -> Optional[str]:
            if deadline_at is not None and time.time() >= deadline_at:
                return (
                    f"sweep deadline passed "
                    f"({time.time() - deadline_at:.1f}s over)"
                )
            if should_stop is not None:
                return should_stop()
            return None

    started = time.monotonic()
    if cache_dir is not None:
        disk_cache.configure(cache_dir)

    # 1. plan
    tasks = plan_tasks(ids, filter_indices, wordlengths)

    # 2. restore.  Failed or quarantined journal records are *not* restored
    # — a crash environment is exactly when transient failures happen, so
    # those points get a fresh chance.
    journal = _NullJournal()
    tasks_resumed = 0
    if journal_dir is not None:
        signature = sweep_signature(ids, filter_indices, wordlengths)
        if resume:
            journal, replayed = SweepJournal.resume(journal_dir, signature)
            planned = set(tasks)
            restored = {
                o.task: o.payload for o in replayed
                if o.ok and o.task in planned
            }
            for task, payload in restored.items():
                _hydrate(task, payload)
            tasks_resumed = len(restored)
            obs.event(
                "journal.resume",
                journal=str(journal.path),
                replayed=len(replayed),
                resumed=tasks_resumed,
            )
        else:
            journal = SweepJournal.create(journal_dir, signature)

    # 3. partition
    pending, precached = _partition_tasks(tasks)

    # 4. compute
    precompute_started = time.monotonic()
    results: List[TaskOutcome] = []
    retries = pool_rebuilds = 0
    try:
        if pending:
            with obs_span(
                "sweep.precompute", jobs=jobs, pending=len(pending)
            ):
                if jobs > 1:
                    results, retries, pool_rebuilds = _precompute_pool(
                        pending, jobs, task_deadline_s, journal, chaos,
                        max_retries, deadline_at, check_abort,
                    )
                else:
                    results = _precompute_in_process(
                        pending, task_deadline_s, journal, chaos,
                        deadline_at, check_abort,
                    )
            if jobs > 1:
                obs.drain_spill()
    finally:
        journal.close()
    precompute_s = time.monotonic() - precompute_started

    # 5. fold
    for outcome in results:
        if outcome.ok:
            _hydrate(outcome.task, outcome.payload)

    # Last checkpoint before the (undeadlined, serial) replay: an abort that
    # fired while the final tasks drained must not be absorbed into a full
    # replay over cold points.
    if check_abort is not None:
        reason = check_abort()
        if reason is not None:
            raise SweepAborted(reason)

    # 6. replay
    replay_started = time.monotonic()
    outcomes: Tuple[SweepOutcome, ...] = ()
    if replay:
        with obs_span("sweep.replay", experiments=len(ids)):
            outcomes = _replay(ids, filter_indices, wordlengths)
    replay_s = time.monotonic() - replay_started

    report = SweepReport(
        outcomes=outcomes,
        tasks=tuple(results),
        jobs=jobs,
        tasks_planned=len(tasks),
        tasks_precached=precached,
        precompute_s=precompute_s,
        replay_s=replay_s,
        total_s=time.monotonic() - started,
        stage_timings=_stage_timings(results),
        cache=experiments.cache_info(),
        retries=retries,
        pool_rebuilds=pool_rebuilds,
        tasks_resumed=tasks_resumed,
        journal_path=str(journal.path) if journal.path is not None else None,
    )
    _record_sweep_metrics(report)
    return report
