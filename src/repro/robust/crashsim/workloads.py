"""Per-layer workload drivers for the certification sweep.

Each workload is a pair of functions sharing a context dict:

* ``record(root)`` drives the *real* layer (the production classes, not
  mocks) while a recording fabric is active, producing the op log the
  enumerator cuts.  Everything that could vary between runs — clocks,
  temp names — is pinned, so the op log (and through it the CI report's
  state counts) is identical on every run.
* ``check(state_dir, context, acks)`` runs the *real* recovery path
  against one materialized crash state and returns invariant violations
  (empty list = this state recovers correctly).  The acks recorded before
  the cut say exactly which promises recovery must keep: the drivers
  issue their operations in a fixed order, so "k-th ack reached" maps
  deterministically to "k-th durable fact promised".

Invariants checked (per the service's durability contract):

* **wal/journal** — resume never raises, never loses an acked record,
  surviving records are byte-exact, and the file is reusable for appends;
* **store** — restart never raises, every acked job exists, no job is
  ever recovered as ``running`` (duplicate-execution guard), a job
  recovered ``completed`` has its byte-identical result file;
* **cache** — open/get never raise and never return bytes that differ
  from what was put: a torn entry is a miss (quarantined), never served.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ...errors import JobStateError, JournalError
from ...eval.cache import DiskCache
from ...eval.sweep import SweepJournal
from ...eval.wal import ChecksumLog
from ...service.store import JobSpec, JobState, JobStore

__all__ = ["LayerWorkload", "WORKLOADS"]

Ack = Tuple[str, Tuple[Tuple[str, str], ...]]


@dataclass(frozen=True)
class LayerWorkload:
    """One durability layer's recorded run + recovery invariant checker."""

    name: str
    description: str
    record: Callable[[Path], Dict[str, object]]
    check: Callable[[Path, Mapping[str, object], Sequence[Ack]], List[str]]


class _FakeClock:
    """Deterministic stand-in for ``time.time`` (one tick per call)."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _count_acks(acks: Sequence[Ack], label: str, **wanted: str) -> int:
    """How many acks carry ``label`` and every ``wanted`` info field."""
    count = 0
    for got, info in acks:
        if got != label:
            continue
        fields = dict(info)
        if all(fields.get(k) == v for k, v in wanted.items()):
            count += 1
    return count


# -- ChecksumLog ---------------------------------------------------------------

_WAL_HEADER = {"format": 1, "suite": "crashsim"}
_WAL_RECORDS = [{"seq": i, "payload": f"record-{i}"} for i in range(16)]


def _wal_record(root: Path) -> Dict[str, object]:
    path = root / "wal" / "certify.wal"
    log = ChecksumLog.create(path, _WAL_HEADER)
    for record in _WAL_RECORDS[:6]:
        log.append(record)
    log.close()
    # A clean reopen mid-history: resume must tolerate every crash state
    # *and* the post-resume appends must be enumerable too.
    log, _ = ChecksumLog.resume(path, _WAL_HEADER)
    for record in _WAL_RECORDS[6:]:
        log.append(record)
    log.close()
    return {"path": str(path)}


def _wal_check(
    state_dir: Path, context: Mapping[str, object], acks: Sequence[Ack]
) -> List[str]:
    problems: List[str] = []
    path = state_dir / "wal" / "certify.wal"
    # Every non-header append was acked with its ``seq``; records are
    # appended in seq order, so "k data acks" promises the first k records.
    promised = sum(
        1 for label, info in acks
        if label == "wal.append" and "seq" in dict(info)
    )
    try:
        log, records = ChecksumLog.resume(path, _WAL_HEADER)
        log.close()
    except JournalError as exc:
        return [f"wal: resume raised on a legal crash state: {exc}"]
    except OSError as exc:
        return [f"wal: resume crashed: {exc}"]
    if len(records) < promised:
        problems.append(
            f"wal: {promised} records were acked durable but only "
            f"{len(records)} survived"
        )
    for i, record in enumerate(records[:promised]):
        if record != _WAL_RECORDS[i]:
            problems.append(
                f"wal: acked record {i} corrupted: {record!r}"
            )
    return problems


# -- SweepJournal --------------------------------------------------------------

def _journal_outcomes():
    from ...eval.sweep import SweepTask, TaskOutcome

    tasks = [
        SweepTask(
            filter_index=i % 4, wordlength=8 + 2 * (i // 4), scaling="none",
            representation="msd", method="mrpf",
        )
        for i in range(8)
    ]
    return [
        TaskOutcome(
            task=task,
            payload={"adders": 10 + i, "depth": 3},
            error_type=None,
            error=None,
            elapsed_s=0.5,
            duration_s=0.5,
        )
        for i, task in enumerate(tasks)
    ]


def _journal_signature() -> str:
    from ...eval.sweep import sweep_signature

    return sweep_signature(["fig6"], [0], [8])


def _journal_record(root: Path) -> Dict[str, object]:
    directory = root / "journal"
    signature = _journal_signature()
    journal = SweepJournal.create(directory, signature)
    outcomes = _journal_outcomes()
    journal.append(outcomes[0])
    journal.close()
    # The --resume path: reopen, then journal the remaining outcomes.
    journal, _ = SweepJournal.resume(directory, signature)
    for outcome in outcomes[1:]:
        journal.append(outcome)
    journal.close()
    return {"signature": signature}


def _journal_check(
    state_dir: Path, context: Mapping[str, object], acks: Sequence[Ack]
) -> List[str]:
    problems: List[str] = []
    signature = str(context["signature"])
    promised = _count_acks(acks, "wal.append", kind="outcome")
    try:
        journal, outcomes = SweepJournal.resume(
            state_dir / "journal", signature
        )
        journal.close()
    except JournalError as exc:
        return [f"journal: --resume raised on a legal crash state: {exc}"]
    except OSError as exc:
        return [f"journal: --resume crashed: {exc}"]
    expected = _journal_outcomes()
    if len(outcomes) < promised:
        problems.append(
            f"journal: {promised} outcomes were acked durable but only "
            f"{len(outcomes)} survived"
        )
    for i, outcome in enumerate(outcomes[:promised]):
        if outcome != expected[i]:
            problems.append(f"journal: acked outcome {i} corrupted")
    return problems


# -- JobStore ------------------------------------------------------------------

_STORE_SPECS = [
    {"experiments": ["fig6"], "filters": [i], "wordlengths": [8]}
    for i in range(4)
]
_STORE_RESULT = '{"sweep": [], "status": "ok"}'


def _store_record(root: Path) -> Dict[str, object]:
    store = JobStore(root / "store", clock=_FakeClock())
    specs = [JobSpec.from_dict(s) for s in _STORE_SPECS]
    records = [store.submit(s, "tenant", 30.0, 300.0)[0] for s in specs]
    first, second, third, fourth = (r.job_id for r in records)
    # First job runs to completion with a durable result.
    store.transition(first, JobState.RUNNING)
    store.write_result(first, _STORE_RESULT)
    store.transition(first, JobState.COMPLETED)
    # Second fails mid-run; third is cancelled while queued; fourth stays
    # queued — together they cover every recovery-relevant lifecycle arc.
    store.transition(second, JobState.RUNNING)
    store.transition(second, JobState.FAILED, error="boom", error_type="X")
    store.transition(third, JobState.CANCELLED)
    store.close()
    # A mid-history restart: recovery (requeue + compaction) is itself a
    # recorded workload whose crash states must all be recoverable.
    store = JobStore(root / "store", clock=_FakeClock(1_500.0))
    store.transition(fourth, JobState.RUNNING)
    store.close()
    return {"first": first, "second": second, "fourth": fourth}


def _store_check(
    state_dir: Path, context: Mapping[str, object], acks: Sequence[Ack]
) -> List[str]:
    problems: List[str] = []
    first = str(context["first"])
    second = str(context["second"])
    first_acked = _count_acks(acks, "wal.append", job_id=first) > 0
    second_acked = _count_acks(acks, "wal.append", job_id=second) > 0
    completed_acked = (
        _count_acks(acks, "wal.append", job_id=first, state="completed") > 0
    )
    result_acked = _count_acks(acks, "store.result") > 0
    try:
        store = JobStore(state_dir / "store", clock=_FakeClock(2_000.0))
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"store: restart crashed on a legal crash state: {exc!r}"]
    try:
        if first_acked:
            try:
                record = store.get(first)
            except JobStateError:
                problems.append(
                    f"store: acknowledged job {first} lost after restart"
                )
                record = None
            if record is not None:
                if record.state == JobState.RUNNING:
                    problems.append(
                        "store: job recovered as 'running' (would "
                        "double-execute)"
                    )
                if completed_acked and record.state != JobState.COMPLETED:
                    problems.append(
                        f"store: completed ack was durable but job "
                        f"recovered as {record.state!r}"
                    )
                if record.state == JobState.COMPLETED:
                    try:
                        text = store.read_result(first)
                    except JobStateError as exc:
                        problems.append(
                            f"store: completed job's result missing: {exc}"
                        )
                    else:
                        if text != _STORE_RESULT:
                            problems.append(
                                "store: completed job's result is not "
                                "byte-identical"
                            )
        if second_acked:
            try:
                store.get(second)
            except JobStateError:
                problems.append(
                    f"store: acknowledged job {second} lost after restart"
                )
        if result_acked:
            result_path = state_dir / "store" / "results" / f"{first}.json"
            if result_path.exists():
                if result_path.read_text(encoding="utf-8") != _STORE_RESULT:
                    problems.append(
                        "store: acked result file present but torn"
                    )
            else:
                problems.append(
                    "store: acked result file vanished after restart"
                )
        for record in store.list_jobs():
            if record.state == JobState.RUNNING:
                problems.append(
                    f"store: duplicate running record {record.job_id}"
                )
    finally:
        store.close()
    return problems


# -- DiskCache -----------------------------------------------------------------

def _cache_key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


_CACHE_JSON_KEYS = [_cache_key(f"crashsim-json-{i}") for i in range(4)]
_CACHE_TEXT_KEYS = [_cache_key(f"crashsim-text-{i}") for i in range(2)]
_CACHE_PAYLOADS = [
    {"adders": 12 + i, "depth": 3, "method": "mrpf"} for i in range(4)
]
_CACHE_TEXTS = [
    f"module adder_{i}(input a, b);\nendmodule\n" for i in range(2)
]


def _cache_record(root: Path) -> Dict[str, object]:
    cache = DiskCache(root / "cache")
    for key, payload in zip(_CACHE_JSON_KEYS, _CACHE_PAYLOADS):
        cache.put(key, payload)
    for key, text in zip(_CACHE_TEXT_KEYS, _CACHE_TEXTS):
        cache.put_text(key, text)
    # Overwrite with identical bytes: the lost-race path workers exercise.
    cache.put(_CACHE_JSON_KEYS[0], _CACHE_PAYLOADS[0])
    return {}


def _cache_check(
    state_dir: Path, context: Mapping[str, object], acks: Sequence[Ack]
) -> List[str]:
    problems: List[str] = []
    try:
        cache = DiskCache(state_dir / "cache")
        payloads = [cache.get(key) for key in _CACHE_JSON_KEYS]
        texts = [cache.get_text(key) for key in _CACHE_TEXT_KEYS]
    except Exception as exc:  # noqa: BLE001 - any crash is the finding
        return [f"cache: open/get crashed on a legal crash state: {exc!r}"]
    # The cache is best-effort: absence is always legal, corruption never.
    for i, payload in enumerate(payloads):
        if payload is not None and payload != _CACHE_PAYLOADS[i]:
            problems.append(
                f"cache: served a corrupt JSON entry for key {i}: "
                f"{json.dumps(payload)[:80]}"
            )
    for i, text in enumerate(texts):
        if text is not None and text != _CACHE_TEXTS[i]:
            problems.append(f"cache: served a corrupt text artifact {i}")
    return problems


WORKLOADS: Dict[str, LayerWorkload] = {
    "wal": LayerWorkload(
        name="wal",
        description="ChecksumLog create/append/resume/append",
        record=_wal_record,
        check=_wal_check,
    ),
    "journal": LayerWorkload(
        name="journal",
        description="SweepJournal outcome log + --resume replay",
        record=_journal_record,
        check=_journal_check,
    ),
    "store": LayerWorkload(
        name="store",
        description="JobStore submit/run/complete + result artifact",
        record=_store_record,
        check=_store_check,
    ),
    "cache": LayerWorkload(
        name="cache",
        description="DiskCache JSON + text artifact puts",
        record=_cache_record,
        check=_cache_check,
    ),
}
