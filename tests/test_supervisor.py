"""Sweep engine supervision: journaling, worker-loss recovery, resume.

The headline guarantees under test:

* a sweep interrupted by SIGKILL — of a worker (chaos-injected, a real
  ``BrokenProcessPool``) or of the parent (a driver subprocess killed
  mid-sweep) — resumes via the journal and exports **byte-identical**
  results to an uninterrupted serial run;
* a poison task that repeatedly kills workers is quarantined after a
  bounded number of retries instead of aborting the sweep or retrying
  forever, and is attributed precisely (innocent pool-mates survive);
* the write-ahead log is crash-safe: checksummed lines, torn tails
  truncated on resume, cross-version/cross-sweep journals rejected.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import JournalError, SupervisorError, SweepAborted
from repro.eval import cache as disk_cache
from repro.eval.experiments import clear_cache
from repro.eval.export import sweep_to_json
from repro.eval.harness import run_experiment
from repro.eval.sweep import (
    SweepJournal,
    SweepOutcome,
    SweepTask,
    TaskOutcome,
    decorrelated_backoff,
    plan_tasks,
    run_sweep,
    sweep_signature,
    task_key,
)
from repro.robust import ProcessFaultPlan
from repro.robust.crashsim import fabric as iofabric
from repro.robust.crashsim.fabric import TORN, FaultPointFabric, RealIo

IDS = ["fig6"]
RESTRICT = dict(filter_indices=[0, 1], wordlengths=[8])


@pytest.fixture(autouse=True)
def _pristine_caches():
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


def _serial_json():
    """The oracle: each experiment run directly, with no sweep engine."""
    clear_cache()
    disk_cache.configure(None)
    outcomes = [
        SweepOutcome(i, run_experiment(i, **RESTRICT), None, None, 0.0)
        for i in IDS
    ]
    text = sweep_to_json(outcomes)
    clear_cache()
    return text


def _outcome(task: SweepTask, **kw) -> TaskOutcome:
    defaults = dict(
        payload={"method": task.method, "adders": 1, "depth": 1,
                 "cla_weighted": 1.0, "seed_size": None},
        error_type=None, error=None, elapsed_s=0.25,
    )
    defaults.update(kw)
    return TaskOutcome(task=task, **defaults)


class TestJournal:
    SIG = "ab" * 32

    def test_create_append_resume_roundtrip(self, tmp_path):
        task = SweepTask(0, 8, "uniform", "csd", "mrpf")
        journal = SweepJournal.create(tmp_path, self.SIG)
        journal.append(_outcome(task))
        journal.append(_outcome(task, payload=None, error_type="ValueError",
                                error="boom", traceback="Traceback ..."))
        journal.close()
        reopened, outcomes = SweepJournal.resume(tmp_path, self.SIG)
        reopened.close()
        assert len(outcomes) == 2
        assert outcomes[0].task == task and outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].traceback == "Traceback ..."

    def test_append_after_close_raises(self, tmp_path):
        journal = SweepJournal.create(tmp_path, self.SIG)
        journal.close()
        with pytest.raises(JournalError):
            journal.append(_outcome(SweepTask(0, 8, "uniform", "csd", "mrpf")))

    def test_missing_journal_resumes_fresh(self, tmp_path):
        journal, outcomes = SweepJournal.resume(tmp_path, self.SIG)
        journal.close()
        assert outcomes == []
        assert SweepJournal.path_for(tmp_path, self.SIG).exists()

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        task = SweepTask(0, 8, "uniform", "csd", "mrpf")
        journal = SweepJournal.create(tmp_path, self.SIG)
        journal.append(_outcome(task))
        journal.close()
        path = SweepJournal.path_for(tmp_path, self.SIG)
        intact = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('deadbeef {"kind":"outcome","tr')  # torn mid-write
        reopened, outcomes = SweepJournal.resume(tmp_path, self.SIG)
        reopened.close()
        assert len(outcomes) == 1
        assert path.stat().st_size == intact

    def test_corrupted_middle_line_stops_replay(self, tmp_path):
        task = SweepTask(0, 8, "uniform", "csd", "mrpf")
        journal = SweepJournal.create(tmp_path, self.SIG)
        journal.append(_outcome(task))
        journal.append(_outcome(task, elapsed_s=9.0))
        journal.close()
        path = SweepJournal.path_for(tmp_path, self.SIG)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"0" * 8 + lines[1][8:]  # break the checksum
        path.write_bytes(b"".join(lines))
        reopened, outcomes = SweepJournal.resume(tmp_path, self.SIG)
        reopened.close()
        assert outcomes == []  # everything after the bad line is suspect

    def test_wrong_signature_rejected(self, tmp_path):
        journal = SweepJournal.create(tmp_path, self.SIG)
        journal.close()
        other = "cd" * 32
        # Force the same path for a different signature to hit the check.
        path = SweepJournal.path_for(tmp_path, self.SIG)
        path.rename(SweepJournal.path_for(tmp_path, other))
        with pytest.raises(JournalError):
            SweepJournal.resume(tmp_path, other)

    def test_headerless_journal_rejected(self, tmp_path):
        path = SweepJournal.path_for(tmp_path, self.SIG)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not a journal\n", encoding="utf-8")
        with pytest.raises(JournalError):
            SweepJournal.resume(tmp_path, self.SIG)

    def test_signature_depends_on_shape_and_version(self, monkeypatch):
        a = sweep_signature(["fig6"], [0, 1], [8])
        assert a == sweep_signature(["fig6"], [0, 1], [8])
        assert a != sweep_signature(["fig7"], [0, 1], [8])
        assert a != sweep_signature(["fig6"], [0], [8])
        monkeypatch.setattr(disk_cache, "CACHE_SCHEMA_VERSION", 999)
        assert a != sweep_signature(["fig6"], [0, 1], [8])

    def test_task_key_is_stable_and_distinct(self):
        tasks = plan_tasks(["fig6", "table1"], [0, 1], [8])
        keys = [task_key(t) for t in tasks]
        assert len(set(keys)) == len(tasks)


class TestSupervisedEquivalence:
    def test_supervised_matches_serial(self, tmp_path):
        want = _serial_json()
        report = run_sweep(
            IDS, jobs=2, cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal", **RESTRICT
        )
        assert sweep_to_json(report.outcomes) == want
        assert report.journal_path is not None
        assert not report.failed_tasks and not report.quarantined_tasks

    def test_journal_resume_without_disk_cache(self, tmp_path):
        # The journal alone (no disk cache) must be able to warm a resume.
        want = _serial_json()
        run_sweep(
            IDS, jobs=1, journal_dir=tmp_path, replay=False, **RESTRICT
        )
        clear_cache()
        report = run_sweep(
            IDS, jobs=1, journal_dir=tmp_path, resume=True, **RESTRICT
        )
        assert report.tasks_resumed == report.tasks_planned
        assert len(report.tasks) == 0
        assert sweep_to_json(report.outcomes) == want

    def test_resume_requires_journal_dir(self):
        with pytest.raises(SupervisorError):
            run_sweep(IDS, jobs=1, resume=True, **RESTRICT)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(SupervisorError):
            run_sweep(IDS, jobs=1, max_retries=-1, **RESTRICT)


class TestWorkerLossRecovery:
    def test_worker_sigkill_recovers_byte_identical(self, tmp_path):
        # Every task's first attempt SIGKILLs its worker — a real
        # BrokenProcessPool — and the supervisor must recover them all.
        want = _serial_json()
        chaos = ProcessFaultPlan(seed=7, kill_rate=1.0, kills_per_task=1)
        report = run_sweep(
            IDS, jobs=2, journal_dir=tmp_path, chaos=chaos,
            max_retries=2, **RESTRICT
        )
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert not report.quarantined_tasks
        assert sweep_to_json(report.outcomes) == want

    def test_fault_sequence_is_deterministic(self, tmp_path):
        chaos = ProcessFaultPlan(seed=7, kill_rate=1.0, kills_per_task=1)

        def run(sub):
            clear_cache()
            disk_cache.configure(None)
            report = run_sweep(
                IDS, jobs=2, journal_dir=tmp_path / sub, chaos=chaos,
                max_retries=2, replay=False, **RESTRICT
            )
            return (
                report.pool_rebuilds, report.retries,
                tuple(sorted(
                    (task_key(t.task), t.attempts) for t in report.tasks
                )),
            )

        assert run("a") == run("b")

    def test_poison_task_quarantined_innocents_survive(self, tmp_path):
        want = _serial_json()
        tasks = plan_tasks(IDS, **RESTRICT)  # already sorted
        poison = task_key(tasks[-1])
        chaos = ProcessFaultPlan(seed=1, poison_tasks=(poison,))
        report = run_sweep(
            IDS, jobs=2, journal_dir=tmp_path, chaos=chaos,
            max_retries=2, **RESTRICT
        )
        quarantined = report.quarantined_tasks
        assert [task_key(t.task) for t in quarantined] == [poison]
        assert quarantined[0].attempts == 3  # max_retries + 1 strikes
        assert quarantined[0].error_type == "WorkerLost"
        # Every innocent design point completed despite sharing pools.
        completed = {task_key(t.task) for t in report.tasks if t.ok}
        assert completed == {task_key(t) for t in tasks} - {poison}
        # The replay recomputes the quarantined point inline: full results.
        assert sweep_to_json(report.outcomes) == want

    def test_slow_task_injection_still_identical(self, tmp_path):
        want = _serial_json()
        chaos = ProcessFaultPlan(seed=5, slow_rate=1.0, slow_s=0.05)
        report = run_sweep(
            IDS, jobs=2, journal_dir=tmp_path, chaos=chaos, **RESTRICT
        )
        assert not report.failed_tasks
        assert sweep_to_json(report.outcomes) == want


class TestCacheChaos:
    """Disk faults under every cache write of a serial sweep.

    The faults come from a :class:`FaultPointFabric` scoped to the cache
    directory; it fires once per ``(kind, path)``, and every cache entry
    and temp file has its own path, so every ``put`` is faulted.
    """

    @staticmethod
    def _faulted_sweep(cache_dir, verdict):
        fab = FaultPointFabric(
            RealIo(),
            lambda kind, path: path.startswith(str(cache_dir))
            and verdict(kind),
        )
        with iofabric.scope(fab):
            report = run_sweep(IDS, jobs=1, cache_dir=cache_dir, **RESTRICT)
        return report, fab

    def test_truncated_cache_writes_quarantined_on_read(self, tmp_path):
        want = _serial_json()
        cache_dir = tmp_path / "cache"
        first, fab = self._faulted_sweep(
            cache_dir, lambda kind: TORN if kind == "replace" else False
        )
        assert sweep_to_json(first.outcomes) == want
        stores = disk_cache.active_cache().stats.stores
        assert stores > 0 and len(fab.fired) == stores  # every put torn
        clear_cache()
        # Second run hits only corrupt entries: each is quarantined (not
        # unlinked), recomputed, and the sweep still matches serial bytes.
        second = run_sweep(
            IDS, jobs=1, cache_dir=cache_dir, **RESTRICT
        )
        active = disk_cache.active_cache()
        assert active.stats.quarantined == stores
        assert active.quarantined_entries() == active.stats.quarantined
        assert sweep_to_json(second.outcomes) == want

    def test_enospc_faults_do_not_fail_the_sweep(self, tmp_path):
        want = _serial_json()
        report, fab = self._faulted_sweep(
            tmp_path / "cache", lambda kind: kind == "write"
        )
        assert not report.failed_tasks
        stats = disk_cache.active_cache().stats
        assert stats.put_errors > 0
        assert stats.stores == 0 and len(fab.fired) == stats.put_errors
        assert sweep_to_json(report.outcomes) == want


_PARENT_DRIVER = """
import sys
from repro.eval.sweep import run_sweep
from repro.robust import ProcessFaultPlan

# Slow every task so the parent is reliably mid-sweep when killed.
chaos = ProcessFaultPlan(seed=0, slow_rate=1.0, slow_s=0.5)
run_sweep(
    ["fig6"], jobs=1, journal_dir=sys.argv[1], chaos=chaos, replay=False,
    filter_indices=[0, 1], wordlengths=[8],
)
print("DRIVER-COMPLETED")
"""


class TestParentKillResume:
    def test_parent_sigkill_then_resume_byte_identical(self, tmp_path):
        want = _serial_json()
        signature = sweep_signature(sorted(IDS), [0, 1], [8])
        journal_path = SweepJournal.path_for(tmp_path, signature)

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _PARENT_DRIVER, str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            # Wait until at least one outcome is durably journaled, then
            # SIGKILL the parent mid-sweep.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break  # finished before we could kill it — still valid
                if journal_path.exists():
                    lines = journal_path.read_bytes().count(b"\n")
                    if lines >= 2:  # header + >= 1 outcome
                        break
                time.sleep(0.01)
            else:
                pytest.fail("driver never journaled an outcome")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

        clear_cache()
        disk_cache.configure(None)
        report = run_sweep(
            IDS, jobs=1, journal_dir=tmp_path, resume=True, **RESTRICT
        )
        assert report.tasks_resumed >= 1
        assert report.tasks_resumed + len(report.tasks) == report.tasks_planned
        assert sweep_to_json(report.outcomes) == want


class TestSweepAbort:
    def test_past_deadline_aborts_before_any_task(self, tmp_path):
        with pytest.raises(SweepAborted, match="deadline"):
            run_sweep(
                IDS, jobs=1, journal_dir=tmp_path, replay=False,
                deadline_at=time.time() - 1.0, **RESTRICT
            )

    def test_should_stop_aborts_between_tasks_and_keeps_journal(
        self, tmp_path
    ):
        polls = []

        def should_stop():
            polls.append(1)
            return "caller asked to stop" if len(polls) > 1 else None

        with pytest.raises(SweepAborted, match="caller asked"):
            run_sweep(
                IDS, jobs=1, journal_dir=tmp_path, replay=False,
                should_stop=should_stop, **RESTRICT
            )
        # The task completed before the abort is durably journaled: a
        # resumed run skips it — aborting loses time, never results.
        clear_cache()
        report = run_sweep(
            IDS, jobs=1, journal_dir=tmp_path, resume=True, replay=False,
            **RESTRICT
        )
        assert report.tasks_resumed >= 1
        assert report.tasks_resumed + len(report.tasks) == (
            report.tasks_planned
        )

    def test_abort_interrupts_a_running_pool_wave(self, tmp_path):
        # Tasks are slowed so the wave is reliably in flight when the
        # stop signal lands; the supervisor must notice between
        # completion polls instead of draining the whole batch.
        chaos = ProcessFaultPlan(seed=0, slow_rate=1.0, slow_s=0.5)
        polls = []

        def should_stop():
            polls.append(1)
            return "stop now" if len(polls) >= 2 else None

        with pytest.raises(SweepAborted, match="stop now"):
            run_sweep(
                IDS, jobs=2, journal_dir=tmp_path, chaos=chaos,
                should_stop=should_stop, replay=False, **RESTRICT
            )


class TestDecorrelatedBackoff:
    def test_draws_stay_inside_the_window(self):
        import random

        rng = random.Random(0)
        previous = 0.5
        for _ in range(200):
            delay = decorrelated_backoff(
                previous, base_s=0.5, factor=3.0, cap_s=30.0, rng=rng
            )
            assert 0.5 <= delay <= min(30.0, max(0.5, previous * 3.0))
            previous = delay

    def test_cap_bounds_the_envelope(self):
        import random

        rng = random.Random(1)
        delay = decorrelated_backoff(
            previous_s=1000.0, base_s=0.5, factor=3.0, cap_s=30.0, rng=rng
        )
        assert delay <= 30.0

    def test_zero_base_disables_backoff(self):
        import random

        assert decorrelated_backoff(
            5.0, base_s=0.0, factor=3.0, cap_s=30.0, rng=random.Random(2)
        ) == 0.0

    def test_identical_histories_diverge(self):
        # The whole point of the jitter: two supervisors with the same
        # rebuild history must not restart their pools in lockstep.
        import random

        a = [
            decorrelated_backoff(0.5, 0.5, 3.0, 30.0, random.Random(10))
        ]
        b = [
            decorrelated_backoff(0.5, 0.5, 3.0, 30.0, random.Random(11))
        ]
        assert a != b

    def test_degenerate_window_returns_lower_bound(self):
        import random

        # previous * factor below base: the window collapses to base_s.
        assert decorrelated_backoff(
            0.01, base_s=0.5, factor=3.0, cap_s=30.0, rng=random.Random(3)
        ) == 0.5
