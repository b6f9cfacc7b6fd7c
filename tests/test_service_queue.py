"""Fair queue, admission control, budgets, and the deadline reaper.

All pure-unit: fake clocks instead of sleeps, no sweeps, no sockets.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionRejected, CircuitOpen, ServiceError, SpecError
from repro.service.admission import (
    AdmissionController,
    CircuitBreaker,
    DurationEwma,
)
from repro.service.budgets import BudgetPolicy, Reaper
from repro.service.queue import FairQueue, QueueFull


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestFairQueue:
    def test_fifo_within_one_tenant(self):
        q = FairQueue(max_depth=8)
        for i in range(3):
            q.push("a", f"job-{i}")
        assert [q.pop(0.0) for _ in range(3)] == ["job-0", "job-1", "job-2"]

    def test_round_robin_across_tenants(self):
        # Tenant "a" floods first; tenant "b"'s single job must not wait
        # behind a's whole backlog.
        q = FairQueue(max_depth=8)
        for i in range(3):
            q.push("a", f"a-{i}")
        q.push("b", "b-0")
        order = [q.pop(0.0) for _ in range(4)]
        assert order == ["a-0", "b-0", "a-1", "a-2"]

    def test_total_depth_cap(self):
        q = FairQueue(max_depth=2)
        q.push("a", "1")
        q.push("b", "2")
        with pytest.raises(QueueFull) as exc:
            q.push("c", "3")
        assert exc.value.scope == "total"

    def test_per_tenant_cap_leaves_room_for_others(self):
        q = FairQueue(max_depth=8, max_depth_per_tenant=2)
        q.push("a", "1")
        q.push("a", "2")
        with pytest.raises(QueueFull) as exc:
            q.push("a", "3")
        assert exc.value.scope == "tenant"
        q.push("b", "4")  # other tenants unaffected

    def test_pop_timeout_returns_none(self):
        q = FairQueue(max_depth=2)
        assert q.pop(timeout=0.01) is None

    def test_depth_per_tenant(self):
        q = FairQueue(max_depth=8)
        q.push("a", "1")
        q.push("a", "2")
        q.push("b", "3")
        assert q.depth() == 3
        assert q.depth("a") == 2 and q.depth("b") == 1 and q.depth("c") == 0

    def test_push_of_held_job_is_noop(self):
        q = FairQueue(max_depth=1)
        q.push("a", "1")
        q.push("a", "1")  # already held: no second slot, no QueueFull
        assert q.depth() == 1
        assert q.pop(timeout=0.01) == "1"
        q.push("a", "1")  # popped ids may be queued again
        assert q.depth() == 1

    def test_closed_queue_rejects_push_and_stops_dispensing(self):
        q = FairQueue(max_depth=2)
        q.push("a", "1")
        q.close()
        with pytest.raises(QueueFull, match="closed"):
            q.push("a", "2")
        # A closed queue dispenses nothing, even with work still queued:
        # starting a new job after SIGTERM would defeat the drain grace
        # period.  The job stays durably queued for the next start.
        assert q.pop(timeout=30.0) is None
        assert q.depth() == 1

    def test_close_wakes_blocked_consumer(self):
        q = FairQueue(max_depth=2)
        got = []
        t = threading.Thread(target=lambda: got.append(q.pop(timeout=30.0)))
        t.start()
        q.close()
        t.join(timeout=5.0)
        assert not t.is_alive() and got == [None]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ServiceError):
            FairQueue(max_depth=0)
        with pytest.raises(ServiceError):
            FairQueue(max_depth=4, max_depth_per_tenant=0)


class TestDurationEwma:
    def test_first_observation_replaces_prior(self):
        ewma = DurationEwma(alpha=0.5, initial=1.0)
        ewma.observe(9.0)
        assert ewma.value == 9.0

    def test_smooths_after_first(self):
        ewma = DurationEwma(alpha=0.5, initial=1.0)
        ewma.observe(8.0)
        ewma.observe(4.0)
        assert ewma.value == pytest.approx(6.0)

    def test_invalid_alpha(self):
        with pytest.raises(ServiceError):
            DurationEwma(alpha=0.0)
        with pytest.raises(ServiceError):
            DurationEwma(alpha=1.5)


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, window_s=60, cooldown_s=30, clock=clock)
        b.record_rebuilds(2)
        assert b.state == "closed"
        b.allow()  # no raise

    def test_trips_when_window_total_crosses_threshold(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, window_s=60, cooldown_s=30, clock=clock)
        b.record_rebuilds(2)
        b.record_rebuilds(1)
        assert b.state == "open"
        with pytest.raises(CircuitOpen) as exc:
            b.allow()
        assert exc.value.retry_after_s >= 1.0

    def test_old_events_age_out_of_window(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=3, window_s=60, cooldown_s=30, clock=clock)
        b.record_rebuilds(2)
        clock.advance(61.0)
        b.record_rebuilds(1)  # the earlier 2 aged out; total is 1
        assert b.state == "closed"

    def test_cooldown_then_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=1, window_s=60, cooldown_s=30, clock=clock)
        b.record_rebuilds(1)
        assert b.state == "open"
        clock.advance(31.0)
        assert b.state == "half-open"
        b.allow()  # admits the probe
        b.record_success()
        assert b.state == "closed"

    def test_rebuild_during_probe_reopens(self):
        clock = FakeClock()
        b = CircuitBreaker(threshold=2, window_s=60, cooldown_s=30, clock=clock)
        b.record_rebuilds(2)
        clock.advance(31.0)
        b.allow()  # half-open probe admitted
        b.record_rebuilds(1)  # probe job also had to rebuild the pool
        assert b.state == "open"
        with pytest.raises(CircuitOpen):
            b.allow()

    def test_success_while_closed_is_noop(self):
        b = CircuitBreaker(clock=FakeClock())
        b.record_success()
        assert b.state == "closed"


class TestAdmissionController:
    def _controller(self, max_depth=2, per_tenant=None, max_inflight=1):
        queue = FairQueue(max_depth, max_depth_per_tenant=per_tenant)
        breaker = CircuitBreaker(clock=FakeClock())
        return AdmissionController(queue, breaker, max_inflight=max_inflight)

    def test_admits_when_room(self):
        ctrl = self._controller()
        ctrl.admit("a")  # no raise

    def test_sheds_on_full_queue_with_retry_after(self):
        ctrl = self._controller(max_depth=1)
        ctrl.queue.push("a", "job-1")
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit("b")
        assert exc.value.retry_after_s >= 1.0

    def test_sheds_on_tenant_cap(self):
        ctrl = self._controller(max_depth=8, per_tenant=1)
        ctrl.queue.push("a", "job-1")
        with pytest.raises(AdmissionRejected, match="tenant"):
            ctrl.admit("a")
        ctrl.admit("b")  # other tenants still fine

    def test_open_breaker_blocks_admission(self):
        ctrl = self._controller()
        ctrl.breaker.record_rebuilds(ctrl.breaker.threshold)
        with pytest.raises(CircuitOpen):
            ctrl.admit("a")

    def test_retry_after_scales_with_backlog(self):
        ctrl = self._controller(max_depth=8)
        ctrl.durations.observe(10.0)
        empty = ctrl.retry_after_s()
        ctrl.queue.push("a", "1")
        ctrl.queue.push("a", "2")
        assert ctrl.retry_after_s() > empty

    def test_retry_after_clamped(self):
        ctrl = self._controller(max_depth=8)
        ctrl.durations.observe(10_000.0)
        assert ctrl.retry_after_s() == AdmissionController.MAX_RETRY_AFTER_S

    def test_inflight_bookkeeping(self):
        ctrl = self._controller()
        ctrl.job_started()
        assert ctrl.inflight == 1
        ctrl.job_finished(duration_s=2.0, pool_rebuilds=0)
        assert ctrl.inflight == 0
        assert ctrl.durations.value == 2.0

    def test_job_finished_feeds_breaker(self):
        ctrl = self._controller()
        ctrl.job_started()
        ctrl.job_finished(duration_s=1.0, pool_rebuilds=ctrl.breaker.threshold)
        assert ctrl.breaker.state == "open"

    def test_translate_queue_full(self):
        ctrl = self._controller()
        rejected = ctrl.translate_queue_full(QueueFull("race"))
        assert isinstance(rejected, AdmissionRejected)
        assert rejected.retry_after_s >= 1.0


class TestBudgetPolicy:
    def test_defaults_when_unspecified(self):
        policy = BudgetPolicy()
        task, job, clamped = policy.resolve(None, None)
        assert task == policy.default_task_deadline_s
        assert job == policy.default_job_deadline_s
        assert clamped is False

    def test_requests_below_ceiling_pass_through(self):
        task, job, clamped = BudgetPolicy().resolve(5.0, 60.0)
        assert (task, job, clamped) == (5.0, 60.0, False)

    def test_over_ceiling_clamped_not_rejected(self):
        policy = BudgetPolicy(
            max_task_deadline_s=120.0, max_job_deadline_s=1800.0
        )
        task, job, clamped = policy.resolve(999.0, 99999.0)
        assert task == 120.0 and job == 1800.0 and clamped is True

    def test_non_positive_rejected(self):
        with pytest.raises(SpecError):
            BudgetPolicy().resolve(0.0, None)
        with pytest.raises(SpecError):
            BudgetPolicy().resolve(None, -1.0)

    def test_default_above_ceiling_is_a_config_error(self):
        with pytest.raises(SpecError):
            BudgetPolicy(default_task_deadline_s=200.0, max_task_deadline_s=100.0)


class _FakeRecord:
    def __init__(self, job_id, expires_at):
        self.job_id = job_id
        self.expires_at = expires_at


class TestReaper:
    def test_expires_only_overdue_jobs(self):
        clock = FakeClock(now=100.0)
        records = [
            _FakeRecord("job-late", expires_at=90.0),
            _FakeRecord("job-fine", expires_at=110.0),
            _FakeRecord("job-nodeadline", expires_at=None),
        ]
        expired = []
        reaper = Reaper(
            sweep=lambda: records, expire=expired.append, clock=clock
        )
        assert reaper.reap_once() == 1
        assert expired == ["job-late"]

    def test_lost_race_is_swallowed(self):
        from repro.errors import JobStateError

        clock = FakeClock(now=100.0)

        def expire(job_id):
            raise JobStateError("completed first")

        reaper = Reaper(
            sweep=lambda: [_FakeRecord("job-1", 50.0)],
            expire=expire,
            clock=clock,
        )
        assert reaper.reap_once() == 0

    def test_thread_start_stop(self):
        reaper = Reaper(sweep=lambda: [], expire=lambda _: None,
                        interval_s=0.05)
        reaper.start()
        reaper.start()  # idempotent
        reaper.stop()
        assert reaper._thread is None
