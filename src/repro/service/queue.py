"""Bounded, multi-tenant, round-robin work queue for the job service.

A single FIFO lets one chatty tenant starve everyone behind it; an
unbounded queue lets a request flood wedge the process long after the
clients gave up.  :class:`FairQueue` fixes both: jobs are held in
per-tenant FIFOs drained round-robin (each tenant gets one job per
rotation, so a tenant with 100 queued jobs and a tenant with 1 both make
progress), and both the total depth and the per-tenant depth are capped —
a full queue raises :class:`QueueFull` *before* the job is accepted, which
the admission layer turns into a 429 with ``Retry-After``.

The queue stores only job ids; the durable truth about a job lives in the
:class:`~repro.service.store.JobStore`.  Consequently the queue never needs
crash recovery of its own — on restart the store's surviving ``queued``
jobs are simply re-enqueued — and cancellation needs no queue surgery: the
dispatcher revalidates a job's state against the store after popping it.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional, Set

from ..errors import ServiceError
from ..obs import metrics as obs_metrics

__all__ = ["FairQueue", "QueueFull"]


class QueueFull(ServiceError):
    """The queue (or one tenant's share of it) is at capacity.

    ``scope`` is ``"total"`` or ``"tenant"`` so the admission layer can
    report *which* limit shed the request.
    """

    def __init__(self, message: str, scope: str = "total") -> None:
        super().__init__(message)
        self.scope = scope


class FairQueue:
    """Depth-bounded job-id queue with per-tenant round-robin draining."""

    def __init__(
        self,
        max_depth: int,
        max_depth_per_tenant: Optional[int] = None,
    ) -> None:
        if max_depth < 1:
            raise ServiceError(f"max_depth must be >= 1, got {max_depth}")
        if max_depth_per_tenant is not None and max_depth_per_tenant < 1:
            raise ServiceError(
                f"max_depth_per_tenant must be >= 1, got "
                f"{max_depth_per_tenant}"
            )
        self.max_depth = max_depth
        self.max_depth_per_tenant = max_depth_per_tenant
        self._cond = threading.Condition()
        self._queues: Dict[str, Deque[str]] = {}
        self._rotation: Deque[str] = deque()  # tenants with queued work
        self._held: Set[str] = set()  # job ids currently queued
        self._depth = 0
        self._closed = False

    # -- producers -----------------------------------------------------------

    def push(self, tenant: str, job_id: str) -> None:
        """Enqueue ``job_id`` for ``tenant``; raises :class:`QueueFull`.

        Pushing to a closed (draining) queue also raises
        :class:`QueueFull` — the caller maps that to "not admitting".  A
        job id the queue already holds is not queued twice: the push is a
        no-op, so one job never takes two slots.
        """
        with self._cond:
            if self._closed:
                raise QueueFull("queue is closed (service draining)")
            if job_id in self._held:
                return
            if self._depth >= self.max_depth:
                raise QueueFull(
                    f"queue depth {self._depth} is at the limit "
                    f"({self.max_depth})"
                )
            per_tenant = self._queues.get(tenant)
            if (
                self.max_depth_per_tenant is not None
                and per_tenant is not None
                and len(per_tenant) >= self.max_depth_per_tenant
            ):
                raise QueueFull(
                    f"tenant {tenant!r} has {len(per_tenant)} queued jobs, "
                    f"at its limit ({self.max_depth_per_tenant})",
                    scope="tenant",
                )
            if per_tenant is None:
                per_tenant = self._queues[tenant] = deque()
            if not per_tenant:
                self._rotation.append(tenant)
            per_tenant.append(job_id)
            self._held.add(job_id)
            self._depth += 1
            self._set_depth_gauge()
            self._cond.notify()

    # -- consumers -----------------------------------------------------------

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Dequeue the next job id fairly, or ``None`` on timeout/close.

        Tenants are served round-robin: the tenant at the head of the
        rotation yields one job and moves to the tail (if it still has
        work), so no tenant waits for another's whole backlog.

        A closed queue returns ``None`` immediately *even when jobs are
        still queued*: starting new work after a drain began would defeat
        the drain's grace period, and the queued jobs are not lost — they
        stay ``queued`` in the durable store for the next server start.
        """
        with self._cond:
            while True:
                if self._closed:
                    return None
                if self._depth > 0:
                    break
                if not self._cond.wait(timeout=timeout):
                    return None
            tenant = self._rotation.popleft()
            per_tenant = self._queues[tenant]
            job_id = per_tenant.popleft()
            self._held.discard(job_id)
            if per_tenant:
                self._rotation.append(tenant)
            else:
                del self._queues[tenant]
            self._depth -= 1
            self._set_depth_gauge()
            return job_id

    # -- introspection and shutdown -----------------------------------------

    def _set_depth_gauge(self) -> None:
        # The queue owns its gauge: every push/pop keeps the exposition in
        # step, instead of callers remembering to re-read depth() after
        # each mutation (the submit and dispatch paths used to disagree).
        obs_metrics.gauge("repro_service_queue_depth").set(self._depth)

    def depth(self, tenant: Optional[str] = None) -> int:
        """Jobs currently queued, overall or for one tenant."""
        with self._cond:
            if tenant is None:
                return self._depth
            per_tenant = self._queues.get(tenant)
            return len(per_tenant) if per_tenant is not None else 0

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop accepting and dispensing jobs (drain path).

        Jobs still queued are deliberately *not* drained here — they remain
        ``queued`` in the durable store and are re-enqueued on the next
        server start.  Blocked :meth:`pop` callers wake up with ``None``,
        and every later :meth:`pop` returns ``None`` regardless of depth,
        so no dispatcher can start a brand-new job after the drain began.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
