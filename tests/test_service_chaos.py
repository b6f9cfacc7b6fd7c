"""Service-level fault injection: the guarantees that survive real crashes.

The claims under test, each against a real server:

* a job whose **workers** are SIGKILLed mid-sweep still completes, and its
  served result is byte-identical to an undisturbed serial run;
* SIGTERM to an idle ``serve`` process drains cleanly and exits 0;
* SIGKILL of the **whole server** mid-job loses nothing: a restart on the
  same data dir requeues the interrupted job (``resumed`` is recorded),
  finishes it via the sweep journal, and serves the same bytes;
* a request **flood** against a tiny queue is shed with 429 + Retry-After,
  and every job that was accepted still completes — load shedding never
  turns into job loss.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from threading import Thread

import pytest

from repro.eval import cache as disk_cache
from repro.eval.experiments import clear_cache
from repro.eval.export import sweep_to_json
from repro.eval.sweep import run_sweep
from repro.robust import ProcessFaultPlan
from repro.robust.chaos import ServiceFaultPlan
from repro.service.app import ServiceConfig, SynthesisService, make_server
from repro.service.store import JobState

SPEC = {"experiments": ["fig6"], "filters": [0], "wordlengths": [8]}

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _pristine_caches():
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


def _serial_json(filters, wordlengths):
    clear_cache()
    disk_cache.configure(None)
    report = run_sweep(
        ["fig6"], filter_indices=filters, wordlengths=wordlengths
    )
    text = sweep_to_json(report.outcomes)
    clear_cache()
    return text


def request_json(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), json.loads(raw)
    finally:
        conn.close()


def _serve(config):
    """Start a server+engine; returns (server, service, port, stop)."""
    server, service = make_server(config)
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        service.drain(grace_s=60.0)

    return server, service, server.server_address[1], stop


def _wait_store_state(service, job_id, states, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        record = service.store.get(job_id)
        if record.state in states:
            return record
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} stuck in {record.state} after {timeout_s}s "
        f"(error: {record.error})"
    )


class TestWorkerKill:
    def test_worker_sigkill_mid_job_serves_identical_bytes(self, tmp_path):
        want = _serial_json([0], [8])
        # Every task's first attempt SIGKILLs its worker: each sweep sees
        # real BrokenProcessPool rebuilds and must still finish.
        chaos = ProcessFaultPlan(seed=7, kill_rate=1.0, kills_per_task=1)
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, sweep_jobs=2,
            max_retries=2, chaos=chaos,
            # Rebuilds are expected here; keep the breaker out of the way.
            breaker_threshold=1000,
        )
        _, service, port, stop = _serve(config)
        try:
            status, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
            assert status == 201
            record = _wait_store_state(
                service, view["job_id"], {JobState.COMPLETED, JobState.FAILED}
            )
            assert record.state == JobState.COMPLETED, record.error
            assert record.pool_rebuilds >= 1
            status, _, result = request_json(
                port, "GET", f"/v1/jobs/{record.job_id}/result"
            )
            assert status == 200
            assert json.dumps(result, indent=2, sort_keys=True) == want
        finally:
            stop()

    def test_repeated_rebuilds_trip_the_breaker(self, tmp_path):
        chaos = ProcessFaultPlan(seed=7, kill_rate=1.0, kills_per_task=1)
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, sweep_jobs=2,
            max_retries=2, chaos=chaos, breaker_threshold=1,
            breaker_cooldown_s=3600.0,
        )
        _, service, port, stop = _serve(config)
        try:
            status, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
            assert status == 201
            _wait_store_state(service, view["job_id"], {JobState.COMPLETED})
            # The completed job's rebuild count tripped the breaker; new
            # work is refused with 503 until the cooldown.
            assert service.breaker.state == "open"
            status, headers, body = request_json(
                port, "POST", "/v1/jobs",
                {"experiments": ["fig6"], "filters": [1], "wordlengths": [8]},
            )
            assert status == 503
            assert body["error"] == "CircuitOpen"
            assert "Retry-After" in headers
            # Existing results stay observable while the breaker is open.
            status, _, _ = request_json(
                port, "GET", f"/v1/jobs/{view['job_id']}/result"
            )
            assert status == 200
        finally:
            stop()


_CRASH_DRIVER = """
import sys
from repro.robust import ProcessFaultPlan
from repro.service.app import ServiceConfig, make_server

# Slow every task so the server is reliably mid-job when SIGKILLed.
config = ServiceConfig(
    data_dir=sys.argv[1], port=0, sweep_jobs=1,
    chaos=ProcessFaultPlan(seed=0, slow_rate=1.0, slow_s=0.5),
)
server, service = make_server(config)
print(f"PORT {server.server_address[1]}", flush=True)
server.serve_forever()
"""


class TestServerCrashRecovery:
    def test_server_sigkill_mid_job_restart_completes(self, tmp_path):
        want = _serial_json([0, 1], [8])
        spec = {"experiments": ["fig6"], "filters": [0, 1], "wordlengths": [8]}
        data_dir = tmp_path / "data"

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _CRASH_DRIVER, str(data_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("PORT "), line
            port = int(line.split()[1])
            status, _, view = request_json(port, "POST", "/v1/jobs", spec)
            assert status == 201
            job_id = view["job_id"]
            # Wait until the job is running and at least one task outcome
            # is durably journaled, then SIGKILL the whole server.
            journal_dir = data_dir / "journals"
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                _, _, current = request_json(port, "GET", f"/v1/jobs/{job_id}")
                journals = list(journal_dir.glob("sweep-*.wal"))
                if current["state"] == "running" and journals and (
                    journals[0].read_bytes().count(b"\n") >= 2
                ):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("server never journaled a task outcome")
        finally:
            proc.kill()  # SIGKILL: no drain, no atexit, no flushes
            proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()

        # Restart on the same data dir, chaos disabled: recovery must
        # requeue the interrupted job and the sweep journal must spare the
        # tasks that already landed.
        clear_cache()
        disk_cache.configure(None)
        service = SynthesisService(
            ServiceConfig(data_dir=data_dir, port=0, sweep_jobs=1)
        )
        try:
            record = service.store.get(job_id)
            assert record.state == JobState.QUEUED
            assert record.resumed is True
            service.start()
            record = _wait_store_state(
                service, job_id, {JobState.COMPLETED, JobState.FAILED}
            )
            assert record.state == JobState.COMPLETED, record.error
            assert record.resumed is True
            assert service.store.read_result(job_id) == want
        finally:
            service.drain(grace_s=60.0)


class TestRunningJobTermination:
    """The job deadline and cancellation bind *running* sweeps, not just
    queued ones: a multi-task sweep must stop within about one task budget
    of the deadline/cancel instead of occupying the dispatcher for
    N_tasks x task_deadline_s."""

    def test_job_deadline_expires_a_running_multitask_sweep(self, tmp_path):
        # Every task sleeps 1s and the job deadline is 1.2s, so the sweep
        # (several tasks, serial) cannot finish in time; the supervisor
        # must abort and the job must end expired — promptly.
        chaos = ProcessFaultPlan(seed=0, slow_rate=1.0, slow_s=1.0)
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, sweep_jobs=1, chaos=chaos,
        )
        _, service, port, stop = _serve(config)
        try:
            spec = dict(
                SPEC, filters=[0, 1], deadline_s=1.2, tenant="deadline"
            )
            status, _, view = request_json(port, "POST", "/v1/jobs", spec)
            assert status == 201
            started = time.monotonic()
            record = _wait_store_state(
                service, view["job_id"],
                {JobState.COMPLETED, JobState.FAILED, JobState.EXPIRED},
                timeout_s=60.0,
            )
            assert record.state == JobState.EXPIRED, record.error
            # Well under the ~N_tasks x task_deadline_s worst case.
            assert time.monotonic() - started < 30.0
        finally:
            stop()

    def test_cancel_stops_a_running_sweep_and_frees_the_dispatcher(
        self, tmp_path
    ):
        chaos = ProcessFaultPlan(seed=0, slow_rate=1.0, slow_s=1.0)
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, sweep_jobs=1, chaos=chaos,
        )
        _, service, port, stop = _serve(config)
        try:
            big = dict(SPEC, filters=[0, 1], tenant="cancel")
            _, _, view = request_json(port, "POST", "/v1/jobs", big)
            _wait_store_state(service, view["job_id"], {JobState.RUNNING})
            status, _, cancelled = request_json(
                port, "DELETE", f"/v1/jobs/{view['job_id']}"
            )
            assert status == 200 and cancelled["state"] == "cancelled"
            # The abort must free the (single) dispatcher: a small job
            # submitted after the cancel still completes.
            _, _, other = request_json(
                port, "POST", "/v1/jobs",
                dict(SPEC, filters=[2], tenant="after"),
            )
            record = _wait_store_state(
                service, other["job_id"],
                {JobState.COMPLETED, JobState.FAILED},
            )
            assert record.state == JobState.COMPLETED, record.error
            # The cancelled job stayed cancelled (the dispatcher's abort
            # transition lost cleanly to the client's cancel).
            assert service.store.get(view["job_id"]).state == (
                JobState.CANCELLED
            )
        finally:
            stop()


class TestDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.eval", "serve",
                "--data-dir", str(tmp_path / "data"), "--port", "0",
                "--drain-grace", "30",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving on" in line, line
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
            proc.stderr.close()


class TestFlood:
    def test_flood_sheds_with_429_and_loses_no_accepted_job(self, tmp_path):
        plan = ServiceFaultPlan(seed=3, flood_jobs=8, flood_tenants=2)
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, sweep_jobs=1,
            max_queue_depth=3, max_queue_depth_per_tenant=2,
        )
        _, service, port, stop = _serve(config)
        accepted, shed = [], 0
        try:
            for spec in plan.flood_specs():
                status, headers, view = request_json(
                    port, "POST", "/v1/jobs", dict(spec)
                )
                if status in (200, 201):
                    accepted.append(view["job_id"])
                else:
                    assert status == 429
                    assert int(headers["Retry-After"]) >= 1
                    shed += 1
            # A queue of 3 (2 per tenant) cannot hold an 8-job burst.
            assert shed >= 1
            assert accepted
            for job_id in accepted:
                record = _wait_store_state(
                    service, job_id, {JobState.COMPLETED, JobState.FAILED}
                )
                assert record.state == JobState.COMPLETED, record.error
        finally:
            stop()

    def test_flood_specs_are_deterministic_and_distinct(self):
        plan = ServiceFaultPlan(seed=3, flood_jobs=8, flood_tenants=2)
        first = plan.flood_specs()
        second = ServiceFaultPlan(seed=3, flood_jobs=8, flood_tenants=2)
        assert first == second.flood_specs()
        points = {
            (s["filters"][0], s["wordlengths"][0]) for s in first
        }
        assert len(points) == 8  # idempotent collapse cannot shrink a flood
        assert ServiceFaultPlan(seed=4).flood_specs() != first
