"""End-to-end service tests over real HTTP against the stdlib server.

Two servers back these tests:

* a module-scoped **live server** with real dispatcher threads running
  real (restricted: fig6, filter 0, W=8) sweeps — exercises the full
  submit → run → result loop, idempotent resubmission, journal sharing,
  and artifact byte-identity against the ``export`` CLI;
* a function-scoped **idle server** whose engine is deliberately never
  started — no dispatcher consumes the queue, so admission control,
  cancellation, and state-dependent status codes can be tested
  deterministically.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import time
from http.server import ThreadingHTTPServer
from pathlib import Path
from threading import Thread

import pytest

from repro.errors import AdmissionRejected
from repro.eval import cache as disk_cache
from repro.eval.experiments import clear_cache
from repro.service.app import (
    ServiceConfig,
    ServiceHTTPHandler,
    SynthesisService,
    make_server,
)

SPEC = {"experiments": ["fig6"], "filters": [0], "wordlengths": [8]}
OTHER_SPEC = {"experiments": ["fig6"], "filters": [1], "wordlengths": [8]}


@pytest.fixture(autouse=True)
def _pristine_caches():
    clear_cache()
    disk_cache.configure(None)
    yield
    clear_cache()
    disk_cache.configure(None)


def request(port, method, path, body=None):
    """One HTTP request; returns (status, headers dict, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, dict(resp.getheaders()), raw.decode("utf-8")
    finally:
        conn.close()


def request_json(port, method, path, body=None):
    status, headers, raw = request(port, method, path, body)
    return status, headers, json.loads(raw)


def wait_for_state(port, job_id, states, timeout_s=90.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, _, view = request_json(port, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        if view["state"] in states:
            return view
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} did not reach {states} within {timeout_s}s "
        f"(last: {view['state']})"
    )


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("service-data")
    config = ServiceConfig(data_dir=data_dir, port=0, sweep_jobs=2)
    server, service = make_server(config)
    port = server.server_address[1]
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": port, "service": service, "config": config}
    server.shutdown()
    server.server_close()
    service.drain(grace_s=30.0)


@pytest.fixture()
def idle(tmp_path):
    """A served engine whose dispatchers were never started."""
    config = ServiceConfig(
        data_dir=tmp_path / "data", port=0, max_queue_depth=2,
        max_queue_depth_per_tenant=1,
    )
    service = SynthesisService(config)

    class _Handler(ServiceHTTPHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": server.server_address[1], "service": service}
    server.shutdown()
    server.server_close()
    service.store.close()


class TestHealthAndMetrics:
    def test_healthz(self, live):
        status, _, body = request(live["port"], "GET", "/healthz")
        assert status == 200 and body == "ok\n"

    def test_readyz_when_running(self, live):
        status, _, _ = request(live["port"], "GET", "/readyz")
        assert status == 200

    def test_readyz_unstarted_engine_is_not_ready(self, idle):
        status, _, _ = request(idle["port"], "GET", "/readyz")
        assert status == 503

    def test_metrics_exposition(self, live):
        status, headers, body = request(live["port"], "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "repro_service_admitted_total" in body
        assert 'repro_service_rejected_total{reason="queue_full"}' in body

    def test_unknown_route_404(self, live):
        status, _, _ = request(live["port"], "GET", "/nope")
        assert status == 404


class TestJobLifecycle:
    def test_submit_run_fetch_result(self, live):
        status, _, view = request_json(
            live["port"], "POST", "/v1/jobs", dict(SPEC)
        )
        assert status in (200, 201)  # 200 if an earlier test submitted it
        job_id = view["job_id"]
        final = wait_for_state(live["port"], job_id, {"completed", "failed"})
        assert final["state"] == "completed", final.get("error")
        status, _, raw = request(
            live["port"], "GET", f"/v1/jobs/{job_id}/result"
        )
        assert status == 200
        result = json.loads(raw)
        assert result["sweep"], "completed sweep returned an empty result"

    def test_fig7_beside_table1_at_w16_completes(self, live):
        # fig7 and table1 plan the same W=16 point with different depth
        # limits; the job must not fail while its sweep is planned.
        spec = {
            "experiments": ["fig7", "table1"], "filters": [1],
            "wordlengths": [8, 16],
        }
        _, _, view = request_json(live["port"], "POST", "/v1/jobs", spec)
        job_id = view["job_id"]
        final = wait_for_state(live["port"], job_id, {"completed", "failed"})
        assert final["state"] == "completed", final.get("error")
        _, _, result = request_json(
            live["port"], "GET", f"/v1/jobs/{job_id}/result"
        )
        assert [(e["experiment"], e["ok"]) for e in result["sweep"]] == [
            ("fig7", True), ("table1", True),
        ]

    def test_resubmission_is_idempotent(self, live):
        # Satellite: interleaved same-signature submissions collapse onto
        # one job and one sweep journal (journaled resume, not re-run).
        s1, _, v1 = request_json(live["port"], "POST", "/v1/jobs", dict(SPEC))
        s2, _, v2 = request_json(live["port"], "POST", "/v1/jobs", dict(SPEC))
        assert v1["job_id"] == v2["job_id"]
        assert s2 == 200  # the second observer never creates a new job
        wait_for_state(live["port"], v1["job_id"], {"completed"})
        s3, _, v3 = request_json(live["port"], "POST", "/v1/jobs", dict(SPEC))
        assert s3 == 200 and v3["state"] == "completed"
        # One journal per *signature*, however many submissions: the job id
        # and the journal share the signature prefix, and the total journal
        # count never exceeds the number of distinct jobs ever admitted.
        signature = v1["job_id"][len("job-"):]
        assert (
            live["config"].journal_dir / f"sweep-{signature}.wal"
        ).exists()
        _, _, overview = request_json(live["port"], "GET", "/v1/jobs")
        distinct = {j["job_id"] for j in overview["jobs"]}
        journals = list(live["config"].journal_dir.glob("sweep-*.wal"))
        assert len(journals) <= len(distinct)

    def test_distinct_specs_get_distinct_jobs(self, live):
        _, _, v1 = request_json(live["port"], "POST", "/v1/jobs", dict(SPEC))
        _, _, v2 = request_json(
            live["port"], "POST", "/v1/jobs", dict(OTHER_SPEC)
        )
        assert v1["job_id"] != v2["job_id"]
        wait_for_state(live["port"], v2["job_id"], {"completed"})

    def test_jobs_overview(self, live):
        request_json(live["port"], "POST", "/v1/jobs", dict(SPEC))
        status, _, overview = request_json(live["port"], "GET", "/v1/jobs")
        assert status == 200
        assert "counts" in overview and "queue_depth" in overview
        assert any(j["job_id"].startswith("job-") for j in overview["jobs"])

    def test_status_of_unknown_job_is_404(self, live):
        status, _, _ = request_json(
            live["port"], "GET", "/v1/jobs/job-doesnotexist"
        )
        assert status == 404

    def test_result_of_unfinished_job_is_409(self, idle):
        _, _, view = request_json(idle["port"], "POST", "/v1/jobs", dict(SPEC))
        status, _, _ = request_json(
            idle["port"], "GET", f"/v1/jobs/{view['job_id']}/result"
        )
        assert status == 409

    def test_cancel_queued_job(self, idle):
        _, _, view = request_json(idle["port"], "POST", "/v1/jobs", dict(SPEC))
        status, _, cancelled = request_json(
            idle["port"], "DELETE", f"/v1/jobs/{view['job_id']}"
        )
        assert status == 200 and cancelled["state"] == "cancelled"
        # Cancelling an already-cancelled job is an illegal transition.
        status, _, _ = request_json(
            idle["port"], "DELETE", f"/v1/jobs/{view['job_id']}"
        )
        assert status == 409
        # But resubmitting revives it as a fresh queued attempt.  The
        # cancelled job's stale in-memory queue entry still occupies its
        # original tenant's slot until a dispatcher pops and discards it
        # (there is none in this fixture), so revive under another tenant.
        status, _, again = request_json(
            idle["port"], "POST", "/v1/jobs", dict(SPEC, tenant="revive")
        )
        assert status == 201 and again["state"] == "queued"


class TestValidation:
    def test_malformed_json_400(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live["port"], timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body="{not json")
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_unknown_experiment_400(self, live):
        status, _, body = request_json(
            live["port"], "POST", "/v1/jobs", {"experiments": ["bogus"]}
        )
        assert status == 400 and body["error"] == "SpecError"

    def test_unknown_spec_key_400(self, live):
        status, _, _ = request_json(
            live["port"], "POST", "/v1/jobs",
            {"experiments": ["fig6"], "surprise": True},
        )
        assert status == 400

    def test_non_positive_deadline_400(self, live):
        status, _, _ = request_json(
            live["port"], "POST", "/v1/jobs",
            dict(SPEC, deadline_s=-5),
        )
        assert status == 400

    def test_over_ceiling_deadline_clamped_not_rejected(self, idle):
        status, _, view = request_json(
            idle["port"], "POST", "/v1/jobs",
            dict(SPEC, deadline_s=10_000_000),
        )
        assert status == 201
        assert view["clamped"] is True

    def test_bad_artifact_kind_400(self, live):
        status, _, _ = request_json(
            live["port"], "GET", "/v1/artifacts/vhdl?filter=0&wordlength=8"
        )
        assert status == 400

    def test_artifact_missing_param_400(self, live):
        status, _, _ = request_json(
            live["port"], "GET", "/v1/artifacts/verilog?filter=0"
        )
        assert status == 400


class TestAdmission:
    def test_queue_full_sheds_with_retry_after(self, idle):
        port, service = idle["port"], idle["service"]
        # No dispatcher is running, so these stay queued forever.
        service.queue.push("filler-a", "job-fill-1")
        service.queue.push("filler-b", "job-fill-2")
        status, headers, body = request_json(
            port, "POST", "/v1/jobs", dict(SPEC)
        )
        assert status == 429
        assert body["error"] == "AdmissionRejected"
        assert int(headers["Retry-After"]) >= 1

    def test_tenant_cap_sheds_only_that_tenant(self, idle):
        port, service = idle["port"], idle["service"]
        service.queue.push("greedy", "job-fill-1")
        status, _, _ = request_json(
            port, "POST", "/v1/jobs", dict(SPEC, tenant="greedy")
        )
        assert status == 429
        status, _, _ = request_json(
            port, "POST", "/v1/jobs", dict(SPEC, tenant="modest")
        )
        assert status == 201

    def test_observing_existing_job_bypasses_admission(self, idle):
        port, service = idle["port"], idle["service"]
        _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        # Saturate the queue after the job is in.
        service.queue.push("filler", "job-fill-1")
        with pytest.raises(AdmissionRejected):
            service.admission.admit("anyone")
        # Re-observing the existing job still succeeds (200, not 429).
        status, _, again = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        assert status == 200 and again["job_id"] == view["job_id"]

    def test_open_breaker_returns_503(self, idle):
        port, service = idle["port"], idle["service"]
        service.breaker.record_rebuilds(service.breaker.threshold)
        status, headers, body = request_json(
            port, "POST", "/v1/jobs", dict(OTHER_SPEC)
        )
        assert status == 503
        assert body["error"] == "CircuitOpen"
        assert "Retry-After" in headers


class TestArtifacts:
    def test_verilog_served_matches_cli_export_bytes(self, live, tmp_path):
        """The invariant the chaos suite leans on: service bytes == CLI bytes."""
        status, headers, served = request(
            live["port"], "GET",
            "/v1/artifacts/verilog?filter=0&wordlength=8",
        )
        assert status == 200
        assert "verilog" in headers["Content-Type"]
        out = tmp_path / "direct.v"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.eval", "export",
                "--format", "verilog", "--filters", "0",
                "--wordlengths", "8", "--output", str(out),
            ],
            capture_output=True, text=True, timeout=300,
            cwd=Path(__file__).resolve().parent.parent / "src",
        )
        assert proc.returncode == 0, proc.stderr
        assert served == out.read_text(encoding="utf-8")

    def test_c_and_dot_artifacts(self, live):
        for kind, marker in (("c", "int"), ("dot", "digraph")):
            status, _, body = request(
                live["port"], "GET",
                f"/v1/artifacts/{kind}?filter=0&wordlength=8",
            )
            assert status == 200 and marker in body

    def test_artifact_respects_representation_param(self, live):
        _, _, csd = request(
            live["port"], "GET",
            "/v1/artifacts/dot?filter=0&wordlength=8&representation=csd",
        )
        _, _, sm = request(
            live["port"], "GET",
            "/v1/artifacts/dot?filter=0&wordlength=8&representation=sm",
        )
        assert csd  # both generate; they may or may not differ structurally
        assert sm


@pytest.fixture()
def flaky_store(tmp_path):
    """An idle server whose first WAL append fails with ENOSPC."""
    from repro.robust.chaos import StoreFaultInjector

    config = ServiceConfig(
        data_dir=tmp_path / "data", port=0,
        store_chaos=StoreFaultInjector(seed=3, enospc_rate=1.0, max_faults=1),
    )
    service = SynthesisService(config)

    class _Handler(ServiceHTTPHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": server.server_address[1], "service": service}
    server.shutdown()
    server.server_close()
    service.store.close()


class TestStoreUnavailable:
    def test_enospc_submit_is_503_with_retry_after(self, flaky_store):
        port = flaky_store["port"]
        status, headers, body = request_json(
            port, "POST", "/v1/jobs", dict(SPEC)
        )
        assert status == 503
        assert body["error"] == "StoreUnavailable"
        assert float(headers["Retry-After"]) > 0.0
        # Never acknowledged: the job does not exist server-side.
        listing = request_json(port, "GET", "/v1/jobs")[2]
        assert listing["jobs"] == []
        # The injector spends its single fault above, so the client's
        # retry — the behavior Retry-After asks for — succeeds.
        status, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        assert status == 201 and view["state"] == "queued"


class TestLongPoll:
    def test_status_carries_etag_header(self, idle):
        port = idle["port"]
        _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        status, headers, polled = request_json(
            port, "GET", f"/v1/jobs/{view['job_id']}"
        )
        assert status == 200
        assert int(headers["ETag"]) == polled["revision"]

    def test_wait_with_stale_etag_returns_immediately(self, idle):
        port = idle["port"]
        _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        start = time.monotonic()
        status, _, polled = request_json(
            port, "GET", f"/v1/jobs/{view['job_id']}?wait=20&etag=0"
        )
        assert status == 200 and polled["revision"] == view["revision"]
        assert time.monotonic() - start < 5.0

    def test_wait_holds_until_transition(self, idle):
        port, service = idle["port"], idle["service"]
        _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        job_id, etag = view["job_id"], view["revision"]

        def nudge():
            time.sleep(0.2)
            service.store.transition(job_id, "running")

        nudger = Thread(target=nudge)
        nudger.start()
        start = time.monotonic()
        _, _, polled = request_json(
            port, "GET", f"/v1/jobs/{job_id}?wait=30&etag={etag}"
        )
        elapsed = time.monotonic() - start
        nudger.join()
        assert polled["state"] == "running"
        assert polled["revision"] > etag
        # Woken by the transition, not a 30s timeout.
        assert 0.1 < elapsed < 10.0

    def test_wait_clamped_to_server_ceiling(self, tmp_path):
        # A server configured with a tiny ceiling answers an absurd wait
        # after the clamped hold, never the requested one.
        config = ServiceConfig(
            data_dir=tmp_path / "data", port=0, long_poll_max_s=0.2,
        )
        service = SynthesisService(config)

        class _Handler(ServiceHTTPHandler):
            pass

        _Handler.service = service
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        server.daemon_threads = True
        Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        try:
            _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
            start = time.monotonic()
            status, _, _ = request_json(
                port, "GET",
                f"/v1/jobs/{view['job_id']}?wait=1e9&etag={view['revision']}",
            )
            assert status == 200
            assert 0.15 < time.monotonic() - start < 5.0
        finally:
            server.shutdown()
            server.server_close()
            service.store.close()

    def test_malformed_wait_is_400(self, idle):
        port = idle["port"]
        _, _, view = request_json(port, "POST", "/v1/jobs", dict(SPEC))
        status, _, body = request_json(
            port, "GET", f"/v1/jobs/{view['job_id']}?wait=soon"
        )
        assert status == 400 and body["error"] == "SpecError"


@pytest.fixture()
def roomy(tmp_path):
    """An idle server with queue room for several tenants' jobs."""
    config = ServiceConfig(
        data_dir=tmp_path / "data", port=0, max_queue_depth=32,
        max_queue_depth_per_tenant=32,
    )
    service = SynthesisService(config)

    class _Handler(ServiceHTTPHandler):
        pass

    _Handler.service = service
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": server.server_address[1], "service": service}
    server.shutdown()
    server.server_close()
    service.store.close()


class TestPagination:
    def _submit_n(self, port, n):
        ids = []
        for index in range(n):
            status, _, view = request_json(
                port, "POST", "/v1/jobs",
                {"experiments": ["fig6"], "filters": [0],
                 "wordlengths": [4 + index]},
            )
            assert status == 201, view
            ids.append(view["job_id"])
        return sorted(ids)

    def test_jobs_listing_pages_are_stable_and_complete(self, roomy):
        port = roomy["port"]
        ids = self._submit_n(port, 5)
        walked, cursor = [], None
        while True:
            path = "/v1/jobs?limit=2"
            if cursor:
                path += f"&cursor={cursor}"
            status, _, page = request_json(port, "GET", path)
            assert status == 200
            assert len(page["jobs"]) <= 2
            walked.extend(v["job_id"] for v in page["jobs"])
            cursor = page["next_cursor"]
            if not cursor:
                break
        assert walked == ids  # every job once, in stable sorted order
        # Counts describe the whole table, not the page.
        assert page["counts"]["queued"] == 5

    def test_artifact_catalog_pages(self, idle):
        port = idle["port"]
        status, _, first = request_json(port, "GET", "/v1/artifacts?limit=3")
        assert status == 200
        assert len(first["artifacts"]) == 3
        assert first["next_cursor"] == first["artifacts"][-1]["id"]
        status, _, rest = request_json(
            port, "GET",
            f"/v1/artifacts?limit=500&cursor={first['next_cursor']}",
        )
        assert status == 200
        ids = [e["id"] for e in first["artifacts"]] + [
            e["id"] for e in rest["artifacts"]
        ]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        # Every entry carries a ready-to-fetch URL.
        assert all(
            e["url"].startswith("/v1/artifacts/")
            for e in first["artifacts"]
        )

    def test_bad_limit_is_400(self, idle):
        status, _, body = request_json(
            idle["port"], "GET", "/v1/jobs?limit=0"
        )
        assert status == 400 and body["error"] == "SpecError"
        status, _, _ = request_json(
            idle["port"], "GET", "/v1/jobs?limit=banana"
        )
        assert status == 400
