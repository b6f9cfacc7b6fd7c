"""Unit tests for the observability layer: tracer, metrics, reporting."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN_CONTEXT,
    TRACE_FORMAT_VERSION,
    JsonlSink,
    Tracer,
    format_breakdown,
    load_trace,
    phase_breakdown,
    validate_trace,
)
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test starts and ends with observability fully torn down."""
    obs.reset()
    yield
    obs.reset()


# --- tracer ------------------------------------------------------------------


def test_disabled_span_is_shared_noop_singleton():
    assert obs.span("anything", tag=1) is NULL_SPAN_CONTEXT
    with obs.span("anything") as sp:
        assert sp.set_tag("k", "v") is sp
        assert sp.elapsed() == 0.0
    obs.event("ignored", detail="dropped")  # must not raise


def test_tracer_emits_nested_spans_as_jsonl(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(path))
    with tracer.span("outer", filter="f0"):
        with tracer.span("inner", depth=1):
            tracer.event("marker", at="inner")
    tracer.close()

    records = load_trace(path)
    assert validate_trace(records) == []
    # Spans close inner-first; the event was written while inner was open.
    kinds = [(r["kind"], r["name"]) for r in records]
    assert kinds == [
        ("event", "marker"), ("span", "inner"), ("span", "outer"),
    ]
    event, inner, outer = records
    assert outer["parent"] is None
    assert inner["parent"] == outer["id"]
    assert event["parent"] == inner["id"]
    assert all(r["v"] == TRACE_FORMAT_VERSION for r in records)
    assert inner["tags"] == {"depth": 1}
    assert inner["wall_s"] >= 0.0 and inner["cpu_s"] >= 0.0
    # JSONL determinism: each line's keys are serialized sorted.
    for line in path.read_text().splitlines():
        keys = list(json.loads(line).keys())
        assert keys == sorted(keys)


def test_span_error_status_propagates_exception(tmp_path):
    tracer = Tracer(JsonlSink(tmp_path / "t.jsonl"))
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    tracer.close()
    (record,) = load_trace(tmp_path / "t.jsonl")
    assert record["status"] == "error"
    assert "ValueError" in record["error"]


def test_configure_enables_and_finalize_disables(tmp_path):
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.prom"
    obs.configure(trace_path=trace, metrics_path=metrics)
    assert obs.enabled() and obs.tracing_enabled()
    with obs.span("phase", x=1):
        pass
    written = obs.finalize()
    assert written == {"trace": str(trace), "metrics": str(metrics)}
    assert not obs.enabled()
    assert len(load_trace(trace)) == 1
    text = metrics.read_text()
    # Predeclared vocabulary is present even at zero.
    assert 'repro_tasks_total{status="quarantined"} 0' in text
    assert "repro_budget_expirations_total" in text


# --- metrics -----------------------------------------------------------------


def test_counter_gauge_histogram_exposition():
    reg = MetricsRegistry()
    reg.counter("jobs_total", kind="a").inc()
    reg.counter("jobs_total", kind="a").inc(2)
    reg.gauge("depth").set(7)
    reg.histogram("lat_seconds").observe(0.5)
    text = reg.exposition()
    assert '# TYPE jobs_total counter' in text
    assert 'jobs_total{kind="a"} 3' in text
    assert "depth 7" in text
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_count 1" in text
    # Exposition is byte-stable: series are sorted.
    assert text == reg.exposition()


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_snapshot_merge_adds_counters_and_maxes_gauges():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("tasks_total", status="ok").inc(3)
    b.counter("tasks_total", status="ok").inc(4)
    b.counter("tasks_total", status="failed").inc()
    a.gauge("peak").set(5)
    b.gauge("peak").set(9)
    a.histogram("t_seconds").observe(0.01)
    b.histogram("t_seconds").observe(10.0)

    a.merge(b.snapshot())
    assert a.counter_value("tasks_total", status="ok") == 7
    assert a.counter_value("tasks_total", status="failed") == 1
    assert a.gauge("peak").value == 9
    assert a.histogram("t_seconds").count == 2
    # Merge is built on the snapshot JSON round-trip used by worker spill.
    roundtrip = json.loads(json.dumps(a.snapshot()))
    c = MetricsRegistry()
    c.merge(roundtrip)
    assert c.counter_value("tasks_total", status="ok") == 7


def test_histogram_buckets_are_log_scale():
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
    ratios = {
        round(b / a) for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
    }
    assert ratios == {10}


# --- trace reporting ---------------------------------------------------------


def _span(name, span_id, parent, wall_s, cpu_s=0.0, pid=1):
    return {
        "v": TRACE_FORMAT_VERSION, "kind": "span", "name": name,
        "id": span_id, "parent": parent, "pid": pid, "t": 0.0,
        "wall_s": wall_s, "cpu_s": cpu_s, "status": "ok", "tags": {},
    }


def test_phase_breakdown_self_time_is_additive():
    records = [
        _span("child", 2, 1, wall_s=3.0),
        _span("root", 1, None, wall_s=10.0),
    ]
    stats = {s.name: s for s in phase_breakdown(records)}
    assert stats["root"].wall_s == pytest.approx(10.0)
    assert stats["root"].self_s == pytest.approx(7.0)
    assert stats["child"].self_s == pytest.approx(3.0)
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == pytest.approx(10.0)
    table = format_breakdown(phase_breakdown(records))
    assert "root" in table and "child" in table and "self_s" in table


def test_validate_trace_flags_corruption():
    good = [_span("a", 1, None, 1.0)]
    assert validate_trace(good) == []
    assert validate_trace([_span("a", 1, None, 1.0),
                           _span("b", 1, None, 1.0)])  # duplicate (pid, id)
    assert validate_trace([_span("a", 2, 99, 1.0)])  # dangling parent
    bad_version = _span("a", 1, None, 1.0)
    bad_version["v"] = TRACE_FORMAT_VERSION + 1
    assert validate_trace([bad_version])
    negative = _span("a", 1, None, -1.0)
    assert validate_trace([negative])


def test_load_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"v": 1}\nnot json\n')
    with pytest.raises(ValueError):
        load_trace(path)


# --- instrumentation hooks ---------------------------------------------------


def test_budget_heartbeat_and_expiration_counters(tmp_path):
    from repro.errors import BudgetExceeded
    from repro.robust.budget import HEARTBEAT_NODES, SolverBudget

    obs.configure(trace_path=tmp_path / "t.jsonl")
    reg = obs.metrics.DEFAULT_REGISTRY
    budget = SolverBudget(max_nodes=3 * HEARTBEAT_NODES)
    for _ in range(2):
        budget.spend(HEARTBEAT_NODES)
    assert reg.counter_value("repro_budget_heartbeats_total") == 2

    with pytest.raises(BudgetExceeded):
        budget.spend(2 * HEARTBEAT_NODES)
    assert reg.counter_value(
        "repro_budget_expirations_total", reason="nodes"
    ) == 1

    deadline = SolverBudget(
        deadline_s=0.0, clock=iter([0.0] + [1.0] * 8).__next__
    )
    with pytest.raises(BudgetExceeded):
        deadline.start().checkpoint()
    assert reg.counter_value(
        "repro_budget_expirations_total", reason="deadline"
    ) == 1
    events = [
        r for r in load_trace(obs.finalize()["trace"])
        if r["kind"] == "event" and r["name"] == "budget.heartbeat"
    ]
    assert len(events) == 3  # one per heartbeat threshold crossed


def test_degrade_attempts_record_duration_and_metrics():
    from repro.robust import RobustConfig
    from repro.robust import synthesize as robust_synthesize

    result = robust_synthesize(
        [7, 66, 17, 9, 27, 41, 56, 11], 8,
        config=RobustConfig(tiers=("greedy",)),
    )
    assert all(a.duration_s > 0.0 for a in result.attempts)
    reg = obs.metrics.DEFAULT_REGISTRY
    assert reg.counter_value(
        "repro_degrade_attempts_total", tier="greedy", outcome="ok"
    ) == 1


def test_synthesis_pipeline_produces_expected_span_taxonomy(tmp_path):
    from repro.core import synthesize_mrpf

    obs.configure(trace_path=tmp_path / "t.jsonl")
    synthesize_mrpf([7, 66, 17, 9, 27, 41, 56, 11], 8)
    records = load_trace(obs.finalize()["trace"])
    assert validate_trace(records) == []
    names = {r["name"] for r in records if r["kind"] == "span"}
    assert {"graph.build", "cover.greedy", "spanning.forest"} <= names


def test_synthesis_spans_carry_explanatory_counts(tmp_path):
    from repro.core import optimize

    obs.configure(trace_path=tmp_path / "t.jsonl")
    plan = optimize([7, 66, 17, 9, 27, 41, 56, 11], 8)
    records = load_trace(obs.finalize()["trace"])
    tags = {r["name"]: r["tags"] for r in records if r["kind"] == "span"}
    build = tags["graph.build"]
    assert build["table_keys"] == build["colors"] == len(plan.graph.colors)
    assert tags["cover.greedy"]["picks"] == len(plan.cover.steps)
    materialized = tags["spanning.forest"]["edges_materialized"]
    assert materialized == plan.graph.edges_materialized
    assert 0 < materialized < build["edges"]


# --- trace-context propagation ----------------------------------------------


def test_traceparent_round_trip_and_malformed_headers():
    ctx = obs.TraceContext(obs.make_trace_id(), (4242, 17))
    assert obs.parse_traceparent(obs.format_traceparent(ctx)) == ctx
    linkless = obs.TraceContext("ab" * 8, None)
    assert obs.parse_traceparent(obs.format_traceparent(linkless)) == linkless
    # Malformed headers parse to None — a bad client header must never
    # become a server-side exception.
    for header in (None, "", "r1", "r1-", "00-abc-def-01", "r1-x-y",
                   "r1-tid-12", "r1-tid-pid-span", "r1-tid-12-34-56"):
        assert obs.parse_traceparent(header) is None


def test_root_span_emits_trace_and_link_children_inherit(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer(JsonlSink(path), trace_id="feed" * 4)
    ctx = obs.TraceContext("dead" * 4, (999, 3))
    with tracer.adopt(ctx):
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("mark")
    with tracer.span("after"):
        pass  # adoption ended — back to the tracer's own trace id
    tracer.close()

    records = load_trace(path)
    assert validate_trace(records) == []
    by_name = {r["name"]: r for r in records}
    assert by_name["outer"]["trace"] == "dead" * 4
    assert by_name["outer"]["link"] == [999, 3]
    # Children and events inherit the trace id but never carry the link:
    # only the root edge crosses a process boundary.
    assert by_name["inner"]["trace"] == "dead" * 4
    assert "link" not in by_name["inner"]
    assert by_name["mark"]["trace"] == "dead" * 4
    assert by_name["after"]["trace"] == "feed" * 4
    assert "link" not in by_name["after"]


def test_adopting_none_resets_to_tracer_default():
    """Keep-alive HTTP threads re-adopt per request; None must reset."""
    tracer = Tracer(JsonlSink("/dev/null"), trace_id="aa" * 8)
    with tracer.adopt(obs.TraceContext("bb" * 8, (1, 1))):
        assert tracer.current_context().trace_id == "bb" * 8
        with tracer.adopt(None):
            assert tracer.current_context().trace_id == "aa" * 8
        assert tracer.current_context().trace_id == "bb" * 8
    assert tracer.current_context().trace_id == "aa" * 8
    tracer.close()


def test_current_context_inside_span_links_to_that_span(tmp_path):
    tracer = Tracer(JsonlSink(tmp_path / "t.jsonl"), trace_id="cc" * 8)
    import os as os_mod
    with tracer.span("outer"):
        ctx = tracer.current_context()
        assert ctx.trace_id == "cc" * 8
        assert ctx.link == (os_mod.getpid(), 1)
    tracer.close()


def test_disabled_obs_propagation_is_inert():
    """With no tracer configured the propagation surface all no-ops."""
    assert obs.current_traceparent() is None
    assert obs.current_context() is None
    with obs.trace_context(("ab" * 8, [1, 2])):
        assert obs.span("x") is NULL_SPAN_CONTEXT
    obs.flush()  # must not raise


def test_worker_args_round_trip_preserves_context(tmp_path):
    """worker_args → worker_configure hands the job's context to workers."""
    import os as os_mod

    obs.configure(trace_path=tmp_path / "parent.jsonl")
    with obs.span("sweep.wave"):
        spill, want_trace, ctx = obs.worker_args()
    assert want_trace and ctx[0] is not None
    assert ctx[1] == [os_mod.getpid(), 1]
    parent_trace = ctx[0]
    obs.finalize()

    obs.worker_configure((spill, want_trace, ctx))
    with obs.span("sweep.task"):
        pass
    obs.reset()
    (spill_file,) = list(tmp_path.glob("**/trace-*.jsonl"))
    (task,) = [r for r in load_trace(spill_file) if r["kind"] == "span"]
    assert task["trace"] == parent_trace
    assert task["link"] == [os_mod.getpid(), 1]


def test_worker_configure_accepts_legacy_two_tuple(tmp_path):
    spill = tmp_path / "spill"
    spill.mkdir()
    obs.worker_configure((str(spill), True))
    with obs.span("sweep.task"):
        pass
    obs.reset()
    (spill_file,) = list(spill.glob("trace-*.jsonl"))
    (task,) = [r for r in load_trace(spill_file) if r["kind"] == "span"]
    assert task["trace"] is not None and "link" not in task


# --- torn-tail tolerance -----------------------------------------------------


def test_load_trace_torn_tail_needs_opt_in(tmp_path):
    good = json.dumps(_span("a", 1, None, 1.0))
    path = tmp_path / "torn.jsonl"
    path.write_text(good + "\n" + good[: len(good) // 2])
    with pytest.raises(ValueError):
        load_trace(path)  # strict by default: CI wants torn files loud
    records = load_trace(path, allow_torn_tail=True)
    assert [r["name"] for r in records] == ["a"]


def test_load_trace_torn_middle_line_always_fatal(tmp_path):
    """Only the *final* line may be torn — a mid-file tear is corruption."""
    good = json.dumps(_span("a", 1, None, 1.0))
    path = tmp_path / "corrupt.jsonl"
    path.write_text(good[: len(good) // 2] + "\n" + good + "\n")
    with pytest.raises(ValueError):
        load_trace(path, allow_torn_tail=True)


# --- link validation ---------------------------------------------------------


def _linked(name, span_id, parent, wall_s, pid=1, trace="ab" * 8, link=None):
    rec = _span(name, span_id, parent, wall_s, pid=pid)
    rec["trace"] = trace
    if link is not None:
        rec["link"] = link
    return rec


def test_validate_trace_link_rules():
    # A resolvable cross-process link is fine.
    ok = [
        _linked("client.request", 1, None, 1.0, pid=10),
        _linked("service.request", 1, None, 0.5, pid=20, link=[10, 1]),
    ]
    assert validate_trace(ok) == []
    # A link into a pid that *is* present but names a missing span is
    # corruption; a link into an absent pid just means that process's
    # file was not merged in.
    dangling = [
        _linked("client.request", 1, None, 1.0, pid=10),
        _linked("service.request", 1, None, 0.5, pid=20, link=[10, 99]),
    ]
    assert validate_trace(dangling)
    absent_pid = [
        _linked("service.request", 1, None, 0.5, pid=20, link=[77, 1]),
    ]
    assert validate_trace(absent_pid) == []
    # Links belong on roots only — the link *is* the parent edge.
    non_root = [
        _linked("outer", 1, None, 1.0),
        _linked("inner", 2, 1, 0.5, link=[10, 1]),
    ]
    assert validate_trace(non_root)


# --- timeline / critical path / chrome export --------------------------------


def _job_fixture():
    """A three-process trace: client → service → two pool sweep.tasks."""
    client = _linked("client.request", 1, None, 10.0, pid=10, trace="f" * 16)
    request = dict(
        _linked("service.request", 7, None, 0.2, pid=20, trace="f" * 16,
                link=[10, 1]),
        t=0.2, tags={"route": "/v1/jobs", "method": "POST"},
    )
    job = dict(
        _linked("service.job", 1, None, 9.0, pid=20, trace="f" * 16,
                link=[10, 1]),
        t=0.5, tags={"job_id": "job-x", "tenant": "t"},
    )
    wave = dict(
        _linked("sweep.wave", 2, 1, 8.0, pid=20, trace="f" * 16), t=1.0
    )
    task_a = dict(
        _linked("sweep.task", 1, None, 3.0, pid=30, trace="f" * 16,
                link=[20, 2]), t=1.5
    )
    task_b = dict(
        _linked("sweep.task", 1, None, 4.0, pid=31, trace="f" * 16,
                link=[20, 2]), t=4.8
    )
    return [client, request, job, wave, task_a, task_b]


def test_build_timeline_orders_and_indents_the_forest():
    from repro.obs.report import build_timeline, format_timeline

    rows = build_timeline(_job_fixture())
    assert [r["name"] for r in rows] == [
        "client.request", "service.request", "service.job", "sweep.wave",
        "sweep.task", "sweep.task",
    ]
    assert [r["depth"] for r in rows] == [0, 1, 1, 2, 3, 3]
    rendered = format_timeline(rows)
    assert "sweep.task" in rendered and "client.request" in rendered


def test_critical_path_partitions_the_root_wall_clock():
    from repro.obs.report import critical_path

    result = critical_path(_job_fixture())
    # Default root is the longest service.job span, not the client span.
    assert result["root"]["name"] == "service.job"
    segments = result["segments"]
    assert segments, "critical path must be non-empty"
    # Segments tile the root's wall-clock exactly: chronological, gapless,
    # with offsets relative to the root's own start.
    assert segments[0]["start_s"] == pytest.approx(0.0)
    assert segments[-1]["end_s"] == pytest.approx(9.0)
    for a, b in zip(segments, segments[1:]):
        assert a["end_s"] == pytest.approx(b["start_s"])
    assert sum(result["phases"].values()) == pytest.approx(9.0)
    # The long tail task dominates the path; the shadowed one is absent.
    assert any(s["name"] == "sweep.task" and s["pid"] == 31
               for s in segments)


def test_job_trace_continuity_and_filtering():
    from repro.obs.report import (
        filter_trace, job_trace_continuity, trace_id_for_job,
    )

    records = _job_fixture()
    assert trace_id_for_job(records, "job-x") == "f" * 16
    assert len(filter_trace(records, "f" * 16)) == 6
    assert job_trace_continuity(records, "job-x") == []
    assert job_trace_continuity(records, "job-missing")
    # Drop the wave span: the tasks' links dangle into a present pid.
    broken = [r for r in records if r["name"] != "sweep.wave"]
    assert job_trace_continuity(broken, "job-x")


def test_chrome_export_round_trips_and_scales_to_microseconds():
    from repro.obs.report import to_chrome_trace

    payload = json.loads(json.dumps(to_chrome_trace(_job_fixture())))
    events = payload["traceEvents"]
    assert len(events) == 6
    assert {e["ph"] for e in events} == {"X"}
    first = events[0]
    assert first["ts"] == 0  # rebased to the earliest span start
    assert first["dur"] == pytest.approx(10.0 * 1e6)
    assert all(e["args"]["trace"] == "f" * 16 for e in events)


# --- span profiler -----------------------------------------------------------


def test_profiler_samples_every_nth_span(tmp_path):
    obs.configure(trace_path=tmp_path / "t.jsonl")
    profiler = obs.enable_profile("hot.phase", tmp_path / "prof", every=2)
    for _ in range(4):
        with obs.span("hot.phase"):
            sum(range(100))
        with obs.span("cold.phase"):
            pass
    obs.finalize()
    captures = sorted((tmp_path / "prof").glob("*.pstats"))
    assert len(captures) == 2  # spans 1 and 3 of 4, every=2
    assert profiler.captured == 2
    assert all(p.name.startswith("profile-hot.phase-") for p in captures)
    import pstats
    stats = pstats.Stats(str(captures[0]))
    assert stats.total_calls > 0


def test_abandoned_sink_never_flushes_inherited_buffer(tmp_path):
    """A forked child must not replay the parent's unflushed records.

    Regression: ``abandon()`` used to drop the handle without neutralizing
    it, so the child's file-object destructor flushed the inherited buffer
    into the shared trace file — duplicating every pending record once per
    pool worker (seen as duplicate ``(pid, id)`` pairs in service traces).
    """
    import os

    path = tmp_path / "t.jsonl"
    tracer = Tracer(JsonlSink(path))
    with tracer.span("parent.work"):
        pass  # buffered, FLUSH_EVERY not reached — nothing on disk yet
    assert path.read_text(encoding="utf-8") == ""

    pid = os.fork()
    if pid == 0:  # child: the pool-initializer discipline, then hard exit
        tracer.sink.abandon()
        del tracer
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0

    tracer.close()
    records = [json.loads(line) for line in path.read_text(
        encoding="utf-8").splitlines()]
    assert [r["name"] for r in records] == ["parent.work"]
