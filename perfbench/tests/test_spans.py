"""Self time on a hand-built span tree, and the recorder's record format."""

import math

import pytest

from perfbench import layers, spans


def _span(pid, span_id, parent, name, start, wall):
    return {"v": 1, "kind": "span", "pid": pid, "id": span_id, "parent": parent,
            "name": name, "t": start, "wall_s": wall, "cpu_s": wall,
            "status": "ok", "trace": "0" * 16, "tags": {}}


def tree():
    # main [0, 10): optimize [1, 7) with cover [1, 4) and forest [4.5, 6.5);
    # build [7, 9).  A second process holds an unrelated root of 3 s.
    return [
        _span(1, 1, None, "bench.main", 0.0, 10.0),
        _span(1, 2, 1, "core.mrp.optimize", 1.0, 6.0),
        _span(1, 3, 2, "graph.setcover.cover", 1.0, 3.0),
        _span(1, 4, 2, "graph.spanning.forest", 4.5, 2.0),
        _span(1, 5, 1, "graph.colored.build", 7.0, 2.0),
        _span(2, 1, None, "graph.setcover.cover", 0.0, 3.0),
    ]


def test_self_time_subtracts_the_time_children_cover():
    own = spans.self_times(tree())
    assert own[(1, 1)] == pytest.approx(2.0)   # 10 - 6 - 2
    assert own[(1, 2)] == pytest.approx(1.0)   # 6 - 3 - 2
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(2, 1)] == pytest.approx(3.0)   # same id, other process


def test_overlapping_children_are_counted_once():
    records = [
        _span(1, 1, None, "root", 0.0, 10.0),
        _span(1, 2, 1, "a", 1.0, 4.0),   # [1, 5)
        _span(1, 3, 1, "b", 3.0, 4.0),   # [3, 7), overlaps a
    ]
    assert spans.self_times(records)[(1, 1)] == pytest.approx(4.0)


def test_self_time_by_name_sums_across_processes():
    totals = spans.self_time_by_name(tree())
    assert totals["graph.setcover.cover"] == pytest.approx(6.0)
    assert totals["core.mrp.optimize"] == pytest.approx(1.0)


def test_layer_metrics_report_every_metric():
    counters = {"memory_hits": 3.0, "memory_misses": 1.0}
    metrics = layers.layer_metrics(
        tree(), counters, startup=(1.5, 1.2), unattributed_s=2.0, trace_overhead=1.02,
    )
    assert list(metrics) == [name for name, _ in layers.PER_LAYER]
    assert metrics["core.mrp.optimize_self_s"]["value"] == pytest.approx(1.0)
    assert metrics["graph.setcover.covers"]["value"] == 2
    assert metrics["eval.experiments.memory_hit_rate"]["value"] == 0.75
    assert metrics["fastpath.msd_hit_rate"]["value"] == 0.0
    assert all(math.isfinite(m["value"]) for m in metrics.values())


def test_covered_by_children():
    wall, covered = layers.covered_by_children(tree(), "bench.main")
    assert (wall, covered) == (10.0, 8.0)


def test_recorder_nests_and_writes_loadable_records(tmp_path):
    recorder = spans.Recorder("ab" * 8, tmp_path)
    inner = recorder.wrap(lambda x: x * 2, "inner")
    assert recorder.call("outer", lambda: inner(21)) == 42
    with pytest.raises(ValueError):
        recorder.call("failing", int, ("not a number",))
    recorder.write()
    records, counters = spans.read_dir(tmp_path)
    by_name = {r["name"]: r for r in records}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["failing"]["status"] == "error"
    assert counters == {}


def test_importtime_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       300 |        300 |       scipy.signal._a",
        "import time:       100 |     900000 |     scipy.signal._b",
        "import time:        50 |        200 |       scipy.signal._c",
        "import time:       500 |      50000 |     scipy.signal.windows",
        "import time:      1000 |    1200000 |   repro.filters",
        "import time:       400 |    1500000 | repro",
    ])
    assert layers.package_import_s(stderr, "repro") == 1.5
    assert layers.package_import_s(stderr, "scipy.signal") == pytest.approx(0.95)
    assert layers.package_import_s(stderr, "networkx") == 0.0
