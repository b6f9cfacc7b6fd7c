"""The tail-percentile rule and the sample count it reports."""

import math

from perfbench import common


def test_tail_needs_more_than_ten_samples():
    assert common.tail([1.0] * 10) is None
    assert common.tail([]) is None


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]  # 1..100
    value, percentile, beyond = common.tail(values)
    assert (value, percentile, beyond) == (90.0, 90.0, 10)
    assert sum(1 for v in values if v > value) == 10


def test_tail_of_eleven_is_the_lowest_sample():
    value, percentile, beyond = common.tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert beyond == 10
    assert math.isclose(percentile, 100.0 / 11)


def test_failures_count_as_missing_every_limit():
    values = [1.0] * 20 + [float("inf")] * 3
    value, percentile, beyond = common.tail(values)
    assert value == 1.0 and beyond == 10
    assert common.median(values) == 1.0


def test_median_even_and_odd():
    assert common.median([3.0, 1.0, 2.0]) == 2.0
    assert common.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_benchmark_json_matches_the_metrics_the_code_reports():
    import json

    from perfbench import layers

    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} == {"paper_sweep", "service_jobs", "cli_export"}
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"])


def test_interquartile_mean_trims_a_quarter_from_each_end():
    assert common.interquartile_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert common.interquartile_mean([5.0]) == 5.0
    values = [10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, float("inf")]
    assert common.interquartile_mean(values) == 4.5  # mean of 3, 4, 5, 6
