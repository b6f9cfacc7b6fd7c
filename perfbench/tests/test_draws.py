"""The seeded, banded draws: deterministic per seed, inside their bands."""

from perfbench import draws


def test_job_specs_are_deterministic_distinct_and_banded():
    first = draws.job_specs(7, 200)
    assert first == draws.job_specs(7, 200)
    assert first != draws.job_specs(8, 200)
    assert len({draws.spec_key(s) for s in first}) == 200
    for spec in first:
        assert 1 <= len(spec["experiments"]) <= 2
        assert set(spec["experiments"]) <= set(draws.EXPERIMENTS)
        assert 1 <= len(spec["filters"]) <= 2
        assert set(spec["filters"]) <= set(draws.BANDS[0] + draws.BANDS[1])
        assert 1 <= len(spec["wordlengths"]) <= 2
        assert set(spec["wordlengths"]) <= {8, 12, 16}


def test_job_draw_keeps_the_planner_crash_at_its_natural_rate():
    # No spec is filtered out: the known planner crash keeps showing.
    specs = draws.job_specs(1, 500)
    assert any(draws.plan_crashes(s) for s in specs)
    assert any(16 in s["wordlengths"] for s in specs)


def test_plan_crash_predicate():
    assert draws.plan_crashes({"experiments": ["fig7", "table1"], "filters": [0],
                               "wordlengths": [16]})
    assert draws.plan_crashes({"experiments": ["summary", "table1"], "filters": [0],
                               "wordlengths": [8, 16]})
    assert not draws.plan_crashes({"experiments": ["fig7", "table1"], "filters": [0],
                                   "wordlengths": [8, 12]})
    assert not draws.plan_crashes({"experiments": ["fig6", "table1"], "filters": [0],
                                   "wordlengths": [16]})


def test_export_points_are_deterministic_and_in_the_small_band():
    points = draws.export_points(3, 100)
    assert points == draws.export_points(3, 100)
    assert points != draws.export_points(4, 100)
    assert set(points) <= set(draws.all_export_points())
    assert len(draws.all_export_points()) == 24


def test_paper_order_is_a_seeded_permutation():
    assert sorted(draws.paper_order(5)) == sorted(draws.PAPER_FILTERS)
    assert draws.paper_order(5) == draws.paper_order(5)
    assert len({draws.paper_order(seed) for seed in range(20)}) > 1


def test_design_points():
    assert draws.design_points(draws.EXPERIMENTS, (0,), (8, 12, 16, 20)) == 34
    assert draws.design_points(["fig6"], (0, 1), (8,)) == 4
    assert draws.design_points(["summary"], (0,), (8,)) == 8
    assert draws.design_points(["fig7", "table1"], (0,), (16,)) == 4
