"""Micro-benchmarks: synthesis throughput of each pipeline stage.

These are genuine timing benchmarks (multiple rounds) rather than one-shot
table regenerations: graph construction, the greedy cover alone (array
cover and the reference loop), greedy cover + forest, full MRPF
lowering, CSE, and the bit-exact verifier — so performance regressions in the
core algorithms are visible.

The stage operations themselves are exposed through :func:`stage_operations`
so other harnesses (notably ``benchmarks/bench_sweep_parallel.py``, the
regression gate) can time exactly the same work without pytest-benchmark.
"""

import pytest

from repro.baselines import synthesize_cse_filter
from repro.core import MrpOptions, lower_plan, optimize, synthesize_mrpf
from repro.core.sidc import normalize_taps
from repro.graph import build_colored_graph, greedy_weighted_set_cover
from repro.graph.colored import _build_edges
from repro.graph.setcover import _greedy_cover_reference
from repro.filters import benchmark_suite
from repro.numrep import Representation, enumerate_msd, msd, oddpart
from repro.quantize import ScalingScheme, quantize
from repro.verify import release_audit
from repro.verify.structure import audit_structure

WORDLENGTH = 16


def medium_filter_integers(wordlength: int = WORDLENGTH):
    """The mid-size band-stop benchmark filter, quantized — the shared
    workload for every stage benchmark."""
    designed = benchmark_suite()[4]
    return quantize(designed.folded, wordlength, ScalingScheme.UNIFORM).integers


def stage_operations(integers=None, wordlength: int = WORDLENGTH):
    """Named zero-argument operations, one per pipeline stage.

    Each callable performs exactly the work the corresponding pytest
    benchmark below times, against a shared precomputed context (graph,
    plan, architecture), so a caller can measure per-stage cost with any
    timer it likes.
    """
    if integers is None:
        integers = medium_filter_integers(wordlength)
    integers = list(integers)
    vertices, _ = normalize_taps(integers)
    graph = build_colored_graph(vertices, wordlength)
    plan = optimize(integers, wordlength, MrpOptions(), graph)
    arch = synthesize_mrpf(integers, wordlength, verify=False)
    samples = list(range(-32, 32))

    # The coefficient odd-part population a sweep would enumerate MSD sets
    # for; warmed once up front so "msd_enumeration_warm" measures table
    # hits regardless of which stage a harness times first.
    msd_values = sorted({abs(oddpart(v)) for v in integers if v})
    msd.warm_msd_tables(msd_values)

    def graph_reference():
        # The edge-by-edge reference loop, so the fused/reference ratio
        # stays measurable as a gated metric.
        return _build_edges(
            sorted(set(vertices)), wordlength, Representation.CSD, None
        )

    # The cover's input as plain dicts, the way the reference loop takes it.
    table = graph.cover_table
    universe = set(vertices)
    color_sets = {color: graph.color_set(color) for color in graph.colors}
    color_costs = {color: float(graph.color_cost(color)) for color in graph.colors}

    def msd_cold():
        msd.clear_tables()
        for value in msd_values:
            enumerate_msd(value)

    def msd_warm():
        for value in msd_values:
            enumerate_msd(value)

    return {
        "graph_construction": lambda: build_colored_graph(vertices, wordlength),
        "graph_construction_reference": graph_reference,
        "msd_enumeration_cold": msd_cold,
        "msd_enumeration_warm": msd_warm,
        "cover": lambda: greedy_weighted_set_cover(
            universe, table, table.cost_map
        ),
        "cover_reference": lambda: _greedy_cover_reference(
            universe, color_sets, color_costs, 0.5, None, "benefit", None
        ),
        "cover_and_forest": lambda: optimize(
            integers, wordlength, MrpOptions(), graph
        ),
        "full_synthesis": lambda: synthesize_mrpf(
            integers, wordlength, None, "none", False
        ),
        "cse_baseline": lambda: synthesize_cse_filter(integers),
        "verification": lambda: arch.verify(samples),
        "plan_lowering": lambda: lower_plan(plan),
        "release_audit": lambda: release_audit(
            arch.netlist, arch.tap_names, arch.coefficients
        ),
        "structure_audit": lambda: audit_structure(
            arch.netlist, arch.tap_names
        ),
    }


@pytest.fixture(scope="module")
def stage_ops():
    return stage_operations()


@pytest.mark.benchmark(group="speed")
def test_speed_graph_construction(benchmark, stage_ops):
    graph = benchmark(stage_ops["graph_construction"])
    assert graph.num_edges > 0


@pytest.mark.benchmark(group="speed")
def test_speed_graph_construction_reference(benchmark, stage_ops):
    graph = benchmark(stage_ops["graph_construction_reference"])
    assert graph.num_edges > 0


@pytest.mark.benchmark(group="speed")
def test_speed_msd_enumeration_cold(benchmark, stage_ops):
    benchmark(stage_ops["msd_enumeration_cold"])
    assert msd.table_stats()["entries"] > 0


@pytest.mark.benchmark(group="speed")
def test_speed_msd_enumeration_warm(benchmark, stage_ops):
    before = msd.table_stats()["hits"]
    benchmark(stage_ops["msd_enumeration_warm"])
    assert msd.table_stats()["hits"] > before


@pytest.mark.benchmark(group="speed")
def test_speed_cover(benchmark, stage_ops):
    cover = benchmark(stage_ops["cover"])
    assert cover.steps


@pytest.mark.benchmark(group="speed")
def test_speed_cover_reference(benchmark, stage_ops):
    cover = benchmark(stage_ops["cover_reference"])
    assert cover.steps == stage_ops["cover"]().steps


@pytest.mark.benchmark(group="speed")
def test_speed_cover_and_forest(benchmark, stage_ops):
    plan = benchmark(stage_ops["cover_and_forest"])
    assert plan.seed


@pytest.mark.benchmark(group="speed")
def test_speed_full_mrpf_synthesis(benchmark, stage_ops):
    arch = benchmark(stage_ops["full_synthesis"])
    assert arch.adder_count > 0


@pytest.mark.benchmark(group="speed")
def test_speed_cse_baseline(benchmark, stage_ops):
    arch = benchmark(stage_ops["cse_baseline"])
    assert arch.adder_count > 0


@pytest.mark.benchmark(group="speed")
def test_speed_verification(benchmark, stage_ops):
    benchmark(stage_ops["verification"])


@pytest.mark.benchmark(group="speed")
def test_speed_plan_lowering(benchmark, stage_ops):
    arch = benchmark(stage_ops["plan_lowering"])
    assert arch.adder_count > 0


@pytest.mark.benchmark(group="speed")
def test_speed_structure_audit(benchmark, stage_ops):
    report = benchmark(stage_ops["structure_audit"])
    assert report.num_adders > 0


@pytest.mark.benchmark(group="speed")
def test_speed_release_audit(benchmark, stage_ops):
    benchmark(stage_ops["release_audit"])
