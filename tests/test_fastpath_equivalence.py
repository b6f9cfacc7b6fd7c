"""Equivalence lockdown for the fast synthesis kernels.

Each fast kernel replaces a reference implementation that stays in the tree;
this suite holds the two ends of each pair to element-identical output —
same edges in the same order, same enumerations, same costs, same budget
charging — under hypothesis-randomized coefficient sets, wordlengths, and
shift ranges:

* :func:`~repro.graph.colored.build_colored_graph` (one fused pure-python
  pass) against the edge-by-edge reference loop
  :func:`~repro.graph.colored._build_edges`;
* the popcount identity of :func:`~repro.numrep.csd_nonzero_count` against
  counting the digits of :func:`~repro.numrep.encode_csd`;
* the memoized MSD table of :mod:`repro.numrep.msd` against a cold search.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceeded, GraphError
from repro.eval import cache as disk_cache
from repro.eval import experiments
from repro.graph.colored import _build_edges, build_colored_graph
from repro.numrep import (
    Representation,
    binary_nonzero_count,
    csd_nonzero_count,
    digit_cost,
    encode,
    encode_binary,
    encode_csd,
    enumerate_msd,
    msd,
    msd_count,
    oddpart,
)
from repro.robust.budget import SolverBudget

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

# Odd positive vertex mantissas in the range real quantized coefficients
# occupy (<= 24-bit wordlengths).
ODD_VERTEX = st.integers(min_value=0, max_value=(1 << 22) - 1).map(
    lambda n: 2 * n + 1
)
# Odd vertices around 2**60, where a fixed-width int64 kernel would overflow
# (``3 * xi`` past 2**63); a set mixing both draws straddles that bound.
WIDE_ODD_VERTEX = st.integers(min_value=1 << 56, max_value=1 << 61).map(
    lambda n: 2 * n + 1
)
VERTEX_SETS = st.lists(
    st.one_of(ODD_VERTEX, WIDE_ODD_VERTEX), min_size=0, max_size=8, unique=True
)
SHIFTS = st.integers(min_value=0, max_value=10)
REPRESENTATIONS = st.sampled_from([Representation.CSD, Representation.SM])
MSD_VALUES = st.integers(min_value=-(2**12), max_value=2**12)


@pytest.fixture(autouse=True)
def _empty_msd_table():
    """Each test starts and ends with an empty MSD table."""
    msd.clear_tables()
    yield
    msd.clear_tables()


def assert_graphs_identical(reference, candidate):
    """Element-identical: same indices, same edges, same *order* per color.

    Order matters because downstream spanning-tree tie-breaking walks each
    color's edge list in sequence; equality as sets would not pin exported
    artifacts.
    """
    assert candidate.vertices == reference.vertices
    assert candidate.representation is reference.representation
    assert candidate.max_shift == reference.max_shift
    assert candidate.num_edges == reference.num_edges
    assert candidate.colors == reference.colors
    for color in reference.colors:
        assert candidate.edges_of_color(color) == reference.edges_of_color(color)
        assert candidate.color_set(color) == reference.color_set(color)
        assert candidate.color_cost(color) == reference.color_cost(color)
    for vertex in reference.vertices:
        assert candidate.colors_of_vertex(vertex) == (
            reference.colors_of_vertex(vertex)
        )
        assert candidate.edges_into(vertex, reference.colors) == (
            reference.edges_into(vertex, reference.colors)
        )


class TestDigitCostKernels:
    def test_csd_popcount_identity_exhaustive(self):
        for value in range(-(2**16) + 1, 2**16):
            assert csd_nonzero_count(value) == encode_csd(value).nonzero_count

    @given(
        st.integers(min_value=2**16, max_value=2**80),
        st.sampled_from([1, -1]),
    )
    def test_csd_popcount_identity(self, magnitude, sign):
        value = sign * magnitude
        assert csd_nonzero_count(value) == encode_csd(value).nonzero_count

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_sm_cost(self, value):
        assert binary_nonzero_count(value) == encode_binary(value).nonzero_count

    @given(st.integers(min_value=1, max_value=2**40), REPRESENTATIONS)
    def test_dispatch_matches_reference(self, value, representation):
        assert digit_cost(value, representation) == (
            encode(value, representation).nonzero_count
        )


class TestGraphKernelEquivalence:
    @given(VERTEX_SETS, SHIFTS, REPRESENTATIONS)
    @example([], 4, Representation.CSD)
    @example([45], 4, Representation.CSD)
    @example([(1 << 58) + 1, 3], 3, Representation.SM)
    @settings(max_examples=60)
    def test_python_kernel_matches_reference(self, vertices, max_shift, rep):
        reference = _build_edges(sorted(set(vertices)), max_shift, rep, None)
        assert_graphs_identical(
            reference, build_colored_graph(vertices, max_shift, rep)
        )

    @given(
        st.lists(ODD_VERTEX, min_size=1, max_size=8, unique=True),
        SHIFTS,
        REPRESENTATIONS,
    )
    @settings(max_examples=40)
    def test_numpy_kernel_matches_reference(self, vertices, max_shift, rep):
        """Realistic (<= 24-bit) vertex sets, the inputs a vectorized int64
        kernel was once used for, build the reference graph."""
        vertex_list = sorted(set(vertices))
        reference = _build_edges(vertex_list, max_shift, rep, None)
        assert_graphs_identical(
            reference, build_colored_graph(vertex_list, max_shift, rep)
        )

    def test_numpy_kernel_drops_to_python_past_int64(self):
        """``3 * xi`` for these vertices overflows int64; the builder works
        on python ints and must still match the reference exactly."""
        huge = [(1 << 61) + 1, 3]
        reference = _build_edges(sorted(huge), 2, Representation.CSD, None)
        assert_graphs_identical(
            reference, build_colored_graph(huge, 2, Representation.CSD)
        )

    @pytest.mark.parametrize(
        "builder",
        [
            build_colored_graph,
            lambda vs, shift: _build_edges(vs, shift, Representation.CSD, None),
        ],
        ids=["python", "reference"],
    )
    def test_rejects_invalid_vertices(self, builder):
        with pytest.raises(GraphError):
            builder([4], 2)
        with pytest.raises(GraphError):
            builder([-3, 5], 2)


class TestGraphBudgetEquivalence:
    VERTICES = [3, 5, 7, 9, 11]

    def _spent_at_failure(self, builder):
        budget = SolverBudget(max_nodes=4).start()
        with pytest.raises(BudgetExceeded):
            builder(budget)
        return budget.nodes_used

    def test_kernels_charge_budget_like_reference(self):
        reference = self._spent_at_failure(
            lambda b: _build_edges(self.VERTICES, 4, Representation.CSD, b)
        )
        fused = self._spent_at_failure(
            lambda b: build_colored_graph(
                self.VERTICES, 4, Representation.CSD, budget=b
            )
        )
        assert fused == reference

    def test_sufficient_budget_builds_identical_graph(self):
        def budget():
            return SolverBudget(max_nodes=10_000).start()

        reference = _build_edges(
            self.VERTICES, 4, Representation.CSD, budget()
        )
        fused = build_colored_graph(
            self.VERTICES, 4, Representation.CSD, budget=budget()
        )
        assert_graphs_identical(reference, fused)


class TestMsdTableEquivalence:
    @given(MSD_VALUES)
    @settings(max_examples=40)
    def test_memoized_matches_reference(self, value):
        msd.clear_tables()
        reference = enumerate_msd(value)  # miss: a cold search fills the table
        assert enumerate_msd(value) == reference  # hit: served from it
        if value:
            assert msd.table_stats() == {"entries": 1, "hits": 1, "misses": 1}

    @given(MSD_VALUES)
    @settings(max_examples=40)
    def test_snapshot_restore_roundtrip(self, value):
        expected = enumerate_msd(value)
        snapshot = msd.table_snapshot()
        msd.clear_tables()
        assert msd.restore_tables(snapshot) == len(snapshot)
        assert enumerate_msd(value) == expected
        assert msd.table_stats()["misses"] == 0

    def test_table_hit_still_charges_budget(self):
        enumerate_msd(45)  # warm
        budget = SolverBudget(max_nodes=1).start()
        enumerate_msd(45, budget=budget)
        assert budget.nodes_used == 1
        with pytest.raises(BudgetExceeded):
            enumerate_msd(45, budget=budget)

    def test_msd_count_uses_table(self):
        before = msd.table_stats()["hits"]
        assert msd_count(363) == msd_count(363)
        assert msd.table_stats()["hits"] > before

    def test_warm_msd_tables_counts_new_entries(self):
        values = [3, 7, 11, 45]
        assert msd.warm_msd_tables(values) == len(values)
        assert msd.warm_msd_tables(values) == 0

    def test_snapshot_truncates_at_ceiling(self):
        for value in range(1, 40, 2):
            enumerate_msd(value)
        snapshot = msd.table_snapshot(max_entries=5)
        assert len(snapshot) == 5

    def test_cached_result_is_a_fresh_list(self):
        first = enumerate_msd(23)
        first.append("sentinel")
        assert "sentinel" not in enumerate_msd(23)

    def test_info_is_json_friendly(self):
        enumerate_msd(45)
        info = experiments.cache_info()["fastpath"]
        assert json.loads(json.dumps(info)) == info
        assert info["kernel_version"] == disk_cache.KERNEL_VERSION
        assert info["msd_table"] == {"entries": 1, "hits": 0, "misses": 1}


class TestOddpartAgreement:
    @given(st.integers(min_value=1, max_value=2**48))
    def test_low_bit_trick_matches_oddpart(self, magnitude):
        color_shift = (magnitude & -magnitude).bit_length() - 1
        assert magnitude >> color_shift == abs(oddpart(magnitude))
        assert magnitude % (1 << color_shift) == 0
