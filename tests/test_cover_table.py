"""The array cover over a :class:`CoverTable` against the reference greedy loop.

:func:`~repro.graph.greedy_weighted_set_cover` runs on a table: keys sorted
in tie order, a boolean element x key membership matrix and a cost vector.
:func:`~repro.graph.setcover._greedy_cover_reference` is the plain loop that
rescans every set per pick.  The two must return the same
:class:`~repro.graph.CoverSolution` — every step (color, benefit, frequency,
cost, newly covered elements) and the ``covered_by`` map, insertion order
included — on random instances built to tie, on universes wider than 64
elements, with string keys (whose shortlex tie order differs from plain
string order), under the ``savings`` strategy, and when a budget cuts the
cover short.

Weights are summed in matrix order, row by row, where the reference sums them
set by set.  Integer-valued weights (production passes ``adder_cost - 1``)
sum exactly either way, so these tests draw only those; sums of non-dyadic
float weights may differ from the reference by rounding.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sidc import normalize_taps
from repro.errors import BudgetExceeded, GraphError
from repro.eval import BETA_SWEEP, best_mrpf
from repro.filters import benchmark_suite
from repro.graph import CoverTable, build_colored_graph, greedy_weighted_set_cover
from repro.graph.colored import _build_edges
from repro.graph.setcover import _greedy_cover_reference
from repro.numrep import Representation
from repro.quantize import ScalingScheme, quantize
from repro.robust.budget import SolverBudget

BETAS = (0.0, 0.3, 0.5, 0.7, 1.0)
#: Keys whose shortlex order ("b" < "aa" < "s10") is not their string order.
STRING_KEYS = ("b", "a", "aa", "ab", "s1", "s2", "s10", "zz", "c0", "set")


@st.composite
def cover_instances(draw, key_kind="int", max_universe=40):
    """A feasible instance; few distinct costs and many equal-sized sets tie."""
    size = draw(st.integers(min_value=1, max_value=max_universe))
    offset = draw(st.integers(min_value=0, max_value=1000))
    universe = set(range(offset, offset + size))
    if key_kind == "str":
        keys = draw(st.lists(st.sampled_from(STRING_KEYS), min_size=1,
                             max_size=len(STRING_KEYS), unique=True))
    else:
        keys = draw(st.lists(st.integers(min_value=1, max_value=10_000),
                             min_size=1, max_size=25, unique=True))
    pool = sorted(universe) + [-1, -2]  # elements outside the universe too
    sets = {
        key: frozenset(draw(st.lists(st.sampled_from(pool), min_size=0,
                                     max_size=min(8, len(pool)))))
        for key in keys
    }
    # Feasibility: spread the universe over the first few keys.
    for index, element in enumerate(sorted(universe)):
        key = keys[index % min(3, len(keys))]
        sets[key] = sets[key] | {element}
    costs = {key: float(draw(st.integers(min_value=1, max_value=2)))
             for key in keys}
    return universe, sets, costs


def integer_weights(universe):
    return st.fixed_dictionaries(
        {e: st.integers(min_value=0, max_value=4).map(float) for e in universe}
    )


def assert_same_solution(candidate, reference):
    assert candidate.steps == reference.steps
    assert [type(step.benefit) for step in candidate.steps] == [
        float for _ in candidate.steps
    ]
    assert candidate.covered_by == reference.covered_by
    assert list(candidate.covered_by) == list(reference.covered_by)


def both(universe, sets, costs, beta=0.5, weights=None, strategy="benefit"):
    table = CoverTable.encode(sets, costs)
    candidate = greedy_weighted_set_cover(
        universe, table, table.cost_map, beta=beta, element_weights=weights,
        strategy=strategy,
    )
    reference = _greedy_cover_reference(
        universe, sets, costs, beta, weights, strategy, None
    )
    return candidate, reference


class TestCoverTable:
    def test_encodes_sets_costs_and_tie_order(self):
        sets = {"s10": frozenset({1, 2}), "b": frozenset({2}), "aa": frozenset()}
        table = CoverTable.encode(sets, {"s10": 2, "b": 1, "aa": 3})
        assert table.ordered_keys == ("b", "aa", "s10")
        assert dict(table) == sets
        assert table["b"] is sets["b"]
        assert dict(table.cost_map) == {"b": 1.0, "aa": 3.0, "s10": 2.0}
        assert table.membership.dtype == bool
        assert table.membership.shape == (2, 3)
        assert table.reachable == {1, 2}
        for i, key in enumerate(table.ordered_keys):
            held = {table.elements[j] for j in range(2) if table.membership[j, i]}
            assert held == sets[key]

    def test_graph_table_matches_reference_build(self):
        vertices = [3, 5, 11, 13, 45]
        graph = build_colored_graph(vertices, 4)
        reference = _build_edges(vertices, 4, Representation.CSD, None)
        table, expected = graph.cover_table, reference.cover_table
        assert table is graph.cover_table  # built once, cached
        assert table.ordered_keys == tuple(sorted(reference.colors))
        assert table.ordered_keys == expected.ordered_keys
        assert (table.membership == expected.membership).all()
        assert (table.costs == expected.costs).all()
        for color in reference.colors:
            assert table[color] == {e.dst for e in reference.edges_of_color(color)}
            assert table.cost_map[color] == float(reference.color_cost(color))

    def test_unreachable_element_raises(self):
        with pytest.raises(GraphError):
            greedy_weighted_set_cover({1, 2}, {"a": frozenset({1})}, {"a": 1.0})

    def test_empty_universe_picks_nothing(self):
        candidate, reference = both(set(), {1: frozenset({1})}, {1: 1.0})
        assert candidate.steps == () and candidate.covered_by == {}
        assert_same_solution(candidate, reference)

    def test_table_with_other_costs_is_re_encoded(self):
        sets = {1: frozenset({1, 2}), 3: frozenset({1}), 5: frozenset({2})}
        table = CoverTable.encode(sets, {1: 1.0, 3: 1.0, 5: 1.0})
        costs = {1: 9.0, 3: 1.0, 5: 1.0}
        candidate = greedy_weighted_set_cover({1, 2}, table, costs, beta=0.1)
        reference = _greedy_cover_reference({1, 2}, sets, costs, 0.1, None,
                                            "benefit", None)
        assert_same_solution(candidate, reference)
        assert candidate.colors == (3, 5)


class TestCoverEquivalence:
    @given(cover_instances(), st.sampled_from(BETAS))
    @example(({1, 2, 3}, {7: frozenset({1, 2, 3}), 3: frozenset({1, 2, 3})},
              {7: 1.0, 3: 1.0}), 0.5)
    @settings(max_examples=150, deadline=None)
    def test_benefit_matches_reference(self, instance, beta):
        candidate, reference = both(*instance, beta=beta)
        assert_same_solution(candidate, reference)

    @given(cover_instances(key_kind="str"), st.sampled_from(BETAS))
    @settings(max_examples=100, deadline=None)
    def test_string_keys_break_ties_shortlex(self, instance, beta):
        candidate, reference = both(*instance, beta=beta)
        assert_same_solution(candidate, reference)

    @given(cover_instances(max_universe=140), st.sampled_from(BETAS))
    @example(
        (set(range(100)),
         {k: frozenset(range(100)) for k in (9, 5, 1)},
         {9: 1.0, 5: 1.0, 1: 1.0}),
        0.5,
    )
    @settings(max_examples=40, deadline=None)
    def test_wide_universes(self, instance, beta):
        candidate, reference = both(*instance, beta=beta)
        assert_same_solution(candidate, reference)

    @given(st.data(), st.sampled_from(BETAS))
    @settings(max_examples=100, deadline=None)
    def test_weighted_benefit_matches_reference(self, data, beta):
        universe, sets, costs = data.draw(cover_instances())
        weights = data.draw(integer_weights(universe))
        candidate, reference = both(universe, sets, costs, beta, weights)
        assert_same_solution(candidate, reference)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_savings_matches_reference(self, data):
        universe, sets, costs = data.draw(cover_instances())
        weights = data.draw(integer_weights(universe))
        candidate, reference = both(universe, sets, costs, 0.5, weights,
                                    "savings")
        assert_same_solution(candidate, reference)

    @given(cover_instances(), st.sampled_from(BETAS),
           st.integers(min_value=0, max_value=120))
    @settings(max_examples=100, deadline=None)
    def test_budget_cuts_at_the_same_partial(self, instance, beta, max_nodes):
        universe, sets, costs = instance

        def outcome(run):
            budget = SolverBudget(max_nodes=max_nodes).start()
            try:
                return run(budget), budget.nodes_used
            except BudgetExceeded as exc:
                assert exc.partial is not None
                return ("partial", exc.partial), budget.nodes_used

        table = CoverTable.encode(sets, costs)
        candidate = outcome(lambda b: greedy_weighted_set_cover(
            universe, table, table.cost_map, beta=beta, budget=b))
        reference = outcome(lambda b: _greedy_cover_reference(
            universe, sets, costs, beta, None, "benefit", b))
        assert candidate[1] == reference[1]
        got, want = candidate[0], reference[0]
        if isinstance(want, tuple):
            assert isinstance(got, tuple)
            got, want = got[1], want[1]
        assert_same_solution(got, want)


#: (filter index as ``--filters`` takes it, wordlength)
REAL_GRAPHS = [(f, w) for f in (1, 4, 7) for w in (16, 20)]


@pytest.mark.parametrize("point", REAL_GRAPHS, ids=lambda p: f"ex{p[0]}-W{p[1]}")
def test_real_graphs_pick_identically(point):
    """Every BETA_SWEEP cover of the paper's graphs, against the reference
    loop run on plain dicts, as ``optimize`` built them before the table."""
    filter_index, wordlength = point
    designed = benchmark_suite()[filter_index]
    integers = quantize(designed.folded, wordlength, ScalingScheme.UNIFORM).integers
    vertices, _ = normalize_taps([int(c) for c in integers])
    graph = build_colored_graph(vertices, wordlength)
    sets = {color: graph.color_set(color) for color in graph.colors}
    costs = {color: float(graph.color_cost(color)) for color in graph.colors}
    table = graph.cover_table
    for beta in BETA_SWEEP:
        candidate = greedy_weighted_set_cover(
            set(vertices), table, table.cost_map, beta=beta
        )
        reference = _greedy_cover_reference(
            set(vertices), sets, costs, beta, None, "benefit", None
        )
        assert candidate.steps == reference.steps
        assert candidate.covered_by == reference.covered_by


class TestLazyEdges:
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1).map(
            lambda n: 2 * n + 1), min_size=0, max_size=7, unique=True),
        st.integers(min_value=0, max_value=8),
        st.sampled_from([Representation.CSD, Representation.SM]),
    )
    @settings(max_examples=40, deadline=None)
    def test_lazy_graph_matches_reference(self, vertices, max_shift, rep):
        reference = _build_edges(sorted(vertices), max_shift, rep, None)
        graph = build_colored_graph(vertices, max_shift, rep)
        assert graph.edges_materialized == 0
        assert graph.num_edges == reference.num_edges
        assert graph.colors == reference.colors
        for color in reference.colors:
            assert graph.edges_of_color(color) == reference.edges_of_color(color)
            assert graph.color_set(color) == {
                e.dst for e in reference.edges_of_color(color)
            }
        assert graph.edges_materialized == graph.num_edges
        for vertex in reference.vertices:
            into = {e.color for c in reference.colors
                    for e in reference.edges_of_color(c) if e.dst == vertex}
            assert graph.colors_of_vertex(vertex) == into
            assert reference.colors_of_vertex(vertex) == into
            for allowed in (set(reference.colors), set(sorted(into)[:2])):
                assert graph.edges_into(vertex, allowed) == (
                    reference.edges_into(vertex, allowed)
                )

    def test_first_read_materializes_one_color(self):
        graph = build_colored_graph([3, 5, 11, 13], 4)
        color = min(graph.colors)
        edges = graph.edges_of_color(color)
        assert graph._edges.keys() == {color}
        assert graph.edges_materialized == len(edges)
        assert graph.edges_of_color(color) is edges  # memoized
        assert graph.edges_materialized == len(edges)

    @pytest.mark.parametrize("filter_index", [0, 4])
    def test_best_mrpf_materializes_only_chosen_colors(self, filter_index,
                                                        monkeypatch):
        import repro.eval.experiments as experiments

        designed = benchmark_suite()[filter_index]
        integers = quantize(designed.folded, 12, ScalingScheme.UNIFORM).integers
        graphs, chosen = [], set()
        real_build = experiments.build_colored_graph
        real_optimize = experiments.optimize

        def build(*args, **kwargs):
            graphs.append(real_build(*args, **kwargs))
            return graphs[-1]

        def optimize(*args, **kwargs):
            plan = real_optimize(*args, **kwargs)
            chosen.update(plan.solution_colors)
            return plan

        monkeypatch.setattr(experiments, "build_colored_graph", build)
        monkeypatch.setattr(experiments, "optimize", optimize)
        best_mrpf(integers, 12)
        (graph,) = graphs
        assert chosen
        assert set(graph._edges) <= chosen
        assert graph.edges_materialized == sum(
            len(graph.edges_of_color(color)) for color in graph._edges
        )
        assert graph.edges_materialized < graph.num_edges
