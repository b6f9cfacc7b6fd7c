"""Unit + property tests for the depth-bounded spanning forest."""

import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    SpanningForest,
    TreeAssignment,
    build_colored_graph,
    build_spanning_forest,
    greedy_weighted_set_cover,
)
from repro.graph.spanning import _choose_root

ODD_VERTEX = st.integers(min_value=1, max_value=511).map(lambda n: 2 * n + 1)
VERTEX_SETS = st.sets(ODD_VERTEX, min_size=2, max_size=7)


def cover_and_forest(vertices, max_shift, depth_limit=None, beta=0.5):
    graph = build_colored_graph(sorted(vertices), max_shift)
    sets = {c: graph.color_set(c) for c in graph.colors}
    costs = {c: float(graph.color_cost(c)) for c in graph.colors}
    cover = greedy_weighted_set_cover(set(vertices), sets, costs, beta=beta)
    forest = build_spanning_forest(graph, cover.colors, depth_limit)
    return graph, cover, forest


class TestTreeAssignment:
    def test_child_needs_parent(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="child", depth=1)

    def test_root_depth_must_be_zero(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="root", depth=1)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="branch", depth=0)


class TestForestValidation:
    def test_duplicate_vertex_rejected(self):
        a = TreeAssignment(vertex=5, kind="root", depth=0)
        with pytest.raises(GraphError):
            SpanningForest(assignments=(a, a))

    def test_unknown_parent_rejected(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        child = next(a for a in forest.assignments if a.kind == "child")
        bogus = TreeAssignment(
            vertex=child.vertex, kind="child", depth=1,
            parent=999, edge=child.edge,
        )
        others = tuple(a for a in forest.assignments if a.vertex != child.vertex)
        with pytest.raises(GraphError):
            SpanningForest(assignments=others + (bogus,))


class TestForestConstruction:
    def test_depth_limit_validated(self):
        graph, cover, _ = cover_and_forest({3, 5, 11}, 3)
        with pytest.raises(GraphError):
            build_spanning_forest(graph, cover.colors, depth_limit=0)

    def test_all_vertices_assigned(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45}, 4)
        assigned = {a.vertex for a in forest.assignments}
        assert assigned == set(graph.vertices)

    def test_at_least_one_root_or_alias(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        assert forest.roots or forest.aliases

    def test_alias_when_vertex_equals_color(self):
        """Paper step 6: a vertex equal to a solution color needs no parent."""
        graph, cover, forest = cover_and_forest({3, 5, 11, 13}, 4)
        for alias in forest.aliases:
            assert alias in cover.colors

    def test_children_use_solution_colors_only(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23}, 4)
        solution = set(cover.colors)
        for child in forest.children:
            assert child.edge.color in solution

    def test_depth_limit_respected(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45, 91}, 4,
                                                depth_limit=1)
        assert forest.max_depth <= 1

    def test_tighter_depth_never_fewer_total_vertices(self):
        vertices = {3, 5, 11, 23, 45, 91, 179}
        _, _, loose = cover_and_forest(vertices, 4, depth_limit=None)
        _, _, tight = cover_and_forest(vertices, 4, depth_limit=1)
        assert len(tight.assignments) == len(loose.assignments)
        assert len(tight.roots) >= len(loose.roots)

    def test_topological_order_parents_first(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45}, 4)
        seen = set()
        for assignment in forest.topological_order():
            if assignment.kind == "child":
                assert assignment.parent in seen
            seen.add(assignment.vertex)

    def test_overhead_adders_counts_children(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23}, 4)
        assert forest.overhead_adders == len(forest.children)

    def test_assignment_lookup(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        a = forest.assignment(5)
        assert a.vertex == 5
        with pytest.raises(KeyError):
            forest.assignment(9999)


class TestForestProperties:
    @given(VERTEX_SETS, st.integers(min_value=1, max_value=5),
           st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_forest_invariants(self, vertices, max_shift, depth_limit):
        graph, cover, forest = cover_and_forest(vertices, max_shift, depth_limit)
        assigned = {a.vertex for a in forest.assignments}
        assert assigned == set(vertices)
        if depth_limit is not None:
            assert forest.max_depth <= depth_limit
        # Reconstruction identity holds for every child (via ColorEdge).
        for child in forest.children:
            e = child.edge
            assert (
                e.src_sign * (e.src << e.shift)
                + e.color_sign * (e.color << e.color_shift)
                == child.vertex
            )

    @given(VERTEX_SETS)
    @settings(max_examples=25, deadline=None)
    def test_roots_aliases_children_partition(self, vertices):
        _, _, forest = cover_and_forest(vertices, 3)
        roots = set(forest.roots)
        aliases = set(forest.aliases)
        children = {c.vertex for c in forest.children}
        assert roots | aliases | children == set(vertices)
        assert not roots & aliases
        assert not roots & children
        assert not aliases & children


_Edge = namedtuple("_Edge", "src dst")


class _StubGraph:
    """Just the ``edges_of_color`` view ``_choose_root`` reads."""

    def __init__(self, edges_by_color):
        self._edges = edges_by_color

    def edges_of_color(self, color):
        return self._edges.get(color, ())


def _oracle_root(unassigned, edges):
    """Root by the paper's rule from Floyd-Warshall all-pairs distances."""
    inf = float("inf")
    vertices = sorted(unassigned)
    dist = {(u, v): 0 if u == v else inf for u in vertices for v in vertices}
    for u, v in edges:
        if u in unassigned and v in unassigned and u != v:
            dist[u, v] = dist[v, u] = 1
    for k in vertices:
        for i in vertices:
            for j in vertices:
                if dist[i, k] + dist[k, j] < dist[i, j]:
                    dist[i, j] = dist[i, k] + dist[k, j]
    anchor = vertices[0]
    component = [v for v in vertices if dist[anchor, v] < inf]
    ecc = {v: max(dist[v, w] for w in component) for v in component}
    return min(component, key=lambda v: (ecc[v], v)), len(component)


class TestRootChoice:
    def test_bfs_matches_all_pairs_oracle_on_random_graphs(self):
        sizes = set()
        for seed in range(300):
            rng = random.Random(seed)
            vertices = rng.sample(range(1, 200, 2), rng.randint(1, 12))
            density = rng.choice((0.05, 0.15, 0.4))
            edges_by_color = {}
            for color in range(1, 5):
                edges = [
                    _Edge(u, v) for u in vertices for v in vertices
                    if rng.random() < density
                ]
                edges_by_color[color] = edges
            # Only some colors are in the solution, and some vertices are
            # already placed: edges touching either must be ignored.
            colors = set(rng.sample(range(1, 5), rng.randint(1, 4)))
            unassigned = set(
                rng.sample(vertices, rng.randint(1, len(vertices)))
            )
            chosen = [e for c in colors for e in edges_by_color[c]]
            want, size = _oracle_root(unassigned, chosen)
            graph = _StubGraph(edges_by_color)
            assert _choose_root(graph, colors, unassigned) == want, seed
            sizes.add(min(size, 3))
        # Single-vertex, two-vertex and larger components were all covered.
        assert sizes == {1, 2, 3}
