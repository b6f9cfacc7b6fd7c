"""Depth-bounded spanning forests over the covered SIDC subgraph (paper §3.4).

After the greedy cover selects the solution colors, the subgraph of their
edges spans all vertices but is generally disconnected.  Each weakly-connected
component needs one vertex computed directly — a **root** — and the rest hang
off it as a spanning tree whose height bounds the filter's adder-chain delay.
The paper picks roots by all-pairs-shortest-path eccentricity (the center of
the component gives the shortest tree) and reports Table 1 under a tree-depth
constraint of 3; vertices unreachable within the bound become extra roots.

Vertices whose value *equals* a solution color need no predecessor at all
(paper step 6): the SEED network already computes their product.  They enter
the forest as parentless depth-0 *aliases* and may parent other vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import GraphError
from ..obs import span as obs_span
from .colored import ColorEdge, ColoredGraph

__all__ = ["TreeAssignment", "SpanningForest", "build_spanning_forest"]


@dataclass(frozen=True)
class TreeAssignment:
    """How one vertex is computed in the overhead add network.

    ``kind`` is one of:

    * ``"root"``  — computed directly by a SEED multiplication (no parent)
    * ``"alias"`` — equal to a solution color; free (no parent, no adder)
    * ``"child"`` — one overhead adder combining the parent (shifted) with a
      shifted solution color, per ``edge``'s reconstruction identity
    """

    vertex: int
    kind: str
    depth: int
    parent: Optional[int] = None
    edge: Optional[ColorEdge] = None

    def __post_init__(self) -> None:
        if self.kind not in ("root", "alias", "child"):
            raise GraphError(f"unknown assignment kind {self.kind!r}")
        if self.kind == "child" and (self.parent is None or self.edge is None):
            raise GraphError(f"child vertex {self.vertex} lacks parent/edge")
        if self.kind != "child" and self.depth != 0:
            raise GraphError(f"{self.kind} vertex {self.vertex} must sit at depth 0")


@dataclass(frozen=True)
class SpanningForest:
    """The complete overhead-add structure for all vertices."""

    assignments: Tuple[TreeAssignment, ...]

    def __post_init__(self) -> None:
        by_vertex = {}
        for a in self.assignments:
            if a.vertex in by_vertex:
                raise GraphError(f"vertex {a.vertex} assigned twice")
            by_vertex[a.vertex] = a
        for a in self.assignments:
            if a.kind == "child":
                parent = by_vertex.get(a.parent)
                if parent is None:
                    raise GraphError(f"vertex {a.vertex} has unknown parent {a.parent}")
                if parent.depth + 1 != a.depth:
                    raise GraphError(
                        f"vertex {a.vertex} depth {a.depth} != parent depth + 1"
                    )

    def assignment(self, vertex: int) -> TreeAssignment:
        """Look up the assignment of one vertex."""
        for a in self.assignments:
            if a.vertex == vertex:
                return a
        raise KeyError(vertex)

    @property
    def roots(self) -> Tuple[int, ...]:
        """Vertices computed directly (tree roots), sorted."""
        return tuple(sorted(a.vertex for a in self.assignments if a.kind == "root"))

    @property
    def aliases(self) -> Tuple[int, ...]:
        """Vertices equal to a solution color (free), sorted."""
        return tuple(sorted(a.vertex for a in self.assignments if a.kind == "alias"))

    @property
    def children(self) -> Tuple[TreeAssignment, ...]:
        """Assignments computed via an overhead adder."""
        return tuple(a for a in self.assignments if a.kind == "child")

    @property
    def max_depth(self) -> int:
        """Deepest tree level in the forest."""
        return max((a.depth for a in self.assignments), default=0)

    @property
    def overhead_adders(self) -> int:
        """One adder per child vertex (paper's overhead add network size)."""
        return len(self.children)

    def topological_order(self) -> Tuple[TreeAssignment, ...]:
        """Assignments sorted so every parent precedes its children."""
        return tuple(sorted(self.assignments, key=lambda a: (a.depth, a.vertex)))


def build_spanning_forest(
    graph: ColoredGraph,
    solution_colors: Sequence[int],
    depth_limit: Optional[int] = None,
) -> SpanningForest:
    """Build the depth-bounded spanning forest for the chosen colors.

    Strategy (mirrors paper §3.4): saturate reachability from already-placed
    vertices breadth-first (so trees have minimal height), and whenever
    progress stalls, promote a new root chosen as the minimum-eccentricity
    vertex of the component (over remaining vertices) containing the smallest
    remaining vertex.  Only the chosen colors' edges are read, so only they
    are materialized (span tag ``edges_materialized``).
    """
    colors: Set[int] = set(solution_colors)
    if depth_limit is not None and depth_limit < 1:
        raise GraphError(f"depth_limit must be >= 1, got {depth_limit}")
    limit = depth_limit if depth_limit is not None else len(graph.vertices) + 1
    with obs_span(
        "spanning.forest",
        vertices=len(graph.vertices),
        colors=len(colors),
        depth_limit=depth_limit,
    ) as forest_span:
        before = graph.edges_materialized
        forest = _build_forest(graph, colors, limit)
        forest_span.set_tag("edges_materialized", graph.edges_materialized - before)
        return forest


def _build_forest(
    graph: ColoredGraph, colors: Set[int], limit: int
) -> SpanningForest:
    assignments: Dict[int, TreeAssignment] = {}
    # Paper step 6: vertices equal to a solution color are free aliases.
    for vertex in sorted(graph.vertices):
        if vertex in colors:
            assignments[vertex] = TreeAssignment(vertex=vertex, kind="alias", depth=0)
    unassigned: Set[int] = set(graph.vertices) - set(assignments)

    while unassigned:
        _saturate(graph, colors, limit, assignments, unassigned)
        if not unassigned:
            break
        root = _choose_root(graph, colors, unassigned)
        assignments[root] = TreeAssignment(vertex=root, kind="root", depth=0)
        unassigned.discard(root)
    return SpanningForest(assignments=tuple(
        assignments[v] for v in sorted(assignments)
    ))


def _saturate(
    graph: ColoredGraph,
    colors: Set[int],
    limit: int,
    assignments: Dict[int, TreeAssignment],
    unassigned: Set[int],
) -> None:
    """Attach vertices breadth-first, always at the minimal feasible depth."""
    while True:
        candidates: Dict[int, Tuple[Tuple[int, int, int, int, int], ColorEdge]] = {}
        for vertex in unassigned:
            best: Optional[Tuple[Tuple[int, int, int, int, int], ColorEdge]] = None
            for edge in graph.edges_into(vertex, colors):
                parent = assignments.get(edge.src)
                if parent is None or parent.depth + 1 > limit:
                    continue
                rank = (
                    parent.depth + 1,
                    edge.weight,
                    edge.shift,
                    edge.color_shift,
                    edge.src,
                )
                if best is None or rank < best[0]:
                    best = (rank, edge)
            if best is not None:
                candidates[vertex] = best
        if not candidates:
            return
        min_depth = min(rank[0] for rank, _ in candidates.values())
        for vertex, (rank, edge) in sorted(candidates.items()):
            if rank[0] != min_depth:
                continue
            assignments[vertex] = TreeAssignment(
                vertex=vertex,
                kind="child",
                depth=min_depth,
                parent=edge.src,
                edge=edge,
            )
            unassigned.discard(vertex)


def _choose_root(
    graph: ColoredGraph, colors: Set[int], unassigned: Set[int]
) -> int:
    """Pick the next root: APSP eccentricity center (paper's rule).

    The undirected view of the solution-colored edges restricted to the
    remaining vertices is split into components; within the component holding
    the smallest remaining vertex, the vertex of minimum eccentricity wins
    (smallest value breaks ties).
    """
    neighbors: Dict[int, Set[int]] = {v: set() for v in unassigned}
    for color in colors:
        for edge in graph.edges_of_color(color):
            if edge.src in unassigned and edge.dst in unassigned:
                neighbors[edge.src].add(edge.dst)
                neighbors[edge.dst].add(edge.src)
    component = _hop_distances(neighbors, min(unassigned))
    eccentricities = {
        v: max(_hop_distances(neighbors, v).values()) for v in component
    }
    return min(component, key=lambda v: (eccentricities[v], v))


def _hop_distances(
    neighbors: Dict[int, Set[int]], source: int
) -> Dict[int, int]:
    """BFS hop distance from ``source`` to every vertex it reaches."""
    distances = {source: 0}
    frontier = [source]
    while frontier:
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if v not in distances:
                    distances[v] = distances[u] + 1
                    reached.append(v)
        frontier = reached
    return distances
