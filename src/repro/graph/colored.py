"""The SIDC colored multigraph (paper §2-§3.2).

Vertices are the filter's *primary coefficients* — odd positive integer
mantissas after odd-normalization (secondary coefficients, i.e. shifts of
another coefficient, have already been removed).  For every ordered vertex
pair ``(u, v)``, every shift ``L in 0..max_shift`` and every sign, the edge
``u -> v`` carries the SID coefficient

    xi = v - s * (u << L)        (s in {+1, -1})

meaning ``v * x = s * ((u * x) << L) + xi * x``.  All shifts of ``xi`` form a
**color class**; its odd positive representative is the **primary color**.
Selecting a primary color makes every edge of its class free (the product
``color * x`` is computed once in the SEED network and reused, shifts being
wires), so the paper's optimization reduces to covering all vertices with the
cheapest set of primary colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import GraphError
from ..numrep import Representation, digit_cost, encode, oddpart
from ..obs import span as obs_span
from .setcover import CoverTable

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = ["ColorEdge", "ColoredGraph", "build_colored_graph"]


@dataclass(frozen=True)
class ColorEdge:
    """One directed SIDC edge ``src -> dst``.

    The reconstruction identity is::

        dst == src_sign * (src << shift) + color_sign * (color << color_shift)

    where ``color`` is the primary (odd, positive) color of the edge's class.
    ``weight`` is the digit cost of the color — the paper's edge weight
    ``e_{i,j}`` (adder arrays needed for the correction product).
    """

    src: int
    dst: int
    shift: int
    src_sign: int
    color: int
    color_shift: int
    color_sign: int
    weight: int

    def __post_init__(self) -> None:
        reconstructed = (
            self.src_sign * (self.src << self.shift)
            + self.color_sign * (self.color << self.color_shift)
        )
        if reconstructed != self.dst:
            raise GraphError(
                f"inconsistent edge: {self.src_sign}*({self.src}<<{self.shift}) "
                f"+ {self.color_sign}*({self.color}<<{self.color_shift}) != {self.dst}"
            )


class ColoredGraph:
    """Immutable SIDC graph over a vertex set of odd positive integers.

    Exposes exactly what the MRP stages need:

    * :attr:`cover_table` — every primary color's color set (the vertices
      its class can cover) and digit cost, as one :class:`CoverTable` built
      with the graph and shared by every cover run on it;
    * ``color_set`` / ``color_cost`` / ``color_frequency`` — the same, per
      color;
    * ``edges_of_color`` / ``edges_into`` — the concrete edges, for spanning-
      tree construction after the cover is chosen;
    * ``colors_of_vertex`` — the reverse index.

    Each edge is kept as one packed int, ``((src_index * M + dst_index) *
    (max_shift + 1) + shift) * 2 + (src_sign == -1)`` over the ``M`` sorted
    vertices, in the reference order (src, dst, shift, sign).  A color's
    :class:`ColorEdge` objects are created the first time they are read, so
    a cover that picks a few dozen of tens of thousands of colors
    materializes the edges of those colors alone.  The constructor takes
    explicit edges (the reference build) and keeps them all.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[ColorEdge],
        representation: Representation,
        max_shift: int,
    ):
        vertex_list = sorted(set(vertices))
        for v in vertex_list:
            if v <= 0 or v % 2 == 0:
                raise GraphError(f"vertex {v} must be odd and positive")
        position = {v: i for i, v in enumerate(vertex_list)}
        codes_per_pair = 2 * (max_shift + 1)
        codes: List[int] = []
        colors: List[int] = []
        by_color: Dict[int, List[ColorEdge]] = {}
        for edge in edges:
            pair = position[edge.src] * len(vertex_list) + position[edge.dst]
            codes.append(
                pair * codes_per_pair + 2 * edge.shift + (edge.src_sign == -1)
            )
            colors.append(edge.color)
            by_color.setdefault(edge.color, []).append(edge)
        weight = {color: encode(color, representation).nonzero_count
                  for color in by_color}
        self._index(
            vertex_list, representation, max_shift,
            np.array(codes, dtype=np.int64), np.array(colors, dtype=object),
            [weight[color] for color in colors],
        )
        self._edges = {color: tuple(found) for color, found in by_color.items()}
        self._edges_materialized = len(codes)

    def _index(
        self,
        vertex_list: List[int],
        representation: Representation,
        max_shift: int,
        codes: np.ndarray,
        colors: np.ndarray,
        costs: Sequence[int],
    ) -> None:
        """Index the packed ``codes``, their primary ``colors`` and digit ``costs``.

        All three run per edge.  Colors are positive ints, so numeric order
        is the cover's tie order; edges of one color share its cost, so any
        of them may write it into the key's slot.
        """
        self._vertices: FrozenSet[int] = frozenset(vertex_list)
        self._vertex_list = vertex_list
        self._representation = representation
        self._max_shift = max_shift
        keys, edge_key = np.unique(colors, return_inverse=True)
        self._codes = codes
        self._edge_key = edge_key
        pairs = codes // (2 * (max_shift + 1))
        self._dst_row = pairs % max(1, len(vertex_list))
        membership = np.zeros((len(vertex_list), len(keys)), dtype=bool)
        membership[self._dst_row, edge_key] = True
        key_costs = np.zeros(len(keys), dtype=np.float64)
        key_costs[edge_key] = costs
        self._table = CoverTable(keys.tolist(), vertex_list, membership, key_costs)
        self._edges: Dict[int, Tuple[ColorEdge, ...]] = {}
        self._edges_materialized = 0
        self._into: Dict[int, Dict[int, None]] = {}

    @property
    def vertices(self) -> FrozenSet[int]:
        """The graph's vertex set (odd positive integers)."""
        return self._vertices

    @property
    def representation(self) -> Representation:
        """Digit representation used for color costs."""
        return self._representation

    @property
    def max_shift(self) -> int:
        """Maximum shift used during quantization or graph build."""
        return self._max_shift

    @property
    def colors(self) -> FrozenSet[int]:
        """All primary colors present in the graph."""
        return frozenset(self._table.ordered_keys)

    @property
    def num_edges(self) -> int:
        """Total number of colored edges."""
        return len(self._codes)

    @property
    def cover_table(self) -> CoverTable:
        """Color sets and costs as one :class:`CoverTable` (built with the graph)."""
        return self._table

    @property
    def edges_materialized(self) -> int:
        """How many :class:`ColorEdge` objects the graph has created so far."""
        return self._edges_materialized

    def color_set(self, color: int) -> FrozenSet[int]:
        """Vertices reachable via any edge of ``color``'s class (its *color set*)."""
        return self._table[color]

    def color_cost(self, color: int) -> int:
        """Digit cost of the primary color (paper's ``cost`` property)."""
        return int(self._table.costs[self._table.index[color]])

    def color_frequency(self, color: int) -> int:
        """Size of the color set (paper's ``frequency`` property)."""
        return int(self._table.membership[:, self._table.index[color]].sum())

    def colors_of_vertex(self, vertex: int) -> FrozenSet[int]:
        """Primary colors having at least one edge into ``vertex``."""
        return frozenset(self._colors_into(vertex))

    def edges_of_color(self, color: int) -> Tuple[ColorEdge, ...]:
        """All concrete edges whose class representative is ``color``."""
        edges = self._edges.get(color)
        if edges is None:
            edges = self._edges[color] = self._decode(color)
            self._edges_materialized += len(edges)
        return edges

    def edges_into(self, vertex: int, allowed_colors: Set[int]) -> List[ColorEdge]:
        """Edges terminating at ``vertex`` whose color lies in ``allowed_colors``."""
        found: List[ColorEdge] = []
        for color in self._colors_into(vertex).keys() & allowed_colors:
            found.extend(e for e in self.edges_of_color(color) if e.dst == vertex)
        return found

    def _colors_into(self, vertex: int) -> Dict[int, None]:
        """Colors of the edges into ``vertex``, in edge order (memoized).

        A dict, not a set: :meth:`edges_into` intersects its keys, and the
        order of that intersection sets the order of equal-rank edges in
        the spanning forest, so it must see the reference's insertion order.
        """
        into = self._into.get(vertex)
        if into is None:
            keys = self._table.ordered_keys
            incoming = self._edge_key[self._dst_row == self._table.row[vertex]]
            into = self._into[vertex] = dict.fromkeys(
                map(keys.__getitem__, incoming.tolist())
            )
        return into

    def _decode(self, color: int) -> Tuple[ColorEdge, ...]:
        """Unpack the edges of ``color`` from their codes, in edge order."""
        vertex_list = self._vertex_list
        codes_per_pair = 2 * (self._max_shift + 1)
        weight = self.color_cost(color)
        position = self._table.index[color]
        edges = []
        for code in self._codes[self._edge_key == position].tolist():
            pair, rest = divmod(code, codes_per_pair)
            src_index, dst_index = divmod(pair, len(vertex_list))
            src, dst = vertex_list[src_index], vertex_list[dst_index]
            shift, negative = divmod(rest, 2)
            src_sign = -1 if negative else 1
            xi = dst - src_sign * (src << shift)
            magnitude = abs(xi)
            edges.append(ColorEdge(
                src=src, dst=dst, shift=shift, src_sign=src_sign,
                color=color, color_shift=(magnitude & -magnitude).bit_length() - 1,
                color_sign=1 if xi > 0 else -1, weight=weight,
            ))
        return tuple(edges)


def build_colored_graph(
    vertices: Iterable[int],
    max_shift: int,
    representation: Representation = Representation.CSD,
    budget: Optional["SolverBudget"] = None,
) -> ColoredGraph:
    """Construct the full SIDC graph over ``vertices``.

    For ``M`` vertices the graph has up to ``2 * (max_shift + 1) * M *
    (M - 1)`` colored edges (paper §3.1).  Edges whose SID coefficient is zero
    are skipped — a zero color means ``dst`` is a shift of ``src``, which
    cannot happen between distinct odd vertices.  The optional cooperative
    ``budget`` is charged per vertex pair so oversized builds raise
    :class:`~repro.errors.BudgetExceeded` instead of stalling the pipeline.

    The build is one array pass per source vertex (see :func:`_fill_graph`)
    that records the same edges, in the same order, as the plain reference
    loop
    :func:`_build_edges`; ``tests/test_fastpath_equivalence.py`` holds the
    two element-identical.  The graph's :attr:`~ColoredGraph.cover_table`
    is built with it.
    """
    vertex_list = sorted(set(vertices))
    if max_shift < 0:
        raise GraphError(f"max_shift must be >= 0, got {max_shift}")
    for v in vertex_list:
        if v <= 0 or v % 2 == 0:
            raise GraphError(f"vertex {v} must be odd and positive")
    with obs_span(
        "graph.build",
        vertices=len(vertex_list),
        max_shift=max_shift,
        representation=representation.value,
    ) as build_span:
        graph = _fill_graph(vertex_list, max_shift, representation, budget)
        build_span.set_tag("colors", len(graph.cover_table))
        build_span.set_tag("edges", graph.num_edges)
        build_span.set_tag("table_keys", len(graph.cover_table))
        return graph


def _fill_graph(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
    budget: Optional["SolverBudget"],
) -> ColoredGraph:
    """Record every edge's packed code, primary color and cost, a row at a time.

    Differs from :func:`_build_edges` in speed and in what it keeps:

    * each source row's SID coefficients are one ``(dst, shift, sign)``
      array, so an edge's code is its position in that array;
    * ``oddpart``'s trial division becomes the trailing-zero trick
      ``magnitude // (magnitude & -magnitude)``;
    * digit costs are byte-table popcounts of Reitwiesner's ``k ^ 3k`` (CSD)
      or of ``k`` (SM), the closed forms of :func:`~repro.numrep.digit_cost`;
    * no :class:`ColorEdge` is created: an edge is its code and its color,
      and :class:`ColoredGraph` decodes a color's edges when first asked.

    Codes grow in the reference order (src, dst, shift, sign), so downstream
    tie-breaking, and with it every exported artifact, is unchanged.  When
    ``3 * xi`` could pass 2**62 the same arrays hold python ints instead of
    int64, and costs come from :func:`~repro.numrep.digit_cost`.
    """
    count = len(vertex_list)
    wide = count > 0 and vertex_list[-1] << (max_shift + 3) >= 1 << 62
    dtype = object if wide else np.int64
    values = np.array(vertex_list, dtype=dtype)
    shifted = values[:, None] << np.arange(max_shift + 1).astype(dtype)
    # xi[dst, shift, sign] = dst - src_sign * (src << shift), src_sign = +1, -1.
    signs = np.array([-1, 1], dtype=dtype)
    dst = values[:, None, None]
    row_codes = np.arange(count * 2 * (max_shift + 1), dtype=np.int64).reshape(
        count, max_shift + 1, 2
    )
    codes: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    colors: List[np.ndarray] = [np.zeros(0, dtype=dtype)]
    for src_index in range(count):
        if budget is not None:
            for _ in range(count - 1):
                budget.spend()
        xi = dst + shifted[src_index, :, None] * signs
        keep = xi != 0
        keep[src_index] = False
        magnitude = np.abs(xi[keep])
        codes.append(row_codes[keep] + src_index * row_codes.size)
        colors.append(magnitude // (magnitude & -magnitude))
    color_array = np.concatenate(colors)
    if wide:
        costs = [digit_cost(color, representation) for color in color_array.tolist()]
    elif representation == Representation.CSD:
        costs = _popcount(color_array ^ (3 * color_array))
    else:
        costs = _popcount(color_array)
    graph = ColoredGraph.__new__(ColoredGraph)
    graph._index(
        vertex_list, representation, max_shift,
        np.concatenate(codes), color_array, costs,
    )
    return graph


_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Set bits of each non-negative int64 in ``values``, by a byte table."""
    octets = np.ascontiguousarray(values, dtype=np.int64).view(np.uint8)
    return _BYTE_POPCOUNT[octets].reshape(-1, 8).sum(axis=1)


def _build_edges(
    vertex_list: List[int],
    max_shift: int,
    representation: Representation,
    budget: Optional["SolverBudget"],
) -> ColoredGraph:
    """Reference build: the paper's definition, edge by edge.

    Kept as the oracle that tests and benchmarks hold
    :func:`build_colored_graph` to; production code never calls it.  Its
    graph holds every :class:`ColorEdge` from the start.  Digit
    costs are counted on the encodings themselves, not taken from the
    closed-form popcounts the array builder uses, so the oracle shares no
    shortcut with the code it checks.
    """
    edges: List[ColorEdge] = []
    for src in vertex_list:
        for dst in vertex_list:
            if src == dst:
                continue
            if budget is not None:
                budget.spend()
            for shift in range(max_shift + 1):
                shifted = src << shift
                for src_sign in (1, -1):
                    xi = dst - src_sign * shifted
                    if xi == 0:
                        continue
                    color_sign = 1 if xi > 0 else -1
                    magnitude = abs(xi)
                    primary = abs(oddpart(magnitude))
                    color_shift = (magnitude // primary).bit_length() - 1
                    edges.append(
                        ColorEdge(
                            src=src,
                            dst=dst,
                            shift=shift,
                            src_sign=src_sign,
                            color=primary,
                            color_shift=color_shift,
                            color_sign=color_sign,
                            weight=encode(primary, representation).nonzero_count,
                        )
                    )
    return ColoredGraph(vertex_list, edges, representation, max_shift)
