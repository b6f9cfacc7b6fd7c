"""Greedy weighted minimum set cover with the paper's benefit function (§3.3-3.4).

The MRP color-selection problem is WMSC: find the cheapest set of colors whose
color sets cover every vertex.  The paper solves it greedily, repeatedly
picking the color maximizing

    f = beta * frequency - (1 - beta) * cost        (0 <= beta <= 1)

where ``frequency`` is the number of *still-uncovered* vertices in the color
set and ``cost`` the color's digit count.  ``beta`` skews the solution toward
fewer, denser shares (high beta) or cheaper, less-shared colors (low beta,
modeling deep-submicron interconnect/drive cost).

The cover runs on a :class:`CoverTable`: the sets encoded once as a boolean
element x key membership matrix and a cost vector, keys in tie-break order.
Each pick takes the best entry of a score vector over every key; covering an
element subtracts it from the live frequencies and weights of the keys that
hold it and rescores only those keys.  The
plain loop :func:`_greedy_cover_reference` is the oracle the table cover is
held to; production code never calls it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..errors import BudgetExceeded, GraphError
from ..obs import span as obs_span

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = [
    "CoverStep",
    "CoverSolution",
    "CoverTable",
    "benefit",
    "greedy_weighted_set_cover",
]


def benefit(frequency: int, cost: float, beta: float) -> float:
    """The paper's benefit function ``f = beta*frequency - (1-beta)*cost``."""
    return beta * frequency - (1.0 - beta) * cost


@dataclass(frozen=True)
class CoverStep:
    """One greedy iteration: the color picked and what it newly covered."""

    color: Hashable
    benefit: float
    frequency: int
    cost: float
    newly_covered: FrozenSet


@dataclass(frozen=True)
class CoverSolution:
    """Result of the greedy WMSC: selection order, coverage map, total cost."""

    steps: Tuple[CoverStep, ...]
    covered_by: Mapping  # vertex -> color that first covered it

    @property
    def colors(self) -> Tuple[Hashable, ...]:
        """All primary colors present in the graph."""
        return tuple(step.color for step in self.steps)

    @property
    def total_cost(self) -> float:
        """Sum of the selected sets' costs."""
        return sum(step.cost for step in self.steps)


class CoverTable(Mapping):
    """A set-cover instance encoded once as arrays.

    * ``ordered_keys`` — every set's key, sorted by :func:`_tie_order`, so
      the lowest index is the final tie-break; ``index`` maps a key to its
      position;
    * ``elements`` — the elements, one matrix row each; ``row`` maps an
      element to its row;
    * ``membership`` — ``bool`` matrix of shape ``(len(elements),
      len(ordered_keys))``; ``membership[j, i]`` is true when set
      ``ordered_keys[i]`` holds ``elements[j]``.  The positions of the true
      entries of each row are kept too, so covering an element touches only
      the keys that hold it;
    * ``costs`` — ``float64`` cost per key, in key order.

    It is also a read-only ``Mapping`` from key to the set's ``frozenset``,
    and :attr:`cost_map` maps key to ``float`` cost, so one table can stand
    for the ``(sets, costs)`` pair of any cover solver.  :meth:`encode`
    builds one from such a pair; a table so built hands back the caller's
    own set objects.  The constructor takes keys already in tie order.
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        elements: Sequence,
        membership: np.ndarray,
        costs: np.ndarray,
        members: Optional[Mapping[Hashable, FrozenSet]] = None,
    ):
        self.ordered_keys: Tuple[Hashable, ...] = tuple(keys)
        self.elements: Tuple = tuple(elements)
        self.membership = membership
        self.costs = costs
        self.index: Dict[Hashable, int] = dict(
            zip(self.ordered_keys, range(len(self.ordered_keys)))
        )
        self.row: Dict[Hashable, int] = dict(
            zip(self.elements, range(len(self.elements)))
        )
        self._members = members
        # Per element row, the positions of the keys holding it.
        self._holders: List[np.ndarray] = [np.flatnonzero(held) for held in membership]
        self.reachable: FrozenSet = frozenset(
            element for element, held in zip(self.elements, self._holders) if len(held)
        )
        self.cost_map: Mapping[Hashable, float] = _CostMap(self)

    @classmethod
    def encode(
        cls,
        sets: Mapping[Hashable, FrozenSet],
        costs: Mapping[Hashable, float],
    ) -> "CoverTable":
        """Encode a plain ``key -> set`` / ``key -> cost`` pair."""
        keys = list(sets)
        if all(type(key) is int and key >= 0 for key in keys):
            keys.sort()  # the shortlex order of _tie_order, computed directly
        else:
            keys.sort(key=_tie_order)
        member_sets = [sets[key] for key in keys]
        elements = tuple(set().union(*member_sets))
        row = dict(zip(elements, range(len(elements))))
        rows = np.fromiter(
            map(row.__getitem__, itertools.chain.from_iterable(member_sets)),
            dtype=np.intp,
        )
        columns = np.repeat(
            np.arange(len(keys)), np.fromiter(map(len, member_sets), dtype=np.intp)
        )
        membership = np.zeros((len(elements), len(keys)), dtype=bool)
        membership[rows, columns] = True
        cost_vector = np.array([costs[key] for key in keys], dtype=np.float64)
        return cls(keys, elements, membership, cost_vector, members=sets)

    def __getitem__(self, key: Hashable) -> FrozenSet:
        if self._members is not None:
            return frozenset(self._members[key])
        column = self.membership[:, self.index[key]]
        return frozenset(self.elements[j] for j in np.flatnonzero(column))

    def __contains__(self, key: object) -> bool:
        return key in self.index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.ordered_keys)

    def __len__(self) -> int:
        return len(self.ordered_keys)


class _CostMap(Mapping):
    """Read-only ``key -> float cost`` view of a :class:`CoverTable`."""

    def __init__(self, table: CoverTable):
        self._table = table

    def __getitem__(self, key: Hashable) -> float:
        return float(self._table.costs[self._table.index[key]])

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def greedy_weighted_set_cover(
    universe: Set,
    sets: Mapping[Hashable, FrozenSet],
    costs: Mapping[Hashable, float],
    beta: float = 0.5,
    element_weights: Mapping = None,
    strategy: str = "benefit",
    budget: Optional["SolverBudget"] = None,
) -> CoverSolution:
    """Cover ``universe`` greedily using ``sets`` weighted by the benefit function.

    ``strategy`` selects the greedy score:

    * ``"benefit"`` — the paper's ``f = beta*freq - (1-beta)*cost`` where the
      frequency optionally sums ``element_weights`` instead of counting.
    * ``"savings"`` — ``f = sum(weights of newly covered) - cost``, the exact
      adder-savings objective (an extension beyond the paper; ``beta`` is
      ignored).

    Ties on the score break toward higher frequency, then lower cost, then the
    smaller key (total order -> deterministic output).  Raises
    :class:`GraphError` if some element of the universe appears in no set.

    ``sets`` may be a :class:`CoverTable` with ``costs`` its
    :attr:`~CoverTable.cost_map`; the table is then used as is.  Any other
    ``(sets, costs)`` pair is encoded into a fresh table first.  Weights are
    summed in matrix order, so with non-dyadic float ``element_weights`` a
    score may differ from a sequential sum in the last bit.

    An optional cooperative ``budget`` is charged ``len(sets)`` units per
    pick; on exhaustion the raised :class:`BudgetExceeded` carries the
    partial :class:`CoverSolution` built so far (covering only part of the
    universe) as its ``partial`` attribute.
    """
    if not 0.0 <= beta <= 1.0:
        raise GraphError(f"beta must be in [0, 1], got {beta}")
    if strategy not in ("benefit", "savings"):
        raise GraphError(f"unknown cover strategy {strategy!r}")
    with obs_span(
        "cover.greedy",
        universe=len(set(universe)),
        sets=len(sets),
        beta=beta,
        strategy=strategy,
    ) as cover_span:
        if not (isinstance(sets, CoverTable) and costs is sets.cost_map):
            sets = CoverTable.encode(sets, costs)
        solution = _greedy_cover(
            universe, sets, beta, element_weights, strategy, budget
        )
        cover_span.set_tag("picks", len(solution.steps))
        return solution


def _greedy_cover(
    universe: Set,
    table: CoverTable,
    beta: float,
    element_weights: Optional[Mapping],
    strategy: str,
    budget: Optional["SolverBudget"],
) -> CoverSolution:
    """The greedy loop on a :class:`CoverTable`, pick for pick the reference's."""
    uncovered: Set = set(universe)
    missing = uncovered - table.reachable
    if missing:
        raise GraphError(f"elements {sorted(missing)!r} appear in no candidate set")

    row_of, holders = table.row, table._holders
    if element_weights is None:
        element_weight = np.ones(len(table.elements))
    else:
        element_weight = np.array(
            [element_weights.get(element, 1.0) for element in table.elements],
            dtype=np.float64,
        )
    # Live frequency and weight of every key, summed row by row.
    counts = np.zeros(len(table), dtype=np.int64)
    weights = np.zeros(len(table), dtype=np.float64)
    for row in sorted(row_of[element] for element in uncovered):
        counts[holders[row]] += 1
        weights[holders[row]] += element_weight[row]
    # f = gain*w - penalty: the paper's benefit, or w - cost for "savings".
    # Keys that cover nothing more score -inf.
    gain = 1.0 if strategy == "savings" else beta
    penalty = table.costs if strategy == "savings" else (1.0 - beta) * table.costs
    score = gain * weights - penalty
    score[counts == 0] = -np.inf

    steps: List[CoverStep] = []
    covered_by: Dict = {}
    while uncovered:
        if budget is not None:
            try:
                budget.spend(max(1, len(table)))
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    f"greedy cover interrupted with {len(uncovered)} of "
                    f"{len(covered_by) + len(uncovered)} elements uncovered: "
                    f"{exc}",
                    partial=CoverSolution(
                        steps=tuple(steps), covered_by=dict(covered_by)
                    ),
                ) from exc
        # Rank (f, frequency, -cost), then the lowest index (tie order).
        # A spent key can tie only at -inf, and then loses on frequency.
        best_score = score.max()
        best = np.flatnonzero(score == best_score)
        best = best[counts[best] == counts[best].max()]
        best = best[table.costs[best] == table.costs[best].min()]
        index = int(best[0])
        key = table.ordered_keys[index]
        newly = table[key] & uncovered
        steps.append(
            CoverStep(
                color=key,
                benefit=float(best_score),
                frequency=len(newly),
                cost=float(table.costs[index]),
                newly_covered=frozenset(newly),
            )
        )
        for element in newly:
            covered_by[element] = key
            row = row_of[element]
            counts[holders[row]] -= 1
            weights[holders[row]] -= element_weight[row]
        touched = np.concatenate([holders[row_of[element]] for element in newly])
        score[touched] = np.where(
            counts[touched] > 0,
            gain * weights[touched] - penalty[touched],
            -np.inf,
        )
        uncovered -= newly
    return CoverSolution(steps=tuple(steps), covered_by=covered_by)


def _greedy_cover_reference(
    universe: Set,
    sets: Mapping[Hashable, FrozenSet],
    costs: Mapping[Hashable, float],
    beta: float,
    element_weights: Mapping,
    strategy: str,
    budget: Optional["SolverBudget"],
) -> CoverSolution:
    """The paper's greedy loop over plain mappings: rescan every set per pick.

    Kept as the oracle that tests and benchmarks hold :func:`_greedy_cover`
    to; production code never calls it.
    """
    weights = element_weights if element_weights is not None else {}
    uncovered: Set = set(universe)
    reachable: Set = set()
    for members in sets.values():
        reachable |= members
    missing = uncovered - reachable
    if missing:
        raise GraphError(f"elements {sorted(missing)!r} appear in no candidate set")

    # Reverse index so each pick only touches the sets of removed elements.
    sets_of_element: Dict[Hashable, List[Hashable]] = {}
    for key, members in sets.items():
        for element in members:
            sets_of_element.setdefault(element, []).append(key)
    remaining_count: Dict[Hashable, int] = {}
    remaining_weight: Dict[Hashable, float] = {}
    for key, members in sets.items():
        live = members & uncovered
        remaining_count[key] = len(live)
        remaining_weight[key] = sum(weights.get(e, 1.0) for e in live)

    steps: List[CoverStep] = []
    covered_by: Dict = {}
    while uncovered:
        if budget is not None:
            try:
                budget.spend(max(1, len(remaining_count)))
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    f"greedy cover interrupted with {len(uncovered)} of "
                    f"{len(covered_by) + len(uncovered)} elements uncovered: "
                    f"{exc}",
                    partial=CoverSolution(
                        steps=tuple(steps), covered_by=dict(covered_by)
                    ),
                ) from exc
        best_key = None
        best_rank: Tuple[float, float, float] = (float("-inf"), 0.0, 0.0)
        for key, frequency in remaining_count.items():
            if frequency == 0:
                continue
            if strategy == "savings":
                f = remaining_weight[key] - costs[key]
            else:
                f = benefit(remaining_weight[key], costs[key], beta)
            rank = (f, frequency, -costs[key])
            if (
                best_key is None
                or rank > best_rank
                or (rank == best_rank and _tie_order(key) < _tie_order(best_key))
            ):
                best_key, best_rank = key, rank
        if best_key is None:  # pragma: no cover - guarded by reachability check
            raise GraphError("greedy cover stalled with uncovered elements")
        newly = sets[best_key] & uncovered
        steps.append(
            CoverStep(
                color=best_key,
                benefit=best_rank[0],
                frequency=len(newly),
                cost=costs[best_key],
                newly_covered=frozenset(newly),
            )
        )
        for element in newly:
            covered_by[element] = best_key
            for key in sets_of_element.get(element, ()):
                remaining_count[key] -= 1
                remaining_weight[key] -= weights.get(element, 1.0)
        uncovered -= newly
    return CoverSolution(steps=tuple(steps), covered_by=covered_by)


def _tie_order(key: Hashable) -> Tuple[int, str]:
    """Deterministic total order for final tie-breaking: shortlex on repr.

    For the positive-integer color keys the MRP layer uses, shortlex equals
    numeric order — so ties fall to the *smallest* color, which is more likely
    to alias a vertex (paper step 6) and is never more expensive to shift.
    """
    text = repr(key)
    return (len(text), text)
