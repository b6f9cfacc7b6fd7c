"""Minimal signed digit (MSD) enumeration.

A value usually has *several* signed-digit encodings that achieve the minimal
nonzero-digit count; CSD is merely the canonical one.  Enumerating all of them
widens the pattern space for common-subexpression elimination (Park & Kang,
DAC 2001) and gives an independent oracle for the CSD minimality property
tests.  The enumeration is exact and memoized; it is intended for the modest
word lengths of filter coefficients (<= 24 bits), not for bignums.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import span as obs_span
from .digits import SignedDigits

if TYPE_CHECKING:  # pragma: no cover - import would cycle at runtime
    from ..robust.budget import SolverBudget

__all__ = [
    "clear_tables",
    "enumerate_msd",
    "minimal_nonzero_count",
    "msd_count",
    "restore_tables",
    "table_snapshot",
    "table_stats",
    "warm_msd_tables",
]

#: Process-local digit table: ``(value, max_width) -> tuple(SignedDigits)``.
#: A sweep enumerates the same coefficient odd-parts over and over (every
#: wordlength and scaling revisits many of them); the table turns each repeat
#: into a dict hit instead of a recursive search.  :func:`table_snapshot` and
#: :func:`restore_tables` hand it to sweep pool workers; :func:`clear_tables`
#: empties it, so tests and benchmarks can time the search cold.
_TABLE: Dict[Tuple[int, int], Tuple[SignedDigits, ...]] = {}
_TABLE_STATS: Dict[str, int] = {"hits": 0, "misses": 0}

#: Snapshot ceiling: a sweep's coefficient population is a few hundred
#: values; anything beyond this is a runaway caller, not a sweep.
MAX_SNAPSHOT_ENTRIES = 4096

#: One snapshot entry: (value, max_width, encodings-as-digit-tuples).
SnapshotEntry = Tuple[int, int, Tuple[Tuple[int, ...], ...]]


@lru_cache(maxsize=None)
def minimal_nonzero_count(value: int) -> int:
    """Minimum nonzero digits over all signed-digit encodings of ``value``.

    Computed by the standard recurrence on the odd part: an odd ``n`` must end
    in +1 or -1, so ``cost(n) = 1 + min(cost(n-1), cost(n+1))`` with the even
    successors reduced by right-shifting.  Equals the CSD digit count — the
    tests cross-check the two implementations against each other.
    """
    value = abs(value)
    if value == 0:
        return 0
    while value % 2 == 0:
        value //= 2
    if value == 1:
        return 1
    return 1 + min(
        minimal_nonzero_count(value - 1),
        minimal_nonzero_count(value + 1),
    )


def enumerate_msd(
    value: int,
    max_width: int | None = None,
    budget: Optional["SolverBudget"] = None,
) -> List[SignedDigits]:
    """Enumerate every minimal signed-digit encoding of ``value``.

    ``max_width`` bounds the digit positions considered; by default one digit
    beyond the binary width of the value (CSD never needs more).  The result
    is sorted by string form for determinism and always contains the CSD
    encoding of the value.  The optional cooperative ``budget`` is charged one
    unit per enumeration node and raises
    :class:`~repro.errors.BudgetExceeded` on exhaustion.
    """
    if value == 0:
        return [SignedDigits(())]
    if max_width is None:
        max_width = abs(value).bit_length() + 1
    cached = _TABLE.get((value, max_width))
    if cached is not None:
        _TABLE_STATS["hits"] += 1
        if budget is not None:
            # A table hit still charges one unit so budget semantics
            # (deadline checkpoints included) are warmth-independent.
            budget.spend()
        return list(cached)
    target_cost = minimal_nonzero_count(value)
    results: List[Tuple[int, ...]] = []
    with obs_span("msd.enumerate", value=value, max_width=max_width):
        _search(value, 0, max_width, target_cost, (), results, budget)
        encodings = sorted({SignedDigits(r) for r in results}, key=str)
        _TABLE_STATS["misses"] += 1
        _TABLE[(value, max_width)] = tuple(encodings)
        return list(encodings)


def msd_count(value: int) -> int:
    """Number of distinct minimal signed-digit encodings of ``value``."""
    return len(enumerate_msd(value))


def table_snapshot(
    max_entries: int = MAX_SNAPSHOT_ENTRIES,
) -> Tuple[SnapshotEntry, ...]:
    """Picklable copy of this process's MSD table (possibly truncated).

    Snapshots are plain nested tuples of ints, so they cross process
    boundaries cheaply.  Entries are emitted in insertion order, so
    truncation keeps the oldest — i.e. the most-reused — enumerations.
    """
    entries = []
    for (value, max_width), encodings in _TABLE.items():
        if len(entries) >= max_entries:
            break
        entries.append((value, max_width, tuple(e.digits for e in encodings)))
    return tuple(entries)


def restore_tables(snapshot: Optional[Sequence[SnapshotEntry]]) -> int:
    """Merge a snapshot into this process's MSD table; returns entries added.

    Existing entries win (they were computed here and are therefore already
    trusted); restoring is purely additive so a worker can layer the parent's
    snapshot under whatever it computes afterwards.
    """
    added = 0
    for value, max_width, digit_tuples in snapshot or ():
        key = (int(value), int(max_width))
        if key in _TABLE:
            continue
        _TABLE[key] = tuple(SignedDigits(tuple(digits)) for digits in digit_tuples)
        added += 1
    return added


def warm_msd_tables(values: Iterable[int]) -> int:
    """Enumerate (and therefore cache) the MSD sets of ``values``.

    Returns the number of *new* table entries.
    """
    before = len(_TABLE)
    for value in set(values):
        enumerate_msd(int(value))
    return len(_TABLE) - before


def table_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the process-local MSD table."""
    return {
        "entries": len(_TABLE),
        "hits": _TABLE_STATS["hits"],
        "misses": _TABLE_STATS["misses"],
    }


def clear_tables() -> None:
    """Drop every cached enumeration and zero the counters."""
    _TABLE.clear()
    _TABLE_STATS["hits"] = 0
    _TABLE_STATS["misses"] = 0


def _search(
    remaining: int,
    position: int,
    max_width: int,
    digits_left: int,
    prefix: Tuple[int, ...],
    results: List[Tuple[int, ...]],
    budget: Optional["SolverBudget"] = None,
) -> None:
    """Depth-first enumeration of digit choices at ``position``.

    ``remaining`` is the value still to be represented by positions
    ``>= position`` divided by ``2**position`` — i.e. we peel one digit per
    level and halve.  ``digits_left`` is the number of nonzero digits we may
    still spend while staying minimal.
    """
    if budget is not None:
        budget.spend()
    if remaining == 0:
        if digits_left == 0:
            results.append(prefix)
        return
    if position >= max_width or digits_left == 0:
        return
    # A digit d at this position leaves (remaining - d) / 2 for higher ones.
    if remaining % 2 == 0:
        choices = (0,)
    else:
        choices = (1, -1)
    for d in choices:
        rest = (remaining - d) // 2
        cost = 1 if d else 0
        # Prune: the remainder needs at least its own minimal digit count.
        if cost <= digits_left and minimal_nonzero_count(rest) <= digits_left - cost:
            _search(rest, position + 1, max_width, digits_left - cost,
                    prefix + (d,), results, budget)
