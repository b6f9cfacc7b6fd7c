"""The committed paper tables as expected outputs, and the checks against them.

``benchmarks/results/{fig6,fig7,fig8a,fig8b,table1}.txt`` hold the tables
``python -m repro.eval all`` prints for all twelve filters.  A row is keyed
by ``(filter, W)`` in the figure tables and by ``filter`` in Table 1.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .common import RESULTS

TABLE_IDS: Tuple[str, ...] = ("fig6", "fig7", "fig8a", "fig8b", "table1")
#: (reduced method, baseline) of each figure, as the tables print them.
FIGURE_METHODS: Dict[str, Tuple[str, str]] = {
    "fig6": ("mrpf", "simple"),
    "fig7": ("mrpf", "simple"),
    "fig8a": ("mrpf_cse", "cse"),
    "fig8b": ("mrpf_cse", "cse"),
}
_ROW = re.compile(r"^ex\d\d ")


@dataclass(frozen=True)
class Table:
    """One committed table: its title, column layout and rows by key."""

    experiment: str
    title: str
    columns: Tuple[str, ...]
    spans: Tuple[Tuple[int, int], ...]  # [start, end) of each column
    lines: Dict[object, str]           # key -> exact row line
    cells: Dict[object, Dict[str, str]]  # key -> column -> stripped cell

    def widths(self) -> Tuple[int, ...]:
        return tuple(end - start for start, end in self.spans)


def _key(experiment: str, cells: Dict[str, str]):
    if experiment == "table1":
        return cells["example"]
    return (cells["filter"], int(cells["W"]))


def parse_table(experiment: str, text: str) -> Table:
    """Parse one ``format_experiment`` table (title, rule, header, dashes, rows).

    Column boundaries come from the dash line under the header, so cells
    that contain spaces (``SEED SPT (r,s)``) split correctly.
    """
    lines = text.split("\n")
    if len(lines) < 4 or not lines[1].startswith("="):
        raise ValueError(f"{experiment}: not a formatted table")
    title, header, dashes = lines[0], lines[2], lines[3]
    spans = []
    for match in re.finditer(r"-+", dashes):
        spans.append((match.start(), match.end()))
    if not spans:
        raise ValueError(f"{experiment}: no dash line under the header")

    def split(line: str) -> List[str]:
        return [line[start:end].strip() for start, end in spans]

    columns = tuple(split(header))
    rows: Dict[object, str] = {}
    cells: Dict[object, Dict[str, str]] = {}
    for line in lines[4:]:
        if not _ROW.match(line):
            break
        row = dict(zip(columns, split(line)))
        key = _key(experiment, row)
        if key in rows:
            raise ValueError(f"{experiment}: duplicate row {key!r}")
        rows[key] = line
        cells[key] = row
    if not rows:
        raise ValueError(f"{experiment}: table has no rows")
    return Table(experiment, title, columns, tuple(spans), rows, cells)


def load_expected(results_dir: Path = RESULTS) -> Dict[str, Table]:
    tables = {}
    for experiment in TABLE_IDS:
        text = (results_dir / f"{experiment}.txt").read_text(encoding="utf-8")
        tables[experiment] = parse_table(experiment, text)
    return tables


def filter_name(index: int) -> str:
    return f"ex{index + 1:02d}"


def expected_keys(experiment: str, filters: Sequence[int],
                  wordlengths: Sequence[int]) -> List[object]:
    if experiment == "table1":
        return [filter_name(f) for f in filters]
    return [(filter_name(f), w) for f in filters for w in wordlengths]


@dataclass
class Check:
    """Tally of compared rows; ``problems`` describes each bad one."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def check_cli_tables(stdout: str, expected: Dict[str, Table], filters: Sequence[int],
                     wordlengths: Sequence[int], check: Check) -> None:
    """Compare the tables ``repro.eval all`` printed with the committed rows.

    Each printed row must equal the committed line byte for byte, and
    every expected row must be printed exactly once.
    """
    printed: Dict[str, Dict[object, str]] = {e: {} for e in expected}
    by_title = {table.title: e for e, table in expected.items()}
    current: Optional[str] = None
    for line in stdout.split("\n"):
        if line in by_title:
            current = by_title[line]
            continue
        if current is not None and _ROW.match(line):
            table = expected[current]
            row = dict(zip(table.columns, (line[s:e].strip() for s, e in table.spans)))
            printed[current].setdefault(_key(current, row), line)
        elif current is not None and not line.strip():
            current = None
    for experiment, table in expected.items():
        for key in expected_keys(experiment, filters, wordlengths):
            got = printed[experiment].get(key)
            check.record(
                got is not None and got == table.lines.get(key),
                f"{experiment} {key}: printed {got!r}, committed {table.lines.get(key)!r}",
            )


def _figure_line(table: Table, records: List[Dict[str, object]]) -> str:
    """Rebuild one figure row from result records with the report's format."""
    method, baseline = FIGURE_METHODS[table.experiment]
    by_method = {r["method"]: r for r in records}
    first = records[0]
    base = by_method[baseline]["adders"]
    reduced = by_method[method]["adders"]
    if base == 0:
        normalized = 0.0 if reduced == 0 else float("inf")
    else:
        normalized = reduced / base
    cells = [
        str(first["filter"]), str(first["num_unique_taps"]), str(first["wordlength"]),
        str(first["scaling"]), str(base), str(reduced), f"{normalized:.3f}",
    ]
    widths = table.widths()
    return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))


def _table1_cells(record: Dict[str, object]) -> Dict[str, str]:
    return {
        "method": str(record["design_method"]),
        "band": str(record["band"]),
        "order": str(record["order"]),
        "Rp(dB)": f"{record['ripple_db']:.1f}",
        "Rs(dB)": f"{record['atten_db']:.0f}",
        "SEED SPT (r,s)": f"({record['seed_spt_roots']},{record['seed_spt_solution']})",
        "SEED SM (r,s)": f"({record['seed_sm_roots']},{record['seed_sm_solution']})",
    }


def check_job_result(result_text: str, spec: Dict[str, List], expected: Dict[str, Table],
                     check: Check) -> None:
    """Compare a service job's result document with the committed rows.

    Figure rows are rebuilt with the report's cell format and the
    committed column widths, then compared byte for byte with the
    committed line; Table 1 rows are compared cell by cell on every
    column the result carries.
    """
    document = json.loads(result_text)
    outcomes = {entry["experiment"]: entry for entry in document["sweep"]}
    for experiment in spec["experiments"]:
        entry = outcomes.get(experiment)
        ok = entry is not None and bool(entry.get("ok"))
        check.record(ok, f"job experiment {experiment}: {entry and entry.get('error')}")
        if not ok or experiment not in expected:
            continue
        table = expected[experiment]
        records = entry.get("records", [])
        if experiment == "table1":
            got = {r["filter"]: r for r in records}
            for key in expected_keys(experiment, spec["filters"], ()):
                record = got.get(key)
                want = table.cells[key]
                cells = _table1_cells(record) if record is not None else None
                check.record(
                    cells is not None and all(want[c] == v for c, v in cells.items()),
                    f"table1 {key}: result {cells!r}, committed {want!r}",
                )
            continue
        grouped: Dict[object, List[Dict[str, object]]] = {}
        for record in records:
            grouped.setdefault((record["filter"], record["wordlength"]), []).append(record)
        for key in expected_keys(experiment, spec["filters"], spec["wordlengths"]):
            group = grouped.get(key)
            line = _figure_line(table, group) if group else None
            check.record(
                line == table.lines[key],
                f"{experiment} {key}: result {line!r}, committed {table.lines[key]!r}",
            )
