"""The parser for the committed tables and the output checks built on it."""

import json

import pytest

from perfbench import tables

FIG = """Figure 6 — uniformly scaled: MRPF vs simple (SPT)
=================================================
filter  taps  W   scaling  simple adders  mrpf adders  normalized
------  ----  --  -------  -------------  -----------  ----------
ex01    8     8   uniform  7              5            0.714     
ex01    8     12  uniform  12             8            0.667     

summary:
  mean_reduction: 0.3000"""

T1 = """Table 1 — filter specs and SEED sizes (W=16, maximal scaling, depth<=3)
=======================================================================
example  method  band  order  f_p        f_s        Rp(dB)  Rs(dB)  SEED SPT (r,s)  SEED SM (r,s)
-------  ------  ----  -----  ---------  ---------  ------  ------  --------------  -------------
ex01     BW      LP    14     0.00-0.20  0.45-1.00  4.5     15      (3,6)           (3,5)        """


def test_parse_figure_table():
    table = tables.parse_table("fig6", FIG)
    assert table.columns == ("filter", "taps", "W", "scaling", "simple adders",
                             "mrpf adders", "normalized")
    assert list(table.lines) == [("ex01", 8), ("ex01", 12)]
    assert table.cells[("ex01", 12)]["mrpf adders"] == "8"
    assert table.lines[("ex01", 8)].endswith("0.714     ")


def test_parse_table1_splits_cells_with_spaces():
    table = tables.parse_table("table1", T1)
    assert table.cells["ex01"]["SEED SPT (r,s)"] == "(3,6)"
    assert table.cells["ex01"]["SEED SM (r,s)"] == "(3,5)"
    assert table.cells["ex01"]["f_p"] == "0.00-0.20"


def test_parse_rejects_a_non_table():
    with pytest.raises(ValueError):
        tables.parse_table("fig6", "no table here\n")


def test_committed_tables_cover_every_filter():
    expected = tables.load_expected()
    for experiment in ("fig6", "fig7", "fig8a", "fig8b"):
        assert len(expected[experiment].lines) == 48
    assert len(expected["table1"].lines) == 12


def test_cli_output_check_counts_wrong_and_missing_rows():
    expected = {"fig6": tables.parse_table("fig6", FIG)}
    check = tables.Check()
    tables.check_cli_tables(FIG, expected, [0], [8, 12], check)
    assert (check.attempted, check.failed) == (2, 0)
    broken = FIG.replace("ex01    8     12  uniform  12             8 ",
                         "ex01    8     12  uniform  12             9 ")
    check = tables.Check()
    tables.check_cli_tables(broken, expected, [0], [8, 12, 16], check)
    assert (check.attempted, check.failed) == (3, 2)


def _record(w, method, adders):
    return {"experiment": "fig6", "filter": "ex01", "num_taps": 15, "num_unique_taps": 8,
            "wordlength": w, "scaling": "uniform", "method": method, "adders": adders,
            "depth": 2, "cla_weighted": 1.0}


def test_job_result_rows_are_rebuilt_and_compared_byte_for_byte():
    expected = {"fig6": tables.parse_table("fig6", FIG)}
    spec = {"experiments": ["fig6"], "filters": [0], "wordlengths": [8, 12]}
    records = [_record(8, "simple", 7), _record(8, "mrpf", 5),
               _record(12, "simple", 12), _record(12, "mrpf", 8)]
    document = {"sweep": [{"experiment": "fig6", "ok": True, "records": records}]}
    check = tables.Check()
    tables.check_job_result(json.dumps(document), spec, expected, check)
    assert (check.attempted, check.failed) == (3, 0)
    records[3]["adders"] = 9
    check = tables.Check()
    tables.check_job_result(json.dumps(document), spec, expected, check)
    assert check.failed == 1
