"""Command-line front end: reports, exit codes, determinism."""
from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import parlimits
from parlimits import cli, timeline
from parlimits.cli import main

HEADER = ("name,year,rank,benchmark,rmax_gflops,rpeak_gflops,"
          "cores,architecture,accelerator")

SCENARIO = """
n_units = 2
payload_cycles = 100
dispatch_cycles = 10
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- analyze -------------------------------------------------------------------

def test_analyze_bundled_dataset(capsys):
    code, out, err = run(capsys, "analyze")
    assert code == 0
    assert err == ""
    assert "Sunway TaihuLight" in out
    assert "3.27300e-08" in out
    assert "records" in out


def test_analyze_all_sections_in_json(capsys):
    code, out, _ = run(capsys, "analyze", "--fits", "--ratios",
                       "--rank-correlation", "--json")
    assert code == 0
    doc = json.loads(out)
    assert "analyze" in doc["command"]
    titles = [t["title"] for t in doc["tables"]]
    assert any("scaling points" in t for t in titles)
    assert any("fits" in t for t in titles)
    assert any("ratio" in t for t in titles)
    assert any("rank" in t for t in titles)
    assert doc["counts"]["records"] == 20
    assert doc["inputs"] and all("sha256" in i for i in doc["inputs"])


def test_analyze_reads_dataset_argument(tmp_path, capsys):
    p = tmp_path / "tiny.csv"
    p.write_text(HEADER + "\nBox,2017,1,HPL,9.0,10.0,64,MPP,None\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "Box" in out


def test_analyze_quarantined_rows_become_warnings(tmp_path, capsys):
    p = tmp_path / "mixed.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n"
                 "Bad,2017,2,HPL,oops,10.0,64,MPP,None\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "Good" in out
    assert "row 3" in out


def test_analyze_quarantines_a_cell_beyond_the_csv_field_limit(tmp_path, capsys):
    # Too big for a golden file: the cell is one character over the limit.
    limit = csv.field_size_limit()
    p = tmp_path / "oversized.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n"
                 f'"{"x" * (limit + 1)}",2017,2,HPL,9.0,10.0,64,MPP,None\n'
                 "Next,2017,3,HPL,9.0,10.0,64,MPP,None\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["counts"] == {"records": 2, "quarantined": 1}
    assert doc["warnings"] == [f"row 3 quarantined: field larger than field limit ({limit})"]
    assert [row[0] for row in doc["tables"][0]["rows"]] == ["Good", "Next"]


def test_analyze_header_beyond_the_csv_field_limit_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "oversized_header.csv"
    p.write_text(f'"{"x" * (csv.field_size_limit() + 1)}",{HEADER}\n', encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p))
    assert (code, out) == (2, "")
    assert err == (f"parlimits: input error: {p}: unreadable header: field larger than "
                   f"field limit ({csv.field_size_limit()})\n")


def test_analyze_quarantines_infinite_rates(tmp_path, capsys):
    p = tmp_path / "inf.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n"
                 "Endless,2017,2,HPL,inf,inf,64,MPP,None\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "quarantined: 1" in out
    assert "row 3 quarantined" in out


def test_analyze_tolerates_efficiency_near_one(tmp_path, capsys):
    # Efficiency 0.99999: the coherence check must not cancel.
    p = tmp_path / "tight.csv"
    p.write_text(HEADER + "\nTight,2017,2,HPL,99999.0,100000.0,1000,MPP,None\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p))
    assert (code, err) == (0, "")
    assert "Tight" in out


@pytest.mark.parametrize("bad_row, reason", [
    ("Underflow,2017,2,HPL,1e-300,1e300,64,MPP,None",
     "efficiency rmax/rpeak = 0.0 is below the smallest normal float"),
    ("Subnormal,2017,2,HPL,1e-10,1e300,64,MPP,None",
     "efficiency rmax/rpeak = 1e-310 is below the smallest normal float"),
    ("Huge,2017,2,HPL,9.0,10.0," + "1" + "0" * 400 + ",MPP,None",
     "cores exceeds the float range"),
    ("Far,2017," + "1" + "0" * 400 + ",HPL,9.0,10.0,64,MPP,None",
     "rank exceeds the float range"),
    # rmax is rpeak * (1 + 1e-9) rounded: inside the slack as a product, but
    # the subnormal rpeak's rounding puts the quotient rmax/rpeak outside it.
    ("Edge,2017,2,HPL,2.225073860732e-311,2.225073858507e-311,64,MPP,None",
     "rmax 2.225073860732e-311 exceeds rpeak 2.225073858507e-311"),
], ids=["underflow", "subnormal", "huge-cores", "huge-rank", "subnormal-rpeak"])
def test_analyze_quarantines_records_without_a_point(bad_row, reason, tmp_path, capsys):
    p = tmp_path / "edge.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n" + bad_row + "\n"
                 "Other,2017,3,HPL,5.0,10.0,64,MPP,None\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--fits", "--dataset", str(p))
    assert (code, err) == (0, "")
    assert "records: 2" in out
    assert "quarantined: 1" in out
    assert f"row 3 quarantined: {reason}\n" in out
    assert "Good" in out and "Other" in out


def _refuse_non_json(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("side", ["HPL", "HPCG"])
def test_analyze_leaves_efficiency_one_out_of_ratios_and_fits(side, tmp_path, capsys):
    # rmax == rpeak is legal and gives one_minus_alpha 0: no ratio and no
    # log10 point exists for it, but every other machine is still analyzed.
    rows = {("A", "HPL"): "80.0", ("B", "HPL"): "50.0", ("C", "HPL"): "40.0",
            ("A", "HPCG"): "2.0", ("B", "HPCG"): "1.5", ("C", "HPCG"): "1.0"}
    rows["A", side] = "100.0"
    p = tmp_path / "perfect.csv"
    p.write_text(HEADER + "\n" + "".join(
        f"{name},2017,{rank},{bench},{rmax},100.0,1000,MPP,None\n"
        for rank, ((name, bench), rmax) in enumerate(rows.items(), 1)), encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), "--fits", "--ratios",
                         "--rank-correlation", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_refuse_non_json)
    assert doc["warnings"] == [
        f"category {side}/MPP: 1 point(s) with one_minus_alpha 0 left out of the log10 fit",
        f"skipping 'A' in ratios: one_minus_alpha is 0 under {side}",
    ]
    tables = {t["title"]: t["rows"] for t in doc["tables"]}
    assert len(tables["scaling points"]) == 6
    # Its amplification is infinite, spelled as the text report spells it.
    assert sum(row.count("inf") for row in tables["scaling points"]) == 1
    assert {row[0]: row[1] for row in tables["trend fits: log10(one_minus_alpha) vs rank"]} \
        == {"HPCG/MPP": 3, "HPL/MPP": 3, f"{side}/MPP": 2}
    assert [row[0] for row in tables["one_minus_alpha ratios HPCG/HPL"]] == ["B", "C"]
    assert len(tables["ratio summary"]) == 1
    assert tables["rank agreement HPL vs HPCG"][0][0] == 3


def test_analyze_names_the_list_year_of_each_row_when_there_are_two(tmp_path, capsys):
    # A under both benchmarks in 2016 and in 2017: the two ratio rows, and
    # the two rows of each benchmark, differ in their year.
    p = tmp_path / "two_editions.csv"
    p.write_text(HEADER + "\n" + "".join(
        f"A,{year},1,{bench},{rmax},100.0,1000,MPP,None\n"
        for year in (2016, 2017) for bench, rmax in (("HPL", 80.0), ("HPCG", 2.0))),
        encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), "--ratios", "--json")
    assert (code, err) == (0, "")
    tables = {t["title"]: t for t in json.loads(out)["tables"]}
    points = tables["scaling points"]
    assert points["columns"][:3] == ["name", "year", "benchmark"]
    assert [row[:3] for row in points["rows"]] == [
        ["A", 2016, "HPL"], ["A", 2016, "HPCG"], ["A", 2017, "HPL"], ["A", 2017, "HPCG"]]
    ratios = tables["one_minus_alpha ratios HPCG/HPL"]
    assert ratios["columns"] == ["name", "year", "hpl", "hpcg", "ratio"]
    assert [row[:2] for row in ratios["rows"]] == [["A", 2016], ["A", 2017]]


@pytest.mark.parametrize("flags, paired", [
    (["--ratios", "--rank-correlation"], True), (["--fits"], False)])
def test_analyze_leaves_a_repeated_name_unpaired(flags, paired, tmp_path, capsys):
    # Two HPL rows named Twin in one list: neither is the HPCG Twin's machine.
    p = tmp_path / "twin.csv"
    p.write_text(HEADER + "\n" + "".join(
        f"{name},2017,{rank},{bench},{rmax},100.0,1000,MPP,None\n"
        for rank, (name, bench, rmax) in enumerate([
            ("A", "HPL", 90.0), ("Twin", "HPL", 80.0), ("Twin", "HPL", 10.0),
            ("B", "HPL", 70.0), ("C", "HPL", 60.0), ("A", "HPCG", 2.0),
            ("Twin", "HPCG", 1.8), ("B", "HPCG", 1.5), ("C", "HPCG", 1.0)], 1)),
        encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), *flags, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    tables = {t["title"]: t["rows"] for t in doc["tables"]}
    assert [row[:3] for row in tables["scaling points"] if row[0] == "Twin"] == [
        ["Twin", "HPL", 2], ["Twin", "HPL", 3], ["Twin", "HPCG", 7]]
    warning = ("name 'Twin' appears 2 times under HPL in 2017; "
               "left out of ratios and rank correlation")
    assert (warning in doc["warnings"]) == paired
    if paired:
        assert doc["warnings"].count(warning) == 1
        assert [row[0] for row in tables["one_minus_alpha ratios HPCG/HPL"]] == ["A", "B", "C"]
        assert tables["rank agreement HPL vs HPCG"][0][0] == 3


def test_analyze_unfit_warning_counts_only_usable_points(tmp_path, capsys):
    p = tmp_path / "one_usable.csv"
    p.write_text(HEADER + "\nA,2017,1,HPL,100.0,100.0,1000,MPP,None\n"
                 "B,2017,2,HPL,50.0,100.0,1000,MPP,None\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), "--fits", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["warnings"] == [
        "category HPL/MPP: only 1 point(s), no fit possible",
        "category HPL/MPP: 1 point(s) with one_minus_alpha 0 left out of the log10 fit",
    ]


def test_analyze_with_no_ratio_left_warns(tmp_path, capsys):
    p = tmp_path / "all_perfect.csv"
    p.write_text(HEADER + "\nA,2017,1,HPL,100.0,100.0,1000,MPP,None\n"
                 "A,2017,1,HPCG,1.0,100.0,1000,MPP,None\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--dataset", str(p), "--ratios", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["warnings"] == [
        "skipping 'A' in ratios: one_minus_alpha is 0 under HPL",
        "no machine has one_minus_alpha > 0 under both benchmarks; no ratios",
    ]


def test_analyze_empty_but_valid_dataset_warns(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text(HEADER + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "no usable records" in out


def test_analyze_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "analyze", "--dataset", "/no/such/file.csv")
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_analyze_schema_error_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("name,year\nX,2017\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", "--dataset", str(p))
    assert code == 2
    assert "input error" in err


# ---- simulate -------------------------------------------------------------------

def test_simulate_reports_breakdown(tmp_path, capsys):
    p = tmp_path / "two.scn"
    p.write_text(SCENARIO, encoding="utf-8")
    code, out, _ = run(capsys, "simulate", str(p))
    assert code == 0
    assert "1.20000e+02" in out   # total cycles
    assert "8.00000e-01" in out   # effective alpha
    assert "payload" in out


def test_simulate_json_shape(tmp_path, capsys):
    p = tmp_path / "two.scn"
    p.write_text(SCENARIO, encoding="utf-8")
    code, out, _ = run(capsys, "simulate", str(p), "--json")
    doc = json.loads(out)
    assert code == 0
    titles = [t["title"] for t in doc["tables"]]
    assert titles == ["timing", "capacity shares", "per-unit timeline"]
    timing = doc["tables"][0]
    row = dict(zip(timing["columns"], timing["rows"][0]))
    assert row["n_units"] == 2
    assert row["total_cycles"] == 120.0


GOLDEN = Path(__file__).parent / "golden"


# uniform_8 and uniform_1000 were recorded before uniform fields had a
# closed form; uniform_1e12 is checked against exact arithmetic in
# test_timeline.py, since no per-unit array of that size fits in memory.
# ramp_200001 and ramp_1e6_dyadic were recorded before the schedule was
# walked in blocks, and span several of them. The JSON reports of uniform_8,
# uniform_1000 and ramp_200001 were re-recorded when 1 - alpha became the
# exact quotient of the totals, rounded once; their text reports kept their
# bytes. ramp_1e6_dyadic and peak_last, whose explicit payload rises and
# falls but is largest at the last unit, were walked when they were recorded;
# now the last unit's end is taken without a walk.
@pytest.mark.parametrize("name", ["three_units", "ramp_1000", "uniform_8", "uniform_1000",
                                  "uniform_1e12", "ramp_200001", "ramp_1e6_dyadic",
                                  "peak_last"])
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_simulate_report_matches_golden_bytes(name, fmt, capsys, monkeypatch):
    # The golden reports name the scenario by its relative path.
    monkeypatch.chdir(GOLDEN)
    argv = ["simulate", f"{name}.scn"] + (["--json"] if fmt == "json" else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_last_unit_of_a_ramp_under_a_dyadic_dispatch_ends_last_without_a_walk(
        capsys, monkeypatch):
    # Every busy field of ramp_1e6_dyadic is uniform or a ramp, so its largest
    # value is the last unit's, and every dispatch sum is exact.
    def walk(*args):
        raise AssertionError("the schedule of ramp_1e6_dyadic was walked")

    monkeypatch.setattr(timeline, "_starts", walk)
    monkeypatch.chdir(GOLDEN)
    code, out, err = run(capsys, "simulate", "ramp_1e6_dyadic.scn", "--json")
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "ramp_1e6_dyadic.json").read_bytes()


ANALYZE_ALL = ["analyze", "--fits", "--ratios", "--rank-correlation"]
BOUNDS_GROUPED = ["bounds", "--total-cycles", "2e13", "--start-stop-cycles", "2",
                  "--distance-m", "100", "--clock-hz", "1e9",
                  "--context-switch-cycles", "1e4", "--n-units", "10000000",
                  "--dispatch-cycles", "1", "--cores-per-group", "64",
                  "--mpe-per-group", "1"]
FORECAST_GOLDEN = ["forecast", "--target", "1e18", "--per-processor-perf", "11.78e9",
                   "--achieved-one-minus-alpha", "3.273e-8"]


# edge_records.csv has a reordered header with a repeated extra column, a
# blank line, a short row, extra cells, a duplicate rank, a single-core row
# and a name with quotes and non-ASCII characters. edge_points.csv holds
# about 100 rows with scaling-model edges: efficiency exactly 1 and a hair
# above it, a sub-serial row (E < 1/k), single-core rows, one row for each
# of the benchmark's eight quarantine reasons, and numeric cells padded with
# spaces, tabs, no-break spaces and the ASCII separators \x1c-\x1f.
# same_names.csv repeats one name under HPL and another under HPCG in one
# year; four other machines still pair.
GOLDEN_REPORTS = [
    ("analyze_packaged", ANALYZE_ALL),
    ("analyze_edge", ANALYZE_ALL[:1] + ["--dataset", "edge_records.csv"] + ANALYZE_ALL[1:]),
    ("bounds_grouped", BOUNDS_GROUPED),
    ("forecast", FORECAST_GOLDEN),
    ("bounds_grouped_full", BOUNDS_GROUPED + ["--full-precision"]),
    ("analyze_edge_points",
     ANALYZE_ALL[:1] + ["--dataset", "edge_points.csv"] + ANALYZE_ALL[1:]),
    ("analyze_cr_only", ANALYZE_ALL[:1] + ["--dataset", "cr_only.csv"] + ANALYZE_ALL[1:]),
    ("analyze_lone_cr", ANALYZE_ALL[:1] + ["--dataset", "lone_cr.csv"] + ANALYZE_ALL[1:]),
    ("analyze_two_years",
     ANALYZE_ALL[:1] + ["--dataset", "two_years.csv"] + ANALYZE_ALL[1:]),
    ("analyze_same_names",
     ANALYZE_ALL[:1] + ["--dataset", "same_names.csv"] + ANALYZE_ALL[1:]),
]
FORMAT_FLAGS = {"txt": [], "json": ["--json"]}


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_report_matches_golden_bytes(name, argv, fmt, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run(capsys, *argv, *(["--json"] if fmt == "json" else []))
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_analyze_reads_no_dataset_from_the_environment(tmp_path, capsys, monkeypatch):
    # --dataset is the one way to name a record file: a path in the
    # environment, even a missing one, leaves the packaged report as it is.
    monkeypatch.setenv("PARLIMITS_DATASET", str(tmp_path / "missing.csv"))
    code, out, err = run(capsys, *ANALYZE_ALL)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / "analyze_packaged.txt").read_bytes()


def test_analyze_has_no_weak_threshold_option(capsys):
    code, out, err = run(capsys, *ANALYZE_ALL, "--weak-threshold", "0.4")
    assert (code, out) == (1, "")
    assert "error: unrecognized arguments: --weak-threshold 0.4" in err


def test_forecast_curve_files_match_golden_bytes(tmp_path, capsys):
    code, _, err = run(capsys, *FORECAST_GOLDEN, "--curves-dir", str(tmp_path))
    assert (code, err) == (0, "")
    expected = GOLDEN / "forecast_curves"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["achieved.csv", "required.csv"]
    for f in tmp_path.iterdir():
        assert f.read_bytes() == (expected / f.name).read_bytes(), f.name


USAGE_ERROR = ["bounds", "--total-cycles", "2e13"]


def test_repeated_calls_in_one_process_answer_alike(capsys, monkeypatch):
    # main() may keep its argument parser between calls; no call may see
    # what an earlier one parsed, printed or failed on.
    monkeypatch.chdir(GOLDEN)
    calls = [USAGE_ERROR, ["--version"]]
    for _, argv in GOLDEN_REPORTS:
        for flags in FORMAT_FLAGS.values():
            calls += [argv + flags] * 2
    calls.append(USAGE_ERROR)

    first: dict[tuple, tuple] = {}
    for argv in calls:
        result = run(capsys, *argv)
        assert result == first.setdefault(tuple(argv), result), argv

    assert first[tuple(USAGE_ERROR)] == (1, "", (
        "parlimits bounds: error: the following arguments are required: "
        "--start-stop-cycles, --distance-m, --clock-hz, --context-switch-cycles, "
        "--n-units, --dispatch-cycles\n"))
    assert first[("--version",)] == (0, f"parlimits {parlimits.__version__}\n", "")
    for name, argv in GOLDEN_REPORTS:
        for fmt, flags in FORMAT_FLAGS.items():
            golden = (GOLDEN / f"{name}.{fmt}").read_bytes().decode("utf-8")
            assert first[tuple(argv + flags)] == (0, golden, ""), (name, fmt)


@pytest.mark.parametrize("argv", [
    ["analyze", "--dataset", "edge_records.csv"],
    ["simulate", "three_units.scn"],
])
def test_input_is_closed_after_reading(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(parlimits.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "parlimits.cli", *argv],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("argv", [
    ["analyze", "--dataset", "edge_records.csv"],
    ["simulate", "three_units.scn"],
])
def test_reported_digest_is_of_the_input_bytes(argv, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    digest = hashlib.sha256((GOLDEN / argv[-1]).read_bytes()).hexdigest()
    assert json.loads(out)["inputs"] == [{"source": argv[-1], "sha256": digest}]


def test_crlf_dataset_digest_is_of_the_file_bytes(tmp_path, capsys):
    p = tmp_path / "crlf.csv"
    p.write_bytes((HEADER + "\r\nBox,2017,1,HPL,9.0,10.0,64,MPP,None\r\n").encode("utf-8"))
    code, out, _ = run(capsys, "analyze", "--dataset", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"quarantined": 0, "records": 1}
    assert doc["inputs"][0]["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()


def test_crlf_scenario_digest_is_of_the_file_bytes(tmp_path, capsys):
    p = tmp_path / "crlf.scn"
    p.write_bytes(SCENARIO.replace("\n", "\r\n").encode("utf-8"))
    code, out, _ = run(capsys, "simulate", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"][0]["rows"][0][:2] == [2, 120.0]
    assert doc["inputs"][0]["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()


def _report_with_and_without_bom(tmp_path, capsys, text, name, *argv):
    """JSON reports of one input file written with a leading U+FEFF and without,
    and the sha256 of the file with it."""
    docs = []
    for prefix in ("\ufeff", ""):
        p = tmp_path / f"{len(prefix)}{name}"
        p.write_bytes((prefix + text).encode("utf-8"))
        code, out, err = run(capsys, *argv, str(p), "--json")
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    return docs, hashlib.sha256((tmp_path / f"1{name}").read_bytes()).hexdigest()


def test_dataset_with_a_byte_order_mark_parses_as_without_it(tmp_path, capsys):
    text = parlimits.ingest.bundled_csv_text()
    (with_bom, without), digest = _report_with_and_without_bom(
        tmp_path, capsys, text, "records.csv", "analyze", "--fits", "--dataset")
    assert with_bom["inputs"][0]["sha256"] == digest
    for doc in (with_bom, without):
        del doc["command"], doc["inputs"]
    assert with_bom == without
    records = parlimits.parse_csv("\ufeff" + text)
    assert records.records == parlimits.parse_csv(text).records
    assert records.provenance.sha256 == digest


def test_scenario_with_a_byte_order_mark_parses_as_without_it(tmp_path, capsys):
    (with_bom, without), digest = _report_with_and_without_bom(
        tmp_path, capsys, SCENARIO, "two.scn", "simulate")
    assert with_bom["inputs"][0]["sha256"] == digest
    for doc in (with_bom, without):
        del doc["command"], doc["inputs"]
    assert with_bom == without
    assert parlimits.parse_scenario("\ufeff" + SCENARIO) == parlimits.parse_scenario(SCENARIO)


def test_simulate_omits_per_unit_table_for_wide_machines(tmp_path, capsys):
    lines = "n_units = 40\npayload_cycles = 100\ndispatch_cycles = 1\n"
    p = tmp_path / "wide.scn"
    p.write_text(lines, encoding="utf-8")
    code, out, _ = run(capsys, "simulate", str(p))
    assert code == 0
    assert "per-unit table omitted" in out
    assert "40 units > 32" in out


@pytest.mark.parametrize("dispatch", ["0.1", "linear:1"])
def test_simulate_beyond_memory_is_one_line_input_error(dispatch, tmp_path, capsys):
    # 2**56 entries of 8 bytes exceed any 57-bit address space, so the
    # allocation fails at once without touching memory.
    n = 2**56
    p = tmp_path / "vast.scn"
    p.write_text(f"n_units = {n}\npayload_cycles = 1\ndispatch_cycles = {dispatch}\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(p))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.endswith(f"n_units = {n} needs per-unit arrays beyond the available memory\n")


@pytest.mark.parametrize("dispatch", ["1", "1e300"])
def test_simulate_tiny_payload_is_one_line_degenerate_error(dispatch, tmp_path, capsys):
    # S = payload / total underflows to 0 with the larger dispatch; with the
    # smaller, 1 - alpha = (k - S) / ((k - 1) S) overflows.
    p = tmp_path / "tiny.scn"
    p.write_text(f"n_units = 2\npayload_cycles = 5e-324\ndispatch_cycles = {dispatch}\n",
                 encoding="utf-8")
    code, out, err = run(capsys, "simulate", str(p))
    assert (code, out) == (2, "")
    assert err == ("parlimits: input error: payload is too small against the total "
                   "cycles for a finite 1 - alpha\n")


def test_simulate_malformed_scenario_is_input_error(tmp_path, capsys):
    p = tmp_path / "broken.scn"
    p.write_text("n_units = 2\nwat = 5\n", encoding="utf-8")
    code, _, err = run(capsys, "simulate", str(p))
    assert code == 2
    assert ":2:" in err


# ---- bounds -----------------------------------------------------------------------

BOUNDS_ARGS = ["bounds", "--total-cycles", "2e13",
               "--start-stop-cycles", "2",
               "--distance-m", "100", "--clock-hz", "1e9",
               "--context-switch-cycles", "1e4",
               "--n-units", "10000000", "--dispatch-cycles", "1"]


def test_bounds_reports_all_floors_and_the_binding_one(capsys):
    code, out, _ = run(capsys, *BOUNDS_ARGS)
    assert code == 0
    for kind in ("start-stop", "propagation", "context-switch", "os-looping"):
        assert kind in out
    assert "combined <- os-looping" in out
    assert "5e-07" in out


def test_bounds_full_precision_shows_repr(capsys):
    code, out, _ = run(capsys, *BOUNDS_ARGS, "--full-precision")
    assert code == 0
    assert "1e-13" in out
    assert "5e-07" in out


def test_bounds_grouping_table(capsys):
    args = [a if a != "10000000" else "10649600" for a in BOUNDS_ARGS]
    code, out, _ = run(capsys, *args,
                       "--cores-per-group", "260", "--mpe-per-group", "4")
    assert code == 0
    assert "grouped" in out
    assert "40960" in out


def test_bounds_grouping_flags_must_come_together(capsys):
    code, _, err = run(capsys, *BOUNDS_ARGS, "--cores-per-group", "260")
    assert code == 1


def test_bounds_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "bounds", "--total-cycles", "2e13")
    assert code == 1


def test_bounds_unit_count_beyond_float_range_is_input_error(capsys):
    args = [a if a != "10000000" else "1" + "0" * 400 for a in BOUNDS_ARGS]
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith("parlimits: input error: n_units") and err.count("\n") == 1


def test_bounds_floor_beyond_float_range_names_its_operands(capsys):
    args = [{"2e13": "1e-300", "2": "1e10", "10000000": "10"}.get(a, a) for a in BOUNDS_ARGS]
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    assert err == ("parlimits: input error: start-stop floor overflows the float range: "
                   "cycles 10000000000.0 / total_cycles 1e-300\n")


def test_bounds_non_divisible_grouping_is_input_error(capsys):
    code, _, err = run(capsys, *BOUNDS_ARGS,
                       "--cores-per-group", "3", "--mpe-per-group", "1")
    assert code == 2
    assert "input error" in err


# ---- forecast ------------------------------------------------------------------------

FORECAST_ARGS = ["forecast", "--target", "1e18",
                 "--per-processor-perf", "11.78e9",
                 "--achieved-one-minus-alpha", "3.273e-8"]


def test_forecast_verdict_table(capsys):
    code, out, _ = run(capsys, *FORECAST_ARGS)
    assert code == 0
    assert "not-achievable" in out
    assert "1.17800e-08" in out  # required distance
    assert "stays fixed" in out  # the fixed-alpha caveat


def test_forecast_writes_curve_files(tmp_path, capsys):
    code, out, _ = run(capsys, *FORECAST_ARGS,
                       "--curves-dir", str(tmp_path))
    assert code == 0
    files = sorted(f.name for f in tmp_path.iterdir())
    assert files == ["achieved.csv", "required.csv"]
    for f in tmp_path.iterdir():
        lines = f.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rpeak_flops,rmax_flops"
        values = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert all(a <= b for (a, _), (b, _) in zip(values, values[1:]))
        assert all(m <= p * (1 + 1e-12) for p, m in values)


def test_forecast_achievable_case(capsys):
    code, out, _ = run(capsys, "forecast", "--target", "1e18",
                       "--per-processor-perf", "1e10",
                       "--achieved-one-minus-alpha", "5e-9")
    assert code == 0
    assert "achievable" in out


def test_forecast_sub_serial_distance_is_input_error(capsys):
    code, out, err = run(capsys, "forecast", "--target", "1e18", "--per-processor-perf", "1e10",
                         "--achieved-one-minus-alpha", "2")
    assert (code, out) == (2, "")
    assert err == "parlimits: input error: a sub-serial 1 - alpha (2.0 > 1) has no rising curve\n"


def test_forecast_trivial_target_is_input_error(capsys):
    code, _, err = run(capsys, "forecast", "--target", "1e9",
                       "--per-processor-perf", "2e9",
                       "--achieved-one-minus-alpha", "1e-7")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("rates", [["--target", "inf"],
                                   ["--target", "1e18", "--rpeak-max", "inf"],
                                   ["--target", "inf", "--rpeak-max", "1e19"]])
def test_forecast_infinite_sweep_ceiling_is_input_error(rates, capsys):
    code, out, err = run(capsys, "forecast", *rates, "--per-processor-perf", "1e10",
                         "--achieved-one-minus-alpha", "1e-8")
    assert code == 2
    assert out == ""
    assert err.startswith("parlimits: input error:") and err.count("\n") == 1


def test_forecast_sweep_to_the_float_range_keeps_the_curve_monotone(tmp_path, capsys):
    # Near k = 6.5e22 the quotient r_peak / (1 + (k-1)(1-alpha)) loses an ulp
    # between neighbouring samples.
    code, _, err = run(capsys, "forecast", "--target", "1e18", "--per-processor-perf", "1e10",
                         "--achieved-one-minus-alpha", "1e-8", "--rpeak-max", "1e300",
                         "--curves-dir", str(tmp_path))
    assert (code, err) == (0, "")
    for f in tmp_path.iterdir():
        lines = f.read_text(encoding="utf-8").splitlines()[1:]
        r_max = [float(ln.split(",")[1]) for ln in lines]
        assert r_max == sorted(r_max)


@pytest.mark.parametrize("flag", ["--marginal-factor=nan", "--marginal-factor=inf",
                                  "--rpeak-max=0"])
def test_forecast_nonsense_rate_or_factor_is_input_error(flag, capsys):
    # A NaN factor passed the "< 1" test, and a zero ceiling was taken for
    # "not given" and replaced by 10 x target.
    code, out, err = run(capsys, *FORECAST_ARGS, flag)
    assert (code, out) == (2, "")
    assert err.startswith("parlimits: input error:") and err.count("\n") == 1


def test_forecast_sweep_to_the_largest_float_warns_nothing(capsys):
    # The sweep's last decade, up to STEPS[16] * 1e308, ends at the largest float.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "forecast", "--target", "1e18", "--per-processor-perf", "1",
                           "--achieved-one-minus-alpha", "1e-8",
                           "--rpeak-max", "1.7976931348623157e308")
    assert (code, err) == (0, "")


def test_simulate_cycle_totals_beyond_the_float_range_are_input_error(tmp_path, capsys):
    p = tmp_path / "huge.scn"
    p.write_text("n_units = 2\npayload_cycles = 1e308\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", str(p))
    assert (code, out) == (2, "")
    assert err == "parlimits: input error: scenario cycle totals overflow the float range\n"


# ---- every numeric input: exit 0, 1 or 2, with at most one line on stderr ---------------

SWEEP_BASES = {
    "bounds": ["--total-cycles=2e13", "--start-stop-cycles=2", "--distance-m=100",
               "--clock-hz=1e9", "--message-time-s=0", "--context-switch-cycles=1e4",
               "--n-units=1000", "--dispatch-cycles=1", "--cores-per-group=10",
               "--mpe-per-group=1"],
    "forecast": ["--target=1e18", "--per-processor-perf=11.78e9",
                 "--achieved-one-minus-alpha=3.273e-8", "--marginal-factor=2",
                 "--rpeak-max=1e19"],
}
SWEEP_FLAGS = [(cmd, word.split("=")[0]) for cmd, words in SWEEP_BASES.items()
               for word in words if "=" in word]
SWEEP_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e400"]
# simulate takes its numbers from a scenario file: one key of each kind.
SCENARIO_KEYS = {"n_units": "{}", "payload_cycles": "{}", "dispatch_cycles": "linear:{}",
                 "pd_in_cycles": "1,{}", "sw_pre": "{}"}


def _assert_clean_exit(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and err.count("\n") <= 1, err


@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize("cmd, flag", SWEEP_FLAGS)
def test_every_numeric_flag_exits_cleanly(cmd, flag, value, capsys):
    argv = [f"{flag}={value}" if word.startswith(flag + "=") else word
            for word in SWEEP_BASES[cmd]]
    _assert_clean_exit([cmd, *argv], capsys)


@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize("key", sorted(SCENARIO_KEYS))
def test_every_numeric_scenario_value_exits_cleanly(key, value, tmp_path, capsys):
    entries = {"n_units": "2", "payload_cycles": "100", "dispatch_cycles": "10"}
    entries[key] = SCENARIO_KEYS[key].format(value)
    p = tmp_path / "sweep.scn"
    p.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    _assert_clean_exit(["simulate", str(p)], capsys)


# ---- generic behavior ------------------------------------------------------------------

def _raise_runtime_error(args, report):
    raise RuntimeError("a fault inside a command")


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever it set."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


# One argv per way out of main: exit 0, a usage error, the bounds grouping
# check's SystemExit(1), an input error, and an exception that propagates.
EXIT_PATHS = {
    "exit 0": (BOUNDS_ARGS, 0),
    "usage error": (["bounds", "--total-cycles", "2e13"], 1),
    "grouping flags apart": (BOUNDS_ARGS + ["--cores-per-group", "260"], 1),
    "input error": (["analyze", "--dataset", "/no/such/file.csv"], 2),
    "exception": (BOUNDS_ARGS, RuntimeError),
}


@pytest.mark.parametrize("enabled_before", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("path", EXIT_PATHS)
def test_main_leaves_the_collector_as_it_found_it(path, enabled_before, collector_state,
                                                  capsys, monkeypatch):
    argv, expected = EXIT_PATHS[path]
    (gc.enable if enabled_before else gc.disable)()
    if expected is RuntimeError:
        monkeypatch.setitem(cli._COMMANDS, "bounds", _raise_runtime_error)
        with pytest.raises(RuntimeError, match="a fault inside a command"):
            main(list(argv))
    else:
        assert main(list(argv)) == expected
    assert gc.isenabled() is enabled_before


def test_commands_run_without_collector_passes(capsys, monkeypatch):
    # The collector is off while a command builds and renders its report.
    seen = []
    def spy(args, report):
        seen.append(gc.isenabled())
    monkeypatch.setitem(cli._COMMANDS, "bounds", spy)
    assert main(list(BOUNDS_ARGS)) == 0
    assert seen == [False]

def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_version_prints_and_returns_zero(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out


def test_reports_are_byte_identical_between_runs(tmp_path, capsys):
    first = run(capsys, "analyze", "--fits", "--ratios", "--rank-correlation")
    second = run(capsys, "analyze", "--fits", "--ratios", "--rank-correlation")
    assert first == second
    j1 = run(capsys, *FORECAST_ARGS, "--json")
    j2 = run(capsys, *FORECAST_ARGS, "--json")
    assert j1 == j2


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "parlimits.cli", "analyze"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "Sunway TaihuLight" in proc.stdout
