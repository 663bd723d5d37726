"""Command-line front end: reports, exit codes, determinism."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from parlimits.cli import DATASET_ENV_VAR, main

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


def test_analyze_env_var_selects_dataset(tmp_path, capsys, monkeypatch):
    p = tmp_path / "env.csv"
    p.write_text(HEADER + "\nEnvBox,2017,1,HPL,9.0,10.0,64,MPP,None\n",
                 encoding="utf-8")
    monkeypatch.setenv(DATASET_ENV_VAR, str(p))
    code, out, _ = run(capsys, "analyze")
    assert code == 0
    assert "EnvBox" in out
    # explicit flag wins over the environment
    q = tmp_path / "flag.csv"
    q.write_text(HEADER + "\nFlagBox,2017,1,HPL,9.0,10.0,64,MPP,None\n",
                 encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(q))
    assert "FlagBox" in out and "EnvBox" not in out


def test_analyze_quarantined_rows_become_warnings(tmp_path, capsys):
    p = tmp_path / "mixed.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n"
                 "Bad,2017,2,HPL,oops,10.0,64,MPP,None\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "Good" in out
    assert "row 3" in out


def test_analyze_quarantines_infinite_rates(tmp_path, capsys):
    p = tmp_path / "inf.csv"
    p.write_text(HEADER + "\nGood,2017,1,HPL,9.0,10.0,64,MPP,None\n"
                 "Endless,2017,2,HPL,inf,inf,64,MPP,None\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--dataset", str(p))
    assert code == 0
    assert "quarantined: 1" in out
    assert "row 3 quarantined" in out


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


@pytest.mark.parametrize("name", ["three_units", "ramp_1000"])
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_simulate_report_matches_golden_bytes(name, fmt, capsys, monkeypatch):
    # The golden reports name the scenario by its relative path.
    monkeypatch.chdir(GOLDEN)
    argv = ["simulate", f"{name}.scn"] + (["--json"] if fmt == "json" else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_simulate_omits_per_unit_table_for_wide_machines(tmp_path, capsys):
    lines = "n_units = 40\npayload_cycles = 100\ndispatch_cycles = 1\n"
    p = tmp_path / "wide.scn"
    p.write_text(lines, encoding="utf-8")
    code, out, _ = run(capsys, "simulate", str(p))
    assert code == 0
    assert "per-unit table omitted" in out
    assert "40 units > 32" in out


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


def test_forecast_trivial_target_is_input_error(capsys):
    code, _, err = run(capsys, "forecast", "--target", "1e9",
                       "--per-processor-perf", "2e9",
                       "--achieved-one-minus-alpha", "1e-7")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("rates", [["--target", "inf"],
                                   ["--target", "1e18", "--rpeak-max", "inf"]])
def test_forecast_infinite_sweep_ceiling_is_input_error(rates, capsys):
    code, out, err = run(capsys, "forecast", *rates, "--per-processor-perf", "1e10",
                         "--achieved-one-minus-alpha", "1e-8")
    assert code == 2
    assert out == ""
    assert err.startswith("parlimits: input error:") and err.count("\n") == 1


# ---- generic behavior ------------------------------------------------------------------

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
