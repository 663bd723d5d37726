"""Tests of the benchmark itself: generators, output checks, smoke runs.

    python3 -m pytest -q perfbench/tests

The checks must accept the program's real reports and reject each one with
a single value perturbed; the generators must be deterministic per seed;
a smoke-size run of every workload must finish in seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

TEXT_NUMBER = re.compile(r"-?\d\.\d{5}e[+-]\d{2}")


def _materialize(workload: str, seed: int, tmp_path: Path) -> workloads.Plan:
    plan = workloads.build(workload, seed, str(tmp_path), size="smoke")
    for path, text in plan.files.items():
        Path(path).write_text(text, encoding="utf-8")
    return plan


def _run_cli(argv: list[str]) -> str:
    from parlimits.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = workloads.build(workload, 7, str(tmp_path), size="smoke")
    again = workloads.build(workload, 7, str(tmp_path), size="smoke")
    other = workloads.build(workload, 8, str(tmp_path), size="smoke")
    assert first == again
    assert [c.argv for c in first.calls] == [c.argv for c in again.calls]
    assert (first.files, [c.spec for c in first.calls]) != \
        (other.files, [c.spec for c in other.calls])


def test_explicit_scenarios_need_not_end_on_the_last_unit(tmp_path):
    plan = workloads.build("timeline-explicit", 3, str(tmp_path), size="smoke")
    for call in plan.calls:
        busy = [p + o for p, o in zip(call.spec["payload"], call.spec["pd_out"])]
        assert len(set(busy)) > 1
    assert any(max(range(len(busy)), key=busy.__getitem__) != len(busy) - 1
               for busy in ([p + o for p, o in zip(c.spec["payload"], c.spec["pd_out"])]
                            for c in plan.calls))


def _text_perturbations(report: str):
    """The report with one printed number changed by two units in its last
    digit, once for each numeric column of each table's first row. (One
    unit can be a legitimate rounding: an integer cycle count like 3474765
    sits exactly halfway between 3.47476e+06 and 3.47477e+06.)"""
    lines = report.split("\n")
    blocks_start = [i + 3 for i, line in enumerate(lines) if line == "" and i + 3 < len(lines)]
    for row_index in blocks_start:
        row = lines[row_index]
        for match in TEXT_NUMBER.finditer(row):
            digits = match.group()
            last = digits.index("e") - 1
            bumped = digits[:last] + str((int(digits[last]) + 2) % 10) + digits[last + 1:]
            changed = row[:match.start()] + bumped + row[match.end():]
            yield "\n".join(lines[:row_index] + [changed] + lines[row_index + 1:])


def _json_perturbations(report: str):
    """The report with one value of a table's first row changed, once for
    each non-string column."""
    doc = json.loads(report)
    for t, table in enumerate(doc["tables"]):
        for c, value in enumerate(table["rows"][0]):
            if isinstance(value, str):
                continue
            changed = json.loads(report)
            if isinstance(value, bool):
                new = not value
            elif isinstance(value, int):
                new = value + 1
            else:
                new = value * (1 + 1e-6) if value else 1e-3
            changed["tables"][t]["rows"][0][c] = new
            yield json.dumps(changed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_real_reports_and_reject_perturbed_ones(workload, tmp_path):
    plan = _materialize(workload, 5, tmp_path)
    for call in plan.calls:
        report = _run_cli(call.argv)
        assert checks.check(call, report) == [], call.argv
        perturbed = list(_json_perturbations(report) if call.as_json
                         else _text_perturbations(report))
        assert perturbed, call.argv
        for bad in perturbed:
            assert checks.check(call, bad), (call.argv, bad)


def test_forecast_check_reads_the_curve_files(tmp_path):
    plan = _materialize("ceilings", 5, tmp_path)
    call = next(c for c in plan.calls if c.kind == "forecast")
    report = _run_cli(call.argv)
    curve = Path(call.spec["curves_dir"]) / "achieved.csv"
    lines = curve.read_text(encoding="utf-8").splitlines()
    peak, rmax = lines[-1].split(",")
    lines[-1] = f"{peak},{float(rmax) * 1.001!r}"
    curve.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert checks.check(call, report)


def test_text_precision_is_half_a_unit_in_the_sixth_digit():
    assert checks.printed_matches("1.23457e+03", 1234.565, as_json=False)
    assert not checks.printed_matches("1.23457e+03", 1234.55, as_json=False)
    assert checks.printed_matches("1.00000e+01", 9.999996, as_json=False)
    assert not checks.printed_matches("1.2346e+03", 1234.6, as_json=False)
    assert checks.printed_matches(2.0 * (1 + 5e-10), 2.0, as_json=True)
    assert not checks.printed_matches(2.0 * (1 + 5e-9), 2.0, as_json=True)


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_finishes_in_seconds(workload, trace):
    start = time.monotonic()
    proc = _run_bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                      "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - start < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    expected = (LAYER_METRICS if trace == "1" else
                ("setup_s", "session_s", "session_cpu_s", "items_per_s", "peak_rss_mb"))
    assert list(result["metrics"]) == list(expected)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_source_tree_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_bench("--workload", "ceilings", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
