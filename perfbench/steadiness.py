"""Steadiness check: run each workload repeatedly and compare spreads with bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs `perfbench/run.py` once per seed for each workload of BENCHMARK.json,
one after another, with the run length from BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median and the metric's
bound. A spread under a third of the bound is marked steady; setup_s has no
spread limit, only a bound on its median. It does so twice: for the values
the benchmark reports, and for the same runs' times as measured, before
they are scaled to the reference machine speed (calibration.py). Raw
results go to .bench_work/steadiness/<workload>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict[str, dict[str, float]]:
    """One run; returns the reported and the as-measured end-to-end values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}\n{proc.stderr}")
    summary = json.loads((ROOT / ".bench_work" / workload / "summary.json").read_text())
    assert summary["reported"] == {k: m["value"] for k, m in result["metrics"].items()}
    return summary


def summarize(results: list[dict[str, float]], metrics: list[dict]) -> list[str]:
    lines = [f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>8} {'bound':>6}  verdict"]
    for m in metrics:
        values = [r[m["name"]] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if m["name"] == "setup_s":
            verdict = "median only"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "WIDER THAN BOUND"
        lines.append(f"  {m['name']:<14} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                     f"{spread:>8.4f} {m['bound']:>6}  {verdict}")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    outdir = ROOT / ".bench_work" / "steadiness"
    outdir.mkdir(parents=True, exist_ok=True)
    for workload in names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, spec["run_seconds"]))
        (outdir / f"{workload}.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for kind in ("reported", "measured"):
            print(f" {kind}:")
            print("\n".join(summarize([r[kind] for r in results], spec["end_to_end"])),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
