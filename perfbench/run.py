"""Benchmark of the `parlimits` command line, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The run generates the workload's
inputs from the seed under .bench_work/NAME/, then starts worker.py in a
fresh process that times whole sessions of in-process CLI calls for S
seconds. Then it times a fresh interpreter importing `parlimits.cli`
(setup_s, the median of several) and checks the warm-up session's reports
against values computed from the inputs (checks.py); every timed session
must reproduce those reports byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are the per-layer ones of a traced run (see README.md).
Exit code 0 on a completed run; 2 when the source tree is missing or the
worker does not finish.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

ROOT = HERE.parent
# Fresh interpreter starts per run that setup_s is the median of, by input
# size: one is enough to exercise the path in the benchmark's own tests.
SETUP_SAMPLES = {"full": 15, "smoke": 1}
# The worker must end within this many seconds of the start, which leaves
# time for the setup_s starts and the checks within three minutes.
DEADLINE_S = 150.0

# One thread per numeric library, so that each workload process runs no
# thread but its own.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

UNITS = {"setup_s": "s", "session_s": "s", "session_cpu_s": "s",
         "items_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNIT_SUFFIXES = (("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes"))


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNIT_SUFFIXES if name.endswith(suffix)),
                "count")


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def measure_setup(src: Path, samples: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing parlimits.cli, at
    the reference speed and as measured; one extra untimed start first
    fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import parlimits.cli"]
    env = child_env(src)
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    raw, scaled = [], []
    loop_before = calibration.loop_s("cpu")
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        loop_after = calibration.loop_s("cpu")
        raw.append(elapsed)
        wall_factor, _ = calibration.speed_factors("cpu", loop_before, loop_after)
        scaled.append(elapsed / wall_factor)
        loop_before = loop_after
    return statistics.median(scaled), statistics.median(raw)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input size; 'smoke' is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "parlimits" / "cli.py").is_file():
        print(f"perfbench: no parlimits source tree at {src}", file=sys.stderr)
        return 2

    workdir = Path(".bench_work") / args.workload
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    plan = workloads.build(args.workload, args.seed, str(workdir), args.size)
    for path, text in plan.files.items():
        with open(ROOT / path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    plan_path = ROOT / workdir / "plan.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": str(src), "argvs": [c.argv for c in plan.calls],
                   "seconds": args.seconds, "trace": args.trace,
                   "loop": "pages" if args.workload in workloads.PAGE_BOUND else "cpu"}, fh)

    worker = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                              cwd=ROOT, env=child_env(src))
    try:
        code = worker.wait(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()
        print("perfbench: worker did not finish in time", file=sys.stderr)
        return 2
    if code != 0:
        print(f"perfbench: worker exited with {code}", file=sys.stderr)
        return 2
    with open(ROOT / workdir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    # After the worker, so that the machine is in the same sustained state
    # as during the sessions rather than waking from idle.
    setup_s, setup_raw_s = measure_setup(src, SETUP_SAMPLES[args.size])

    os.chdir(ROOT)  # reports name their inputs relative to the root
    correct = True
    failed = 0
    for i, call in enumerate(plan.calls):
        with open(workdir / "reference" / f"{i}.json", encoding="utf-8") as fh:
            ref = json.load(fh)
        problems = ([f"exit code {ref['code']!r}: {ref['stderr'].strip()}"]
                    if ref["code"] != 0 else checks.check(call, ref["stdout"]))
        mismatched = result["mismatched_per_call"][i]
        if problems:
            correct = False
            failed += result["sessions"]
            print(f"perfbench: {' '.join(call.argv)}: " + "; ".join(problems[:5]),
                  file=sys.stderr)
        elif mismatched:
            correct = False
            failed += mismatched
            print(f"perfbench: {' '.join(call.argv)}: {mismatched} session(s) "
                  "differ from the checked reference", file=sys.stderr)

    walls, cpus = result["session_walls"], result["session_cpus"]
    wall_factors, cpu_factors = result["wall_factors"], result["cpu_factors"]
    print(f"perfbench: median speed factor {statistics.median(wall_factors):.4g} wall, "
          f"{statistics.median(cpu_factors):.4g} CPU", file=sys.stderr)
    if args.trace:
        if result["missing"]:
            print("perfbench: wrapped names missing: " + ", ".join(result["missing"]),
                  file=sys.stderr)
        metrics = {name: {"value": result["layers"][name], "unit": layer_unit(name)}
                   for name in LAYER_METRICS}
    else:
        scaled_walls = [w / f for w, f in zip(walls, wall_factors)]
        reported = {
            "setup_s": setup_s,
            "session_s": statistics.median(scaled_walls),
            "session_cpu_s": statistics.median(c / f for c, f in zip(cpus, cpu_factors)),
            "items_per_s": plan.items_per_session * len(walls) / sum(scaled_walls),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        measured = dict(reported, setup_s=setup_raw_s, session_s=statistics.median(walls),
                        session_cpu_s=statistics.median(cpus),
                        items_per_s=plan.items_per_session * len(walls) / sum(walls))
        print("perfbench: as measured: " + ", ".join(
            f"{name} {value:.6g}" for name, value in measured.items()), file=sys.stderr)
        with open(workdir / "summary.json", "w", encoding="utf-8") as fh:
            json.dump({"reported": reported, "measured": measured}, fh)
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in reported.items()}
    print(json.dumps({"correct": correct, "attempted": result["sessions"] * len(plan.calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
