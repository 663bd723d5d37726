"""One workload in a fresh process: import once, warm up, time sessions.

Started by run.py with the path of a plan file (written by run.py) that
names the source tree, the argv of each invocation, the run length,
whether to trace and the calibration loop. The process starts no threads.
It imports `parlimits.cli` once, runs one untimed warm-up session
whose outputs become the reference, then runs whole sessions until the run
length is used up. A session calls `parlimits.cli.main(argv)` for each
invocation in turn with stdout and stderr captured in memory. An
invocation fails when it exits nonzero, raises, or prints other bytes than
the reference.

The plan's calibration loop (calibration.py) runs before the first session
and after every session, so that run.py can report session times at the
reference machine speed. With tracing on, untraced and traced sessions
alternate, so that their difference is the tracing overhead, and one more
session measures tracemalloc peaks. Results go to `result.json` next to
the plan, the reference outputs to `reference/`, and the spans to
`spans.jsonl`.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import calibration
from spans import Tracer

MIN_SESSIONS = 3


def run_session(main, argvs, tracer: Tracer | None = None):
    """Call main(argv) for each argv; returns outputs, wall and CPU time."""
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open("cli.main") if tracer else None
            try:
                code = main(argv)
            except Exception as exc:  # the program's fault: record, keep timing
                code = f"{type(exc).__name__}: {exc}"
            if span is not None:
                tracer.close(span, report_bytes=out.tell())
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs, time.perf_counter() - wall0, time.process_time() - cpu0


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    outdir = os.path.dirname(plan_path)
    sys.path.insert(0, plan["src"])
    import parlimits.cli as cli

    argvs = plan["argvs"]
    reference, _, _ = run_session(cli.main, argvs)
    refdir = os.path.join(outdir, "reference")
    os.makedirs(refdir, exist_ok=True)
    for i, (code, out, err) in enumerate(reference):
        with open(os.path.join(refdir, f"{i}.json"), "w", encoding="utf-8") as fh:
            json.dump({"code": code, "stdout": out, "stderr": err}, fh)

    tracer = Tracer(cli) if plan["trace"] else None
    walls = {"untraced": [], "traced": []}
    cpus = []
    wall_factors, cpu_factors = [], []  # machine speed around each untraced session
    mismatched = [0] * len(argvs)
    sessions = 0
    timed = 0.0
    loop = plan["loop"]
    loop_before = calibration.loop_s(loop)
    while timed < plan["seconds"] or len(walls["untraced"]) < MIN_SESSIONS \
            or (tracer and len(walls["traced"]) < MIN_SESSIONS):
        traced = tracer is not None and sessions % 2 == 1
        gc.collect()
        if traced:
            tracer.install(session=len(walls["traced"]))
        outputs, wall, cpu = run_session(cli.main, argvs, tracer if traced else None)
        if traced:
            tracer.uninstall()
        loop_after = calibration.loop_s(loop)
        if traced:
            walls["traced"].append(wall)
        else:
            walls["untraced"].append(wall)
            cpus.append(cpu)
            wall_factor, cpu_factor = calibration.speed_factors(
                loop, loop_before, loop_after)
            wall_factors.append(wall_factor)
            cpu_factors.append(cpu_factor)
        loop_before = loop_after
        for i, (got, ref) in enumerate(zip(outputs, reference)):
            if got != ref:
                mismatched[i] += 1
        sessions += 1
        timed += wall

    result = {
        "sessions": sessions,
        "mismatched_per_call": mismatched,
        "session_walls": walls["untraced"],
        "session_cpus": cpus,
        "wall_factors": wall_factors,
        "cpu_factors": cpu_factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        gc.collect()
        tracer.install(session=-1, memory=True)
        run_session(cli.main, argvs)
        tracer.uninstall()
        layers = tracer.per_session_metrics(walls["traced"])
        layers["trace.overhead_s"] = (statistics.median(walls["traced"])
                                      - statistics.median(walls["untraced"]))
        result["layers"] = layers
        result["missing"] = tracer.missing
        tracer.write(os.path.join(outdir, "spans.jsonl"))

    with open(os.path.join(outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
