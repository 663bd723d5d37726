"""Seeded inputs and session plans for the benchmark's four workloads.

A workload is a fixed list of `parlimits` invocations (a session) over
input files generated here from a seed. Each invocation carries the
generated values its check needs, so that the expected output is derived
from the inputs and never from the program under test. Nothing in this
module imports parlimits.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("timeline-uniform", "timeline-explicit", "records-analyze", "ceilings")

# Workloads whose sessions allocate and free hundreds of MB, so that the
# cost of fresh memory pages, more than the speed of the CPU, sets their
# pace. Their sessions are timed against calibration.py's "pages" loop, the
# others' against its "cpu" loop.
PAGE_BOUND = {"timeline-uniform"}

# "full" is what the benchmark measures; "smoke" keeps every code path and
# check but finishes in seconds, for the benchmark's own tests.
SIZES = {
    "full": {"uniform_units": 1_000_000, "explicit_units": 100_000,
             "machines": 5_000, "designs": 12},
    "smoke": {"uniform_units": 1_000, "explicit_units": 300,
              "machines": 60, "designs": 2},
}

SCALAR_FIELDS = ("sw_pre", "sw_post", "os_pre", "os_post", "access_init", "access_term")
ARCHITECTURES = ("MPP", "Cluster", "Other")
ACCELERATORS = ("None", "GPU", "Coprocessor", "Other")
RECORD_YEAR = 2019


@dataclass
class Call:
    """One `parlimits` invocation of a session and what its check needs."""

    argv: list[str]
    items: int
    kind: str
    spec: dict = field(default_factory=dict)

    @property
    def as_json(self) -> bool:
        return "--json" in self.argv


@dataclass
class Plan:
    """A workload's session plus the input files it reads."""

    workload: str
    calls: list[Call]
    files: dict[str, str]

    @property
    def items_per_session(self) -> int:
        return sum(c.items for c in self.calls)


def build(workload: str, seed: int, workdir: str, size: str = "full") -> Plan:
    """Generate the inputs of one workload; file paths are under workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"perfbench/{workload}/{seed}")
    builder = {
        "timeline-uniform": _timeline_uniform,
        "timeline-explicit": _timeline_explicit,
        "records-analyze": _records_analyze,
        "ceilings": _ceilings,
    }[workload]
    calls, files = builder(rng, workdir.rstrip("/"), SIZES[size])
    return Plan(workload, calls, files)


# ---- timelines -------------------------------------------------------------

def _scalars(rng: random.Random) -> dict[str, float]:
    # Some serial phases absent, the rest a few thousand cycles.
    return {name: float(rng.choice((0, rng.randint(1, 20_000)))) for name in SCALAR_FIELDS}


def _scenario_text(n: int, scalars: dict[str, float], per_unit: dict[str, str]) -> str:
    lines = [f"# generated scenario, {n} units", f"n_units = {n}"]
    lines += [f"{k} = {per_unit[k]}" for k in per_unit]
    lines += [f"{k} = {v!r}" for k, v in scalars.items()]
    return "\n".join(lines) + "\n"


def _timeline_uniform(rng: random.Random, workdir: str, size: dict):
    """Three O(1)-text scenarios; dispatch is uniform in each, and every
    unit's busy time is constant or rises with its index, so the last unit
    dispatched is the last to finish."""
    n = size["uniform_units"]
    calls, files = [], {}
    # Per-unit field -> ("const", v) or ("linear", max); one shape per file.
    shapes = (
        {"payload_cycles": ("const", rng.randint(1_000_000, 4_000_000)),
         "pd_out_cycles": ("const", rng.randint(0, 500)),
         "pd_in_cycles": ("const", rng.randint(0, 500))},
        {"payload_cycles": ("linear", rng.randint(2_000_000, 8_000_000)),
         "pd_out_cycles": ("const", rng.randint(0, 500)),
         "pd_in_cycles": ("const", rng.randint(0, 500))},
        {"payload_cycles": ("const", rng.randint(1_000_000, 4_000_000)),
         "pd_out_cycles": ("linear", rng.randint(100, 2_000)),
         "pd_in_cycles": ("const", rng.randint(0, 500))},
    )
    for i, shape in enumerate(shapes):
        # Multiples of 1/8 keep every dispatch prefix sum exact in binary.
        dispatch = rng.randint(4, 24) / 8
        fields = {"dispatch_cycles": ("const", dispatch), **shape}
        text_form = {}
        for j, (name, (kind, value)) in enumerate(fields.items()):
            value = float(value)
            fields[name] = (kind, value)
            if kind == "linear":
                text_form[name] = f"linear:{value!r}"
            else:  # alternate the two spellings of a uniform value
                text_form[name] = f"uniform:{value!r}" if (i + j) % 2 else repr(value)
        scalars = _scalars(rng)
        path = f"{workdir}/uniform{i}.scn"
        files[path] = _scenario_text(n, scalars, text_form)
        argv = ["simulate", path] + (["--json"] if i == 1 else [])
        calls.append(Call(argv, n, "simulate-uniform",
                          {"path": path, "n": n, "fields": fields, "scalars": scalars}))
    return calls, files


def _timeline_explicit(rng: random.Random, workdir: str, size: dict):
    """Three scenarios whose payload and outbound propagation are explicit
    lists of unequal values, so the unit that finishes last is found only by
    scanning every unit."""
    n = size["explicit_units"]
    calls, files = [], {}
    for i in range(3):
        payload = [round(rng.uniform(2e5, 2e6), 2) for _ in range(n)]
        pd_out = [round(rng.uniform(0.0, 5e4), 1) for _ in range(n)]
        dispatch = rng.randint(4, 24) / 8
        pd_in = float(rng.randint(0, 500))
        scalars = _scalars(rng)
        text_form = {
            "dispatch_cycles": f"uniform:{dispatch!r}",
            "payload_cycles": ",".join(map(repr, payload)),
            "pd_out_cycles": ",".join(map(repr, pd_out)),
            "pd_in_cycles": repr(pd_in),
        }
        path = f"{workdir}/explicit{i}.scn"
        files[path] = _scenario_text(n, scalars, text_form)
        argv = ["simulate", path] + (["--json"] if i == 1 else [])
        calls.append(Call(argv, n, "simulate-explicit", {
            "path": path, "n": n, "payload": payload, "pd_out": pd_out,
            "dispatch": dispatch, "pd_in": pd_in, "scalars": scalars}))
    return calls, files


# ---- records ---------------------------------------------------------------

CSV_HEADER = "name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator"

# Rows the program must quarantine: (label, row builder from a valid row).
_BAD_ROWS = (
    ("rmax not a number", lambda r: {**r, "rmax_gflops": "n/a"}),
    ("rmax above rpeak", lambda r: {**r, "rmax_gflops": repr(float(r["rpeak_gflops"]) * 2)}),
    ("unknown architecture", lambda r: {**r, "architecture": "Vector"}),
    ("unknown benchmark", lambda r: {**r, "benchmark": "LINPACK"}),
    ("negative cores", lambda r: {**r, "cores": "-4"}),
    ("year too early", lambda r: {**r, "year": "1900"}),
    ("row short of values", None),
    ("duplicate rank", None),
)


def _records_analyze(rng: random.Random, workdir: str, size: dict):
    """One list edition in which every machine appears under both HPL and
    HPCG. Higher-ranked machines have more cores and better efficiency, so
    the serial distance rises with rank and the fits have a trend; HPCG
    efficiency is one to two decades below HPL, so the ratios are
    plausible; the two rankings agree only loosely. A few machines are
    single-core and a few rows are malformed.

    Efficiencies stay within what published lists show (HPL at most 0.93):
    at efficiencies within about 1e-4 of 1 the program rejects legal
    records (see FOUND in CHANGES.md), which would abort the analysis."""
    n = size["machines"]
    hpl_order = list(range(n))
    rng.shuffle(hpl_order)
    hpl_pos = {m: pos for pos, m in enumerate(hpl_order)}
    machines = []
    for idx in range(n):
        frac = hpl_pos[idx] / n
        machines.append({
            "name": f"Machine {idx:05d}",
            "architecture": ARCHITECTURES[idx % len(ARCHITECTURES)],
            "accelerator": rng.choice(ACCELERATORS),
            "cores": int(10 ** (6.5 - 3.0 * frac + rng.gauss(0.0, 0.3))),
            "per_core": rng.uniform(10.0, 50.0),
        })
    for m in rng.sample(machines, 3):
        m["cores"] = 1

    hpcg_key = {m: pos + rng.gauss(0.0, 0.8 * n) for pos, m in enumerate(hpl_order)}
    hpcg_order = sorted(hpl_order, key=hpcg_key.__getitem__)

    def hpl_efficiency(frac):
        return min(0.93, max(0.3, 0.9 - 0.4 * frac + rng.gauss(0.0, 0.05)))

    def hpcg_efficiency(frac):
        return 10 ** (-1.3 - 1.2 * frac + rng.gauss(0.0, 0.1))

    rows = []
    for bench, order, efficiency in (("HPL", hpl_order, hpl_efficiency),
                                     ("HPCG", hpcg_order, hpcg_efficiency)):
        for rank0, m_idx in enumerate(order):
            m = machines[m_idx]
            rpeak = round(m["cores"] * m["per_core"], 3)
            rows.append({
                "name": m["name"], "year": str(RECORD_YEAR), "rank": str(rank0 + 1),
                "benchmark": bench, "rmax_gflops": repr(rpeak * efficiency(rank0 / n)),
                "rpeak_gflops": repr(rpeak), "cores": str(m["cores"]),
                "architecture": m["architecture"], "accelerator": m["accelerator"],
            })
    rng.shuffle(rows)

    # Insert the malformed rows at seeded positions. The duplicate copies a
    # row placed before it, so it is the copy that gets quarantined.
    lines = [_csv_line(r) for r in rows]
    valid: list[dict | None] = list(rows)
    for label, make in _BAD_ROWS:
        pos = rng.randint(1, len(lines))
        if label == "row short of values":
            line = ",".join(_csv_line(rows[0]).split(",")[:5])
        elif label == "duplicate rank":
            original = next(r for r in reversed(valid[:pos]) if r is not None)
            line = _csv_line({**original, "name": "Duplicate Machine"})
        else:
            line = _csv_line(make(rng.choice(rows)))
        lines.insert(pos, line)
        valid.insert(pos, None)

    # Row numbers count the header as row 1.
    quarantined = [i + 2 for i, r in enumerate(valid) if r is None]
    path = f"{workdir}/records.csv"
    files = {path: CSV_HEADER + "\n" + "\n".join(lines) + "\n"}
    spec = {"path": path, "rows": [r for r in valid if r is not None],
            "quarantined": quarantined}
    base = ["analyze", "--dataset", path, "--fits", "--ratios", "--rank-correlation"]
    n_rows = len(lines)
    calls = [Call(base, n_rows, "analyze", spec),
             Call(base + ["--json"], n_rows, "analyze", spec)]
    return calls, files


def _csv_line(row: dict) -> str:
    return ",".join(row[c] for c in CSV_HEADER.split(","))


# ---- ceilings --------------------------------------------------------------

def _ceilings(rng: random.Random, workdir: str, size: dict):
    """A grid of design points through `forecast` (writing curve files) and
    `bounds` (with grouped dispatch), alternating text and JSON. Sweeps stay
    below 1e13 units and every rate is finite, clear of the forecast faults
    noted in CHANGES.md."""
    calls, files = [], {}
    n = size["designs"]
    for i in range(n):
        # Sweep lengths are fixed per design slot, 4 to 12 decades, so that
        # the curve samples per session, and with them the work, do not
        # depend on the seed.
        decades = 4.0 + 8.0 * i / max(1, n - 1) + rng.uniform(0.0, 0.05)
        calls.append(_forecast_call(rng, i, decades, workdir))
        calls.append(_bounds_call(rng, i))
    return calls, files


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(math.log10(lo), math.log10(hi))


def _forecast_call(rng: random.Random, i: int, decades: float, workdir: str) -> Call:
    perf = _log_uniform(rng, 1e9, 5e10)
    if i % 3 == 0:  # the default sweep ceiling, 10 x target
        target = perf * 10 ** (decades - 1)
        rpeak_max = None
    else:
        target = perf * 10 ** rng.uniform(3.0, decades - 0.3)
        rpeak_max = perf * 10 ** decades
    # Keep achieved/required away from the verdict edges at 1 and at the
    # marginal factor, where the last bit of a division decides.
    marginal = rng.choice((2.0, 3.0))
    while True:
        factor = _log_uniform(rng, 0.1, 10.0)
        if all(abs(factor / edge - 1.0) > 0.01 for edge in (1.0, marginal)):
            break
    achieved = (perf / target) * factor
    source = f"design-{i}"
    curves_dir = f"{workdir}/curves{i}"
    argv = ["forecast", "--target", repr(target), "--per-processor-perf", repr(perf),
            "--achieved-one-minus-alpha", repr(achieved), "--achieved-source", source,
            "--marginal-factor", repr(marginal), "--curves-dir", curves_dir]
    if rpeak_max is not None:
        argv += ["--rpeak-max", repr(rpeak_max)]
    if i % 2:
        argv.append("--json")
    return Call(argv, 1, "forecast", {
        "target": target, "perf": perf, "achieved": achieved, "marginal": marginal,
        "rpeak_max": rpeak_max, "source": source, "curves_dir": curves_dir})


def _bounds_call(rng: random.Random, i: int) -> Call:
    cores_per_group = rng.choice((64, 128, 256, 260))
    spec = {
        "total_cycles": _log_uniform(rng, 1e11, 1e15),
        "start_stop_cycles": rng.uniform(1.0, 100.0),
        "distance_m": rng.uniform(10.0, 1000.0),
        "clock_hz": _log_uniform(rng, 5e8, 4e9),
        "message_time_s": rng.choice((0.0, rng.uniform(1e-8, 1e-6))),
        "context_switch_cycles": _log_uniform(rng, 1e3, 1e5),
        "n_units": cores_per_group * rng.randint(100, 50_000),
        "dispatch_cycles": rng.uniform(0.5, 20.0),
        "cores_per_group": cores_per_group,
        "mpe_per_group": rng.randint(1, 8),
        "full_precision": i % 4 >= 2,
    }
    argv = ["bounds"]
    for key in ("total_cycles", "start_stop_cycles", "distance_m", "clock_hz",
                "message_time_s", "context_switch_cycles", "n_units",
                "dispatch_cycles", "cores_per_group", "mpe_per_group"):
        argv += ["--" + key.replace("_", "-"), repr(spec[key])]
    if spec["full_precision"]:
        argv.append("--full-precision")
    if i % 2 == 0:
        argv.append("--json")
    return Call(argv, 1, "bounds", spec)
