"""Output checks for every invocation a workload makes.

Each check parses one report (text or --json) and compares it with values
computed here from the generated inputs, by closed forms, pure-Python
`math.fsum` sums, numpy.polyfit, scipy.stats.spearmanr or
statistics.median, never by calling parlimits. Text reports are checked
at the precision they print (6 significant digits, so the printed value
must be the expected one rounded to half a unit in its last digit); JSON
reports to 1e-9 relative.

`check(call, stdout)` returns a list of problems; empty means correct.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field

from workloads import Call

JSON_REL = 1e-9
VERSION_PREFIX = "parlimits "
SIGNAL_SPEED = 2e8
SHARE_ORDER = ("software", "os", "access", "dispatch", "propagation", "payload", "idle")


# ---- report parsing --------------------------------------------------------

@dataclass
class Report:
    """A report in one shape for both renderings. Text cells stay strings."""

    as_json: bool
    command: str = ""
    inputs: list[tuple[str, str]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)

    def table(self, title: str) -> list[dict]:
        if title not in self.tables:
            raise KeyError(f"report has no table {title!r}")
        columns, rows = self.tables[title]
        return [dict(zip(columns, row)) for row in rows]


def parse_report(text: str, as_json: bool) -> Report:
    if as_json:
        doc = json.loads(text)
        return Report(
            as_json=True,
            command=doc["command"],
            inputs=[(i["source"], i["sha256"]) for i in doc["inputs"]],
            counts=dict(doc["counts"]),
            warnings=list(doc["warnings"]),
            tables={t["title"]: (list(t["columns"]), [list(r) for r in t["rows"]])
                    for t in doc["tables"]},
        )
    blocks = text.rstrip("\n").split("\n\n")
    report = Report(as_json=False)
    preamble = blocks[0].split("\n")
    if not preamble[0].startswith(VERSION_PREFIX):
        raise ValueError(f"unexpected first line {preamble[0]!r}")
    for line in preamble[1:]:
        key, _, value = line.partition(": ")
        if key == "command":
            report.command = value
        elif key == "input":
            source, _, digest = value.rpartition(" sha256=")
            report.inputs.append((source, digest))
        elif key == "warning":
            report.warnings.append(value)
        else:
            report.counts[key] = int(value)
    for block in blocks[1:]:
        title, header, *rows = block.split("\n")
        columns = header.split()
        # Cells are left-justified to a common width, so a column starts
        # where its header does; names may hold single spaces.
        starts, pos = [], 0
        for col in columns:
            pos = header.index(col, pos)
            starts.append(pos)
            pos += len(col)
        bounds = list(zip(starts, starts[1:] + [None]))
        report.tables[title] = (columns, [[row[a:b].strip() for a, b in bounds]
                                          for row in rows])
    return report


# ---- comparisons -----------------------------------------------------------

class Checker:
    """Collects mismatches between reported cells and expected values."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.problems: list[str] = []

    def fail(self, where: str, got, expected) -> None:
        self.problems.append(f"{where}: got {got!r}, expected {expected!r}")

    def num(self, where: str, cell, expected: float) -> None:
        if not printed_matches(cell, expected, self.as_json):
            self.fail(where, cell, expected)

    def exact(self, where: str, cell, expected) -> None:
        if self.as_json or isinstance(expected, str):
            ok = cell == expected and type(cell) is type(expected)
        elif isinstance(expected, bool):
            ok = cell == ("yes" if expected else "no")
        else:
            ok = cell == str(expected)
        if not ok:
            self.fail(where, cell, expected)

    def true(self, where: str, condition: bool, detail: str = "") -> None:
        if not condition:
            self.problems.append(f"{where}: {detail or 'property violated'}")


def printed_matches(cell, expected: float, as_json: bool) -> bool:
    """True when a reported number is `expected` at the report's precision."""
    if as_json:
        if isinstance(cell, bool) or not isinstance(cell, (int, float)):
            return False
        got = float(cell)
        return got == expected or abs(got - expected) <= JSON_REL * max(abs(got), abs(expected))
    try:
        mantissa, exponent = cell.split("e")
        got = float(cell)
    except (AttributeError, ValueError):
        return False
    if len(mantissa.lstrip("-")) != 7:  # d.ddddd
        return False
    half_unit = 0.5 * 10.0 ** (int(exponent) - 5)
    return abs(got - expected) <= half_unit * (1 + 1e-9) + 1e-12 * abs(expected)


def _preamble(c: Checker, report: Report, call: Call, inputs: list[str],
              counts: dict[str, int], warnings: list[str]) -> None:
    c.exact("command", report.command, "parlimits " + " ".join(call.argv))
    expected_inputs = []
    for path in inputs:
        with open(path, "rb") as fh:
            expected_inputs.append((path, hashlib.sha256(fh.read()).hexdigest()))
    if report.inputs != expected_inputs:
        c.fail("inputs", report.inputs, expected_inputs)
    if report.counts != counts:
        c.fail("counts", report.counts, counts)
    if report.warnings != warnings:
        c.fail("warnings", report.warnings[:5], warnings[:5])


def _rows(c: Checker, report: Report, title: str, n_expected: int) -> list[dict]:
    rows = report.table(title)
    if len(rows) != n_expected:
        c.fail(f"{title}: row count", len(rows), n_expected)
    return rows


# ---- simulate --------------------------------------------------------------

@dataclass
class TimelineExpect:
    n: int
    total: float
    payload: float
    category_cycles: dict[str, float]


def expect_uniform(spec: dict) -> TimelineExpect:
    """Closed forms for uniform dispatch with constant or rising busy time:
    the last unit dispatched ends last, so total = prefix + n*T + busy_last
    + suffix, and a ramp from 0 to max sums to n*max/2."""
    n, f, s = spec["n"], spec["fields"], spec["scalars"]

    def last(name):
        return f[name][1]

    def total_of(name):
        kind, value = f[name]
        return n * value / 2 if kind == "linear" else n * value

    prefix = s["access_init"] + s["sw_pre"] + s["os_pre"]
    suffix = s["os_post"] + s["sw_post"] + s["access_term"]
    busy_last = last("pd_out_cycles") + last("payload_cycles") + last("pd_in_cycles")
    total = prefix + n * last("dispatch_cycles") + busy_last + suffix
    return TimelineExpect(n, total, total_of("payload_cycles"), {
        "software": s["sw_pre"] + s["sw_post"],
        "os": s["os_pre"] + s["os_post"],
        "access": s["access_init"] + s["access_term"],
        "dispatch": n * last("dispatch_cycles"),
        "propagation": total_of("pd_out_cycles") + total_of("pd_in_cycles"),
        "payload": total_of("payload_cycles"),
    })


def expect_explicit(spec: dict) -> TimelineExpect:
    """The timeline by pure-Python prefix sums: each unit's end time is an
    exactly rounded fsum of prefix, dispatch slots so far, and its own
    delays and payload."""
    n, s = spec["n"], spec["scalars"]
    prefix = s["access_init"] + s["sw_pre"] + s["os_pre"]
    suffix = s["os_post"] + s["sw_post"] + s["access_term"]
    dispatch, pd_in = spec["dispatch"], spec["pd_in"]
    latest = max(
        math.fsum([prefix, start, pd_out, payload, pd_in])
        for start, payload, pd_out in zip(
            _prefix_sums([dispatch] * n), spec["payload"], spec["pd_out"]))
    payload_sum = math.fsum(spec["payload"])
    return TimelineExpect(n, latest + suffix, payload_sum, {
        "software": s["sw_pre"] + s["sw_post"],
        "os": s["os_pre"] + s["os_post"],
        "access": s["access_init"] + s["access_term"],
        "dispatch": math.fsum([dispatch] * n),
        "propagation": math.fsum(spec["pd_out"]) + n * pd_in,
        "payload": payload_sum,
    })


def _prefix_sums(values):
    """Running sums, each within an ulp of exact (Neumaier compensation)."""
    total = compensation = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
        yield total + compensation


def check_simulate(call: Call, stdout: str) -> list[str]:
    report = parse_report(stdout, call.as_json)
    c = Checker(call.as_json)
    exp = expect_uniform(call.spec) if call.kind == "simulate-uniform" else expect_explicit(call.spec)
    n = exp.n
    _preamble(c, report, call, [call.spec["path"]], {},
              [f"per-unit table omitted ({n} units > 32)"])

    speedup = exp.payload / exp.total
    one_minus_alpha = (n - speedup) / ((n - 1) * speedup)
    alpha = 1.0 - one_minus_alpha
    (timing,) = _rows(c, report, "timing", 1)
    c.exact("timing.n_units", timing["n_units"], n)
    c.num("timing.total_cycles", timing["total_cycles"], exp.total)
    c.num("timing.payload_cycles", timing["payload_cycles"], exp.payload)
    c.num("timing.payload_cycles_effective", timing["payload_cycles_effective"],
          alpha * exp.total)
    c.num("timing.alpha_eff", timing["alpha_eff"], alpha)
    c.num("timing.one_minus_alpha", timing["one_minus_alpha"], one_minus_alpha)

    capacity = n * exp.total
    shares = {k: v / capacity for k, v in exp.category_cycles.items()}
    shares["idle"] = 1.0 - math.fsum(shares.values())
    rows = _rows(c, report, "capacity shares", len(SHARE_ORDER))
    for row, category in zip(rows, SHARE_ORDER):
        c.exact("shares.category", row["category"], category)
        c.num(f"shares.{category}", row["share"], shares[category])
    reported = [float(r["share"]) for r in rows]
    tolerance = JSON_REL if call.as_json else 0.5e-5 * len(reported)
    c.true("shares sum", abs(math.fsum(reported) - 1.0) <= tolerance,
           f"shares sum to {math.fsum(reported)!r}")
    return c.problems


# ---- analyze ---------------------------------------------------------------

def _point(row: dict) -> dict:
    k = int(row["cores"])
    e = float(row["rmax_gflops"]) / float(row["rpeak_gflops"])
    one_minus_alpha = (1.0 - e) / (e * (k - 1))
    return {"k": k, "e": e, "speedup": e * k, "oma": one_minus_alpha,
            "amplification": 1.0 / one_minus_alpha}


def check_analyze(call: Call, stdout: str) -> list[str]:
    import numpy as np
    from scipy.stats import spearmanr

    report = parse_report(stdout, call.as_json)
    c = Checker(call.as_json)
    rows = call.spec["rows"]
    with_points = [r for r in rows if int(r["cores"]) >= 2]
    warnings = [f"row {n} quarantined" for n in call.spec["quarantined"]]
    got_rows = [w.split(":")[0] for w in report.warnings[:len(warnings)]]
    c.true("quarantined rows", got_rows == warnings,
           f"got {got_rows}, expected {warnings}")
    skipped = [f"skipping {r['name']!r} ({r['year']} {r['benchmark']}): "
               "single-core entries carry no parallelism signal"
               for r in rows if int(r["cores"]) < 2]
    _preamble(c, report, call, [call.spec["path"]],
              {"records": len(rows), "quarantined": len(warnings)},
              report.warnings[:len(warnings)] + skipped)

    points = _rows(c, report, "scaling points", len(with_points))
    for got, row in zip(points, with_points):
        p = _point(row)
        where = f"points[{row['name']}/{row['benchmark']}]"
        c.exact(where + ".name", got["name"], row["name"])
        c.exact(where + ".benchmark", got["benchmark"], row["benchmark"])
        c.exact(where + ".rank", got["rank"], int(row["rank"]))
        c.exact(where + ".cores", got["cores"], p["k"])
        c.num(where + ".efficiency", got["efficiency"], p["e"])
        c.num(where + ".speedup", got["speedup"], p["speedup"])
        c.num(where + ".one_minus_alpha", got["one_minus_alpha"], p["oma"])
        c.num(where + ".amplification", got["amplification"], p["amplification"])

    categories: dict[str, list[tuple[float, float]]] = {}
    for row in with_points:
        cat = f"{row['benchmark']}/{row['architecture']}"
        categories.setdefault(cat, []).append((float(row["rank"]), math.log10(_point(row)["oma"])))
    fits = _rows(c, report, "trend fits: log10(one_minus_alpha) vs rank", len(categories))
    for got, cat in zip(fits, sorted(categories)):
        x, y = np.array(categories[cat]).T
        slope, intercept = np.polyfit(x, y, 1)
        rms = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
        c.exact(f"fit[{cat}].category", got["category"], cat)
        c.exact(f"fit[{cat}].n", got["n"], len(x))
        c.num(f"fit[{cat}].slope", got["slope"], float(slope))
        c.num(f"fit[{cat}].intercept", got["intercept"], float(intercept))
        c.num(f"fit[{cat}].rms_residual", got["rms_residual"], rms)

    by_name: dict[str, dict[str, dict]] = {}
    for row in with_points:
        by_name.setdefault(row["name"], {})[row["benchmark"]] = row
    names = sorted(n for n, e in by_name.items() if len(e) == 2)
    ratio_rows = _rows(c, report, "one_minus_alpha ratios HPCG/HPL", len(names))
    ratios = []
    for got, name in zip(ratio_rows, names):
        hpl, hpcg = _point(by_name[name]["HPL"])["oma"], _point(by_name[name]["HPCG"])["oma"]
        ratios.append(hpcg / hpl)
        c.exact(f"ratio[{name}].name", got["name"], name)
        c.num(f"ratio[{name}].hpl", got["hpl"], hpl)
        c.num(f"ratio[{name}].hpcg", got["hpcg"], hpcg)
        c.num(f"ratio[{name}].ratio", got["ratio"], hpcg / hpl)
    (summary,) = _rows(c, report, "ratio summary", 1)
    median = statistics.median(ratios)
    c.num("ratio.median", summary["median"], median)
    c.num("ratio.band_low", summary["band_low"], 10.0)
    c.num("ratio.band_high", summary["band_high"], 1e4)
    c.exact("ratio.plausible", summary["plausible"], 10.0 <= median <= 1e4)

    (rank,) = _rows(c, report, "rank agreement HPL vs HPCG", 1)
    rho = float(spearmanr([int(by_name[n]["HPL"]["rank"]) for n in names],
                          [int(by_name[n]["HPCG"]["rank"]) for n in names]).statistic)
    c.exact("rank.n", rank["n"], len(names))
    c.num("rank.spearman_rho", rank["spearman_rho"], rho)
    c.exact("rank.weak_agreement", rank["weak_agreement"], abs(rho) < 0.5)
    return c.problems


# ---- forecast --------------------------------------------------------------

def _sample_count(k_max: float) -> int:
    """Samples of a sweep from one unit to k_max at 64 per decade, both
    ends included."""
    return max(2, int(math.ceil(math.log10(k_max) * 64)) + 1)


def check_forecast(call: Call, stdout: str) -> list[str]:
    s = call.spec
    report = parse_report(stdout, call.as_json)
    c = Checker(call.as_json)
    perf, target, achieved = s["perf"], s["target"], s["achieved"]
    required = perf / target
    if achieved <= required:
        verdict = "achievable"
    elif achieved <= s["marginal"] * required:
        verdict = "marginal"
    else:
        verdict = "not-achievable"
    paths = [f"{s['curves_dir']}/{name}.csv" for name in ("achieved", "required")]
    caveat = ("assumes (1 - alpha) stays fixed as the machine grows; dispatch and "
              "OS overheads grow with the unit count, so these curves are ceilings")
    _preamble(c, report, call, [], {}, [caveat] + [f"wrote {p}" for p in paths])

    (feas,) = _rows(c, report, "feasibility", 1)
    c.num("feasibility.target_flops", feas["target_flops"], target)
    c.exact("feasibility.hypothesis", feas["hypothesis"], f"P={perf:.6g} flop/s")
    c.num("feasibility.required", feas["required_one_minus_alpha"], required)
    c.num("feasibility.achieved", feas["achieved_one_minus_alpha"], achieved)
    c.exact("feasibility.achieved_source", feas["achieved_source"], s["source"])
    c.exact("feasibility.verdict", feas["verdict"], verdict)

    rpeak_max = s["rpeak_max"] if s["rpeak_max"] is not None else 10.0 * target
    k_max = rpeak_max / perf
    curves = _rows(c, report, "scaling curves (fixed one_minus_alpha)", 2)
    for got, name, oma, source, path in zip(
            curves, ("achieved", "required"), (achieved, required),
            (f"achieved ({s['source']})", "required for target"), paths):
        where = f"curve[{name}]"
        samples = _sample_count(k_max)
        r_peak = k_max * perf
        asymptote = perf / oma
        c.exact(where + ".curve", got["curve"], name)
        c.exact(where + ".source", got["source"], source)
        c.exact(where + ".samples", got["samples"], samples)
        c.num(where + ".asymptote_flops", got["asymptote_flops"], asymptote)
        c.num(where + ".rmax_at_sweep_end", got["rmax_at_sweep_end"],
              r_peak / (1.0 + (k_max - 1.0) * oma))
        _check_curve_file(c, where, path, samples, perf, asymptote, got["rmax_at_sweep_end"])
    return c.problems


def _check_curve_file(c: Checker, where: str, path: str, samples: int, perf: float,
                      asymptote: float, reported_last) -> None:
    """A written curve starts at one unit, is nondecreasing in both axes,
    stays under r_peak and the asymptote, and ends where the report says."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    c.true(where + ".file header", rows[0] == ["rpeak_flops", "rmax_flops"], f"{rows[0]}")
    points = [(float(a), float(b)) for a, b in rows[1:]]
    c.true(where + ".file rows", len(points) == samples, f"{len(points)} != {samples}")
    c.true(where + ".file first", points[0] == (perf, perf), f"starts at {points[0]}")
    slack = 1.0 + 1e-12
    for (p0, m0), (p1, m1) in zip(points, points[1:]):
        if p1 < p0 or m1 < m0:
            c.true(where + ".file monotone", False, f"{(p0, m0)} then {(p1, m1)}")
            break
    c.true(where + ".file bounded",
           all(m <= p * slack and m <= asymptote * slack for p, m in points),
           "a sample exceeds r_peak or the asymptote")
    c.num(where + ".file last vs report", reported_last, points[-1][1])


# ---- bounds ----------------------------------------------------------------

def _display_matches(cell: str, expected: float, full_precision: bool) -> bool:
    got = float(cell)
    if full_precision:
        return printed_matches(got, expected, as_json=True)
    if expected == 0.0:
        return got == 0.0
    # One significant digit: within half a unit of the leading digit (the
    # smaller unit of the two, since rounding 9.7 up gives 1e+01).
    unit = 10.0 ** min(math.floor(math.log10(abs(got))), math.floor(math.log10(abs(expected))))
    return abs(got - expected) <= 0.5 * unit * (1 + 1e-9)


def check_bounds(call: Call, stdout: str) -> list[str]:
    s = call.spec
    report = parse_report(stdout, call.as_json)
    c = Checker(call.as_json)
    _preamble(c, report, call, [], {}, [])
    total = s["total_cycles"]
    floors = {
        "start-stop": s["start_stop_cycles"] / total,
        "propagation": (2.0 * s["distance_m"] / SIGNAL_SPEED + s["message_time_s"])
        * s["clock_hz"] / total,
        "context-switch": s["context_switch_cycles"] / total,
        "os-looping": s["n_units"] * s["dispatch_cycles"] / total,
    }
    governing = max(floors, key=floors.__getitem__)
    expected = list(floors.items()) + [(f"combined <- {governing}", floors[governing])]
    rows = _rows(c, report, "floors on one_minus_alpha", len(expected))
    for got, (kind, value) in zip(rows, expected):
        c.exact(f"bounds[{kind}].mechanism", got["mechanism"], kind)
        c.num(f"bounds[{kind}].bound", got["bound"], value)
        c.true(f"bounds[{kind}].display",
               _display_matches(got["display"], value, s["full_precision"]),
               f"{got['display']!r} does not show {value!r}")

    groups = s["n_units"] // s["cores_per_group"]
    grouped = groups * s["dispatch_cycles"] / total
    (g,) = _rows(c, report, "grouped dispatch", 1)
    c.exact("grouped.addressable_units", g["addressable_units"], groups)
    c.num("grouped.reduction_factor", g["reduction_factor"], float(s["cores_per_group"]))
    c.num("grouped.capacity_loss", g["capacity_loss"], s["mpe_per_group"] / s["cores_per_group"])
    c.num("grouped.os_looping_bound", g["os_looping_bound"], grouped)
    c.true("grouped.display", _display_matches(g["display"], grouped, s["full_precision"]),
           f"{g['display']!r} does not show {grouped!r}")
    return c.problems


_CHECKS = {
    "simulate-uniform": check_simulate,
    "simulate-explicit": check_simulate,
    "analyze": check_analyze,
    "forecast": check_forecast,
    "bounds": check_bounds,
}


def check(call: Call, stdout: str) -> list[str]:
    """Problems with one invocation's report; a report that cannot be
    parsed is one problem, not a crash of the benchmark."""
    try:
        return _CHECKS[call.kind](call, stdout)
    except (KeyError, ValueError, IndexError, TypeError, OSError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
