"""Command-line front end.

Four subcommands: analyze (list records -> scaling points, trends,
ratios, rank agreement), simulate (timeline scenario -> timing
breakdown), bounds (design numbers -> floors on 1 - alpha), forecast
(scaling curves and feasibility verdicts).

Reports are deterministic: the same invocation on the same inputs
produces the same bytes. Inputs are identified by path and sha256
digest, never by timestamps. Text output shows 6 significant digits;
--json emits the same report at full precision.

Exit codes: 0 success, 1 usage error, 2 unusable input.

The analyze subcommand reads the record CSV named by --dataset, or else the
packaged June 2017 records. Its rank agreement counts as weak when
|rho| < 0.5.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from . import __version__
from .amdahl import AlphaValue
from .bounds import (
    bound_context_switch,
    bound_os_looping,
    bound_propagation,
    bound_start_stop,
    combined_limit,
    mpe_grouping_effect,
)
from .ingest import BUNDLED_SOURCE, bundled_csv_text, derive_points, load_csv, parse_csv
from .stats import RankPairing, cross_benchmark_ratio, fit_by_category, is_weak_agreement, rank_correlation


def _deferred(module: str, name: str):
    """A stand-in for module.name that imports the module when first called."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module, __package__), name)(*args, **kwargs)
    return call


# timeline imports numpy, which takes longer to load than an analyze or
# bounds run, so it loads on the first simulate call. Importing forecast
# costs 2-4 ms per start (STEPS, three dataclasses, and compiling where no
# bytecode cache is written), so it loads on the first forecast call. The
# four names stay module-level callables, looked up at call time, because
# perfbench/spans.py wraps them with setattr; once the CLI writes its own
# phase traces (ROADMAP, observability), imports inside _cmd_simulate and
# _cmd_forecast can replace them.
load_scenario = _deferred(".timeline", "load_scenario")
simulate = _deferred(".timeline", "simulate")
feasibility = _deferred(".forecast", "feasibility")
virtual_scale = _deferred(".forecast", "virtual_scale")

# Per-unit rows beyond this would bloat reports without informing anyone.
MAX_UNIT_ROWS = 32


@dataclass
class ReportTable:
    """One titled table; each row holds one scalar cell (str, int, float,
    bool or None) per column, and there is at least one column."""

    title: str
    columns: tuple[str, ...]
    rows: list[tuple]


@dataclass
class ReportDocument:
    """Everything one invocation produced, renderable as text or JSON."""

    command: str
    version = __version__  # the same for every report, so not a field
    inputs: list[dict[str, str]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    tables: list[ReportTable] = field(default_factory=list)

    def add_input(self, label: str, sha256: str) -> None:
        self.inputs.append({"source": label, "sha256": sha256})

    def add_table(self, title: str, columns: tuple[str, ...], rows: list[tuple]) -> ReportTable:
        table = ReportTable(title, columns, rows)
        self.tables.append(table)
        return table

    def to_json(self) -> str:
        """json.dumps(doc, sort_keys=True, indent=2) of the report, byte
        for byte, with the rows of each table encoded in one call of the
        C encoder instead of the pure-Python one that indent selects. A
        non-finite cell is the string "inf", "-inf" or "nan", as in the text
        report: the bare Infinity and NaN tokens are not JSON."""
        head = json.dumps({
            "tool": "parlimits",
            "version": self.version,
            "command": self.command,
            "inputs": self.inputs,
            "counts": self.counts,
            "warnings": self.warnings,
            "tables": [
                {"title": t.title, "columns": list(t.columns), "rows": []}
                for t in self.tables
            ],
        }, sort_keys=True, indent=2)
        # Strings never hold an unescaped quote after "rows", and no other
        # value in the head is an empty list: one piece per table follows.
        pieces = head.split(_NO_ROWS)
        out = [pieces[0]]
        for table, piece in zip(self.tables, pieces[1:]):
            out.append(_json_rows(table.rows) if table.rows else _NO_ROWS)
            out.append(piece)
        out.append("\n")
        return "".join(out)

    def to_text(self) -> str:
        lines = [f"parlimits {self.version}", f"command: {self.command}"]
        for item in self.inputs:
            lines.append(f"input: {item['source']} sha256={item['sha256']}")
        for key in sorted(self.counts):
            lines.append(f"{key}: {self.counts[key]}")
        for message in self.warnings:
            lines.append(f"warning: {message}")
        for table in self.tables:
            lines.append("")
            lines.append(table.title)
            lines.extend(_render_table(table))
        return "\n".join(lines) + "\n"


# In a report, json.dumps(..., indent=2) puts a table's rows 8 spaces deep
# and their cells 10. Without indent the C encoder runs; its item separator
# carries the cell indentation, and the row boundaries are rewritten after.
_NO_ROWS = '"rows": []'
_CELL_INDENT = "\n" + " " * 10
_ROWS_ENCODER = json.JSONEncoder(separators=("," + _CELL_INDENT, ": "), allow_nan=False)
_ROW_BREAK = "]," + _CELL_INDENT + "["


def _json_rows(rows: list[tuple]) -> str:
    # A newline only comes from a separator (strings escape it) and cells are
    # scalars, so _ROW_BREAK only ever stands between two rows.
    try:
        body = _ROWS_ENCODER.encode(rows)[2:-2]
    except ValueError:  # a non-finite float: rare, so only then a pass over the cells
        body = _ROWS_ENCODER.encode([
            [_cell(c) if isinstance(c, float) and not math.isfinite(c) else c for c in row]
            for row in rows])[2:-2]
    body = body.replace(_ROW_BREAK, "\n        ],\n        [" + _CELL_INDENT)
    return '"rows": [\n        [' + _CELL_INDENT + body + "\n        ]\n      ]"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.5e}"
    return str(value)


# Per-column formatters that match _cell on a column of one exact type.
_FORMATTERS = {float: "{:.5e}".format, int: int.__repr__, str: str}


def _render_table(table: ReportTable) -> list[str]:
    columns = []
    values_by_column = zip(*table.rows) if table.rows else [()] * len(table.columns)
    for title, values in zip(table.columns, values_by_column):
        kinds = set(map(type, values))
        fmt = _FORMATTERS.get(kinds.pop(), _cell) if len(kinds) == 1 else _cell
        columns.append([title, *map(fmt, values)])
    # Padded a column at a time; the last needs none, since rstrip drops it.
    for i, cells in enumerate(columns[:-1]):
        width = max(map(len, cells))
        columns[i] = [cell.ljust(width) for cell in cells]
    return ["  ".join(cells).rstrip() for cells in zip(*columns)]


class _Parser(argparse.ArgumentParser):
    """argparse, but usage failures exit 1 instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


# Built on first use and kept for the process: parse_args returns a fresh
# namespace on every call and no default is mutable, so calls share nothing.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="parlimits", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"parlimits {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="scaling points and trends from list records")
    p.add_argument("--dataset", help="record CSV (default: packaged data)")
    p.add_argument("--fits", action="store_true", help="per-architecture trend fits")
    p.add_argument("--ratios", action="store_true", help="cross-benchmark alpha ratios")
    p.add_argument("--rank-correlation", action="store_true",
                   help="rank agreement between benchmarks")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="run a timeline scenario file")
    p.add_argument("scenario", help="scenario file (key = value lines)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="design-number floors on 1 - alpha")
    p.add_argument("--total-cycles", type=float, required=True)
    p.add_argument("--start-stop-cycles", type=float, required=True)
    p.add_argument("--distance-m", type=float, required=True)
    p.add_argument("--clock-hz", type=float, required=True)
    p.add_argument("--message-time-s", type=float, default=0.0)
    p.add_argument("--context-switch-cycles", type=float, required=True)
    p.add_argument("--n-units", type=int, required=True)
    p.add_argument("--dispatch-cycles", type=float, required=True)
    p.add_argument("--cores-per-group", type=int,
                   help="enable grouped dispatch with this block size")
    p.add_argument("--mpe-per-group", type=int,
                   help="management cores sacrificed per block")
    p.add_argument("--full-precision", action="store_true",
                   help="print bounds at full precision instead of 1 digit")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("forecast", help="scaling curves and feasibility")
    p.add_argument("--target", type=float, required=True, help="target rate, flop/s")
    p.add_argument("--per-processor-perf", type=float, required=True,
                   help="single unit rate, flop/s")
    p.add_argument("--achieved-one-minus-alpha", type=float, required=True)
    p.add_argument("--achieved-source", default="measured")
    p.add_argument("--marginal-factor", type=float, default=2.0)
    p.add_argument("--rpeak-max", type=float,
                   help="sweep ceiling, flop/s (default 10x target)")
    p.add_argument("--curves-dir", help="write each curve as a two-column CSV here")
    p.add_argument("--json", action="store_true")

    return parser


# ---- analyze ---------------------------------------------------------------

def _cmd_analyze(args: argparse.Namespace, report: ReportDocument) -> None:
    if args.dataset:
        records = load_csv(args.dataset)
    else:
        records = parse_csv(bundled_csv_text(), source=BUNDLED_SOURCE)
    report.add_input(records.provenance.source, records.provenance.sha256)

    report.counts["records"] = len(records.records)
    report.counts["quarantined"] = len(records.rejections)
    for rej in records.rejections:
        report.warnings.append(f"row {rej.row_number} quarantined: {rej.reason}")
    if not records.records:
        report.warnings.append("no usable records in input; nothing to analyze")
        return

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = derive_points(records.records)
    for w in caught:
        report.warnings.append(str(w.message))

    # Rows name their list year only when the records span more than one.
    multi_year = len({rec.year for rec in records.records}) > 1

    columns = ("name", "benchmark", "rank", "cores", "efficiency", "speedup",
               "one_minus_alpha", "amplification")
    rows = [
        (rec.name, rec.benchmark, rec.rank, rec.cores, point.efficiency,
         point.speedup, point.one_minus_alpha, point.amplification)
        for rec, point in points
    ]
    if multi_year:
        columns, rows = _with_year(columns, rows, (rec.year for rec, _ in points))
    report.add_table("scaling points", columns, rows)

    # A machine's HPL and HPCG rows pair within one list edition.
    hpl: dict[tuple[int, str], tuple] = {}
    hpcg: dict[tuple[int, str], tuple] = {}
    by_benchmark = {"HPL": hpl, "HPCG": hpcg}
    for rec, point in points:
        by_benchmark[rec.benchmark][rec.year, rec.name] = (rec, point)
    # A name that repeats under one benchmark in one list names no one machine.
    if len(hpl) + len(hpcg) < len(points):
        repeats = Counter((rec.benchmark, rec.year, rec.name) for rec, _ in points)
        for (bench, year, name), count in repeats.items():
            if count > 1:
                del by_benchmark[bench][year, name]
                if args.ratios or args.rank_correlation:
                    report.warnings.append(
                        f"name {name!r} appears {count} times under {bench} in {year}; "
                        "left out of ratios and rank correlation")

    if args.fits:
        cat_points = [
            (f"{rec.benchmark}/{rec.architecture}", float(rec.rank),
             point.one_minus_alpha)
            for rec, point in points
        ]
        fits, unfit = fit_by_category(cat_points)
        fit_rows = [
            (cat, f.n, f.slope, f.intercept, f.rms_residual)
            for cat, f in sorted(fits.items())
        ]
        report.add_table(
            "trend fits: log10(one_minus_alpha) vs rank",
            ("category", "n", "slope", "intercept", "rms_residual"),
            fit_rows,
        )
        def warn_excluded(cat: str, n_excluded: int) -> None:
            if n_excluded:
                report.warnings.append(
                    f"category {cat}: {n_excluded} point(s) with one_minus_alpha 0 "
                    "left out of the log10 fit"
                )
        for cat, f in sorted(fits.items()):
            warn_excluded(cat, f.n_excluded)
        for cat, (usable, n_excluded) in sorted(unfit.items()):
            report.warnings.append(
                f"category {cat}: only {usable} point(s), no fit possible"
            )
            warn_excluded(cat, n_excluded)

    # In (year, name) order: a stable sort by year of the name-sorted keys
    # takes a third of the time of one sort of the (year, name) tuples.
    both = sorted(sorted(hpl.keys() & hpcg.keys(), key=itemgetter(1)), key=itemgetter(0))

    if args.ratios:
        # A ratio needs one_minus_alpha > 0 on both sides; efficiency 1 gives 0.
        kept, pairs = [], []
        for key in both:
            pair = (hpl[key][1].one_minus_alpha, hpcg[key][1].one_minus_alpha)
            if 0.0 in pair:
                zero = " and ".join(b for b, v in zip(("HPL", "HPCG"), pair) if v == 0.0)
                report.warnings.append(
                    f"skipping {key[1]!r} in ratios: one_minus_alpha is 0 under {zero}")
                continue
            kept.append(key)
            pairs.append(pair)
        if pairs:
            summary = cross_benchmark_ratio(pairs)
            columns = ("name", "hpl", "hpcg", "ratio")
            ratio_rows = [
                (name, p[0], p[1], r)
                for (_, name), p, r in zip(kept, pairs, summary.ratios)
            ]
            if multi_year:
                columns, ratio_rows = _with_year(columns, ratio_rows,
                                                 (year for year, _ in kept))
            report.add_table("one_minus_alpha ratios HPCG/HPL", columns, ratio_rows)
            report.add_table(
                "ratio summary",
                ("median", "band_low", "band_high", "plausible"),
                [(summary.median, summary.band[0], summary.band[1], summary.plausible)],
            )
        elif both:
            report.warnings.append(
                "no machine has one_minus_alpha > 0 under both benchmarks; no ratios")
        else:
            report.warnings.append("no machine appears under both benchmarks; no ratios")

    if args.rank_correlation:
        n_years = len({year for year, _ in both})
        if n_years > 1:
            report.warnings.append(
                f"machines under both benchmarks come from {n_years} list years; "
                "no rank correlation")
        elif len(both) >= 3:
            pairing = RankPairing(
                [(key[1], hpl[key][0].rank, hpcg[key][0].rank) for key in both])
            rho = rank_correlation(pairing)
            report.add_table(
                "rank agreement HPL vs HPCG",
                ("n", "spearman_rho", "weak_agreement"),
                [(len(pairing), rho, is_weak_agreement(rho))],
            )
        else:
            report.warnings.append(
                "fewer than 3 machines under both benchmarks; no rank correlation"
            )


def _with_year(columns: tuple[str, ...], rows: list[tuple], years) -> tuple:
    """columns and rows with a year column after the first (name) column,
    one year per row."""
    return ((columns[0], "year", *columns[1:]),
            [(row[0], year, *row[1:]) for row, year in zip(rows, years)])


# ---- simulate --------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace, report: ReportDocument) -> None:
    # The digest takes a second read, of the file's bytes, so that parsing
    # stays the one load_scenario call that perfbench times as timeline.parse_s.
    scenario = load_scenario(args.scenario)
    with open(args.scenario, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    report.add_input(args.scenario, digest)
    result = simulate(scenario)

    report.add_table(
        "timing",
        ("n_units", "total_cycles", "payload_cycles", "payload_cycles_effective",
         "alpha_eff", "one_minus_alpha"),
        [(result.n_units, result.total_cycles, result.payload_cycles,
          result.payload_cycles_effective, result.alpha_eff.alpha,
          result.alpha_eff.one_minus_alpha)],
    )
    report.add_table(
        "capacity shares",
        ("category", "share"),
        list(result.shares.items()),
    )
    if result.n_units <= MAX_UNIT_ROWS:
        report.add_table(
            "per-unit timeline",
            ("unit", "start", "busy", "end", "idle"),
            [(i, s, b, e, d) for i, (s, b, e, d) in enumerate(
                zip(result.unit_start.tolist(), result.unit_busy.tolist(),
                    result.unit_end.tolist(), result.unit_idle.tolist()))],
        )
    else:
        report.warnings.append(
            f"per-unit table omitted ({result.n_units} units > {MAX_UNIT_ROWS})"
        )


# ---- bounds ----------------------------------------------------------------

def _cmd_bounds(args: argparse.Namespace, report: ReportDocument) -> None:
    if (args.cores_per_group is None) != (args.mpe_per_group is None):
        print("parlimits bounds: error: --cores-per-group and --mpe-per-group go together",
              file=sys.stderr)
        raise SystemExit(1)

    reports = [
        bound_start_stop(args.start_stop_cycles, args.total_cycles),
        bound_propagation(args.distance_m, args.clock_hz,
                          args.message_time_s, args.total_cycles),
        bound_context_switch(args.context_switch_cycles, args.total_cycles),
        bound_os_looping(args.n_units, args.dispatch_cycles, args.total_cycles),
    ]
    governing = combined_limit(reports)
    full = args.full_precision
    rows = [(r.kind, r.bound, r.display(full)) for r in reports]
    rows.append((f"combined <- {governing.kind}", governing.bound, governing.display(full)))
    report.add_table(
        "floors on one_minus_alpha",
        ("mechanism", "bound", "display"),
        rows,
    )

    if args.cores_per_group is not None:
        effect = mpe_grouping_effect(
            args.n_units, args.cores_per_group, args.mpe_per_group,
            args.dispatch_cycles, args.total_cycles,
        )
        report.add_table(
            "grouped dispatch",
            ("addressable_units", "reduction_factor", "capacity_loss",
             "os_looping_bound", "display"),
            [(effect.addressable_units, effect.reduction_factor,
              effect.capacity_loss, effect.bound.bound, effect.bound.display(full))],
        )


# ---- forecast --------------------------------------------------------------

def _cmd_forecast(args: argparse.Namespace, report: ReportDocument) -> None:
    achieved = AlphaValue(args.achieved_one_minus_alpha)
    verdict = feasibility(
        args.target, args.per_processor_perf, achieved,
        achieved_source=args.achieved_source,
        marginal_factor=args.marginal_factor,
    )
    report.add_table(
        "feasibility",
        ("target_flops", "hypothesis", "required_one_minus_alpha",
         "achieved_one_minus_alpha", "achieved_source", "verdict"),
        [(verdict.target_flops, verdict.hypothesis,
          verdict.required.one_minus_alpha, verdict.achieved.one_minus_alpha,
          verdict.achieved_source, verdict.verdict)],
    )

    rpeak_max = 10.0 * args.target if args.rpeak_max is None else args.rpeak_max
    curves = {
        "achieved": virtual_scale(
            args.per_processor_perf, achieved,
            k_max=rpeak_max / args.per_processor_perf,
            source=f"achieved ({args.achieved_source})"),
        "required": virtual_scale(
            args.per_processor_perf, verdict.required,
            k_max=rpeak_max / args.per_processor_perf,
            source="required for target"),
    }
    curve_rows = [(name, c.source, len(c.samples), c.asymptote_flops, c.samples[-1][1])
                  for name, c in sorted(curves.items())]
    report.add_table(
        "scaling curves (fixed one_minus_alpha)",
        ("curve", "source", "samples", "asymptote_flops", "rmax_at_sweep_end"),
        curve_rows,
    )
    report.warnings.append(curves["achieved"].caveat)

    if args.curves_dir:
        os.makedirs(args.curves_dir, exist_ok=True)
        for name in sorted(curves):
            path = os.path.join(args.curves_dir, f"{name}.csv")
            body = "".join([f"{r_peak!r},{r_max!r}\n" for r_peak, r_max in curves[name].samples])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("rpeak_flops,rmax_flops\n" + body)
            report.warnings.append(f"wrote {path}")


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "forecast": _cmd_forecast,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    report = ReportDocument(command="parlimits " + " ".join(argv))
    # A command builds csv rows, records, points and row tuples, none of which
    # refer back to each other, so reference counting frees all of it. The
    # collections that allocation counts trigger would only walk that data,
    # so the collector is off while it is built and rendered (as in
    # Mercurial's util.nogc), and back on after if it was on before. The few
    # cycles a command does leave, from json's indenting encoder and from a
    # first import of numpy, go in the first collection after.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _COMMANDS[args.subcommand](args, report)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:
        # Covers missing files, schema failures, scenario parse errors,
        # and domain errors: the input was unusable.
        print(f"parlimits: input error: {exc}", file=sys.stderr)
        return 2
    else:
        text = report.to_json() if args.json else report.to_text()
    finally:
        if gc_was_enabled:
            gc.enable()

    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
