"""Property tests: report rendering against reference renderers, the
scaling point of every record that validates, the records and points the
CSV reader builds and the curves built without re-checking against the
public constructors, scenario lists against float(), and every public
numeric argument against extreme values."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import parlimits  # noqa: E402
from parlimits import (  # noqa: E402
    AlphaValue, AmdahlPoint, BoundReport, MachineRecord, RankPairing,
    TimelineScenario, alpha_eff_from_efficiency, alpha_eff_from_speedup, amplification,
    bound_context_switch, bound_os_looping, bound_propagation, bound_start_stop,
    cross_benchmark_ratio, derive_points, efficiency, feasibility, fit, fit_by_category,
    is_weak_agreement, linear_ramp, mpe_grouping_effect, p_max, parse_csv,
    project_trend, required_one_minus_alpha, simulate, speedup, virtual_scale,
)
from parlimits.cli import ReportDocument, main  # noqa: E402
from parlimits.forecast import STEPS  # noqa: E402
from parlimits.timeline import _BLOCK, _parse_per_unit  # noqa: E402
from test_cli import _refuse_non_json  # noqa: E402
from test_timeline import _fields  # noqa: E402


# ---- reference renderers ------------------------------------------------------

def _reference_json(doc: ReportDocument) -> str:
    return json.dumps({
        "tool": "parlimits",
        "version": doc.version,
        "command": doc.command,
        "inputs": doc.inputs,
        "counts": doc.counts,
        "warnings": doc.warnings,
        "tables": [
            {"title": t.title, "columns": list(t.columns),
             "rows": [[_reference_json_cell(v) for v in r] for r in t.rows]}
            for t in doc.tables
        ],
    }, sort_keys=True, indent=2) + "\n"


def _reference_json_cell(value):
    # RFC 8259 has no Infinity or NaN: such a cell is spelled as in the text.
    if isinstance(value, float) and not math.isfinite(value):
        return _reference_cell(value)
    return value


def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.5e}"
    return str(value)


def _reference_text(doc: ReportDocument) -> str:
    lines = [f"parlimits {doc.version}", f"command: {doc.command}"]
    for item in doc.inputs:
        lines.append(f"input: {item['source']} sha256={item['sha256']}")
    for key in sorted(doc.counts):
        lines.append(f"{key}: {doc.counts[key]}")
    for message in doc.warnings:
        lines.append(f"warning: {message}")
    for table in doc.tables:
        lines.append("")
        lines.append(table.title)
        cells = [list(table.columns)] + [[_reference_cell(v) for v in row]
                                         for row in table.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(table.columns))]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# ---- random reports -------------------------------------------------------------

TEXTS = st.text() | st.sampled_from([
    "],\n          [", "],          [", '"rows": []', 'say "hi" \\ there',
    "two\nlines", "Ünïcøde ☃ \U0001d11e", "", "  padded  ", "{:<3}",
])
CELLS = {
    "str": TEXTS,
    "int": st.integers(),
    "float": st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    "bool": st.booleans(),
    "float64": st.floats().map(np.float64),
    "none": st.none(),
}
MIXED = st.one_of(*CELLS.values())


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from([*CELLS, "mixed"]), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*(CELLS.get(k, MIXED) for k in kinds)), max_size=6))
    columns = tuple(draw(st.lists(TEXTS, min_size=len(kinds), max_size=len(kinds))))
    return draw(TEXTS), columns, rows


@st.composite
def documents(draw):
    doc = ReportDocument(command=draw(TEXTS))
    for label, digest in draw(st.lists(st.tuples(TEXTS, TEXTS), max_size=2)):
        doc.add_input(label, digest)
    doc.counts.update(draw(st.dictionaries(TEXTS, st.integers(), max_size=3)))
    doc.warnings.extend(draw(st.lists(TEXTS, max_size=3)))
    for title, columns, rows in draw(st.lists(tables(), max_size=3)):
        doc.add_table(title, columns, rows)
    return doc


@settings(max_examples=300, deadline=None)
@given(documents())
def test_renderers_match_references(doc):
    assert doc.to_json() == _reference_json(doc)
    json.loads(doc.to_json(), parse_constant=_refuse_non_json)
    assert doc.to_text() == _reference_text(doc)


# ---- every valid record has a scaling point -----------------------------------------

POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
EFFICIENCY = (st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
              | st.floats(min_value=0.0, max_value=1e-12).map(lambda d: 1.0 - d))
CORES = st.integers(2, 10**7) | st.integers(2, int(sys.float_info.max))


@settings(max_examples=400, deadline=None)
@given(rpeak=POSITIVE, e=EFFICIENCY | st.floats(1.0, 1.0 + 1e-9), cores=CORES)
# rmax = rpeak * (1 + 1e-9) passes a product-form slack test, but its
# quotient over this subnormal rpeak is outside the slack.
@example(rpeak=2.225073858507e-311, e=1.000000001, cores=64)
def test_every_valid_record_with_cores_yields_a_point(rpeak, e, cores):
    try:
        rec = MachineRecord("m", 2017, 1, "HPL", rpeak * e, rpeak, cores, "MPP", "None")
    except ValueError:
        hypothesis.reject()
    ((got, point),) = derive_points([rec])
    assert got is rec
    assert point.k == cores


# ---- the CSV reader builds what the public constructors build -----------------------

# The cell kinds of the edge-case fixtures: padding that int() and float()
# skip and padding only str.strip() skips, NaN and infinities, integers far
# beyond the float range, subnormal efficiencies, rmax a hair above rpeak,
# and enum values with and without padding.
def _mostly(valid, bad):
    """A cell strategy that draws a bad value one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else valid)


PAD = st.sampled_from(["", " ", "\t", "\xa0", "\x1c", "\x1f"])
HUGE = st.sampled_from([2**1024, 10**400])
NAMES = _mostly(st.sampled_from(["Box", " Box ", 'B\u00f8x "Q", \u00dc']),
                st.sampled_from(["", "   ", "\xa0"]))
YEARS = _mostly(st.integers(1950, 2100), st.integers(-3, 1949) | HUGE)
COUNTS = _mostly(st.integers(1, 2**64) | st.just(int(sys.float_info.max)),
                 st.integers(-3, 0) | HUGE)
RPEAKS = _mostly(POSITIVE, st.floats() | st.just(-0.0) | HUGE)
# rmax as rpeak times an efficiency, a hair above 1 inside the slack, or
# outside it, or subnormal.
RMAX_FACTORS = _mostly(EFFICIENCY | st.just(1.0 + 1e-9),
                       st.sampled_from([1.0 + 2e-9, 2.0, 1e-310, 2**-1074, 0.0, -1.0, math.nan]))
BENCHMARK_CELLS = _mostly(st.sampled_from(["HPL", "HPCG", " HPCG\t"]),
                          st.sampled_from(["hpl", "LINPACK", ""]))
ARCHITECTURE_CELLS = _mostly(st.sampled_from(["MPP", "Cluster", "Other", "\x1cMPP"]),
                             st.sampled_from(["Grid", ""]))
ACCELERATOR_CELLS = _mostly(st.sampled_from(["None", "GPU", "Coprocessor", "Other"]),
                            st.sampled_from(["none", "FPGA"]))


def _padded(data, value) -> str:
    text = repr(value) if isinstance(value, float) else str(value)
    return data.draw(PAD) + text + data.draw(PAD)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_parsed_row_is_the_public_constructors_record_and_point(data):
    rpeak = data.draw(RPEAKS)
    rmax = data.draw(RMAX_FACTORS.map(lambda f: rpeak * f) if isinstance(rpeak, float)
                     else RPEAKS)
    cells = [data.draw(NAMES), _padded(data, data.draw(YEARS)),
             _padded(data, data.draw(COUNTS)), data.draw(BENCHMARK_CELLS),
             _padded(data, rmax), _padded(data, rpeak), _padded(data, data.draw(COUNTS)),
             data.draw(ARCHITECTURE_CELLS), data.draw(ACCELERATOR_CELLS)]
    row = io.StringIO()
    csv.writer(row, lineterminator="\n").writerow(cells)
    parsed = parse_csv(CSV_HEADER + "\n" + row.getvalue())

    name, year, rank, benchmark, rmax, rpeak, cores, architecture, accelerator = (
        cell.strip() for cell in cells)
    fields = (name, int(year), int(rank), benchmark, float(rmax), float(rpeak), int(cores),
              architecture, accelerator)
    try:
        want = MachineRecord(*fields)
    except ValueError as exc:
        assert parsed.records == ()
        assert [r.reason for r in parsed.rejections] == [str(exc)]
        return
    assert parsed.rejections == ()
    (got,) = parsed.records
    assert got == want and repr(got) == repr(want)
    if want.cores < 2:
        return
    ((_, point),) = derive_points([got])
    expected = AmdahlPoint(want.cores, want.efficiency)
    assert point == expected and repr(point) == repr(expected)
    assert repr(point.one_minus_alpha) == repr(expected.one_minus_alpha)


def _near_grid_point(i: int, d: int, toward: float | None) -> float:
    """The sweep's grid point STEPS[i] * 10**d, or the float next to it
    toward `toward`, but at least one unit."""
    k = STEPS[i] * float(f"1e{d}")
    return max(1.0, k if toward is None else math.nextafter(k, toward))


GRID_POINTS = st.builds(_near_grid_point, st.integers(0, 63), st.integers(0, 307),
                        st.sampled_from([None, 0.0, math.inf]))


@settings(max_examples=600, deadline=None)
@given(p=POSITIVE, oma=st.floats(0.0, 1.0),
       k_max=st.floats(1.0, 1e13) | st.integers(1, 10**13) | GRID_POINTS)
@example(p=2**-1074, oma=1.0, k_max=1e13)
@example(p=2**-1074, oma=0.5, k_max=3.0)
@example(p=sys.float_info.max / 1e13, oma=2**-1074, k_max=1e13)
@example(p=11.78e9, oma=0.0, k_max=1e13)
@example(p=1.0, oma=1e-8, k_max=sys.float_info.max)
@example(p=1.0, oma=1e-8, k_max=math.nextafter(STEPS[1], 0.0))
@example(p=1.0, oma=1e-8, k_max=math.nextafter(1.0, 2.0))
@example(p=1.0, oma=1e-8, k_max=1)
def test_every_virtual_scale_curve_is_monotone_and_dominated(p, oma, k_max):
    try:
        curve = virtual_scale(p, AlphaValue(oma), k_max)
    except ValueError as exc:
        assert str(exc) == "the sweep's end k_max * P overflows the float range"
        return
    # The count perfbench's checks._sample_count expects: 64 per decade, both ends.
    k_max = float(k_max)
    count = 1 if k_max == 1.0 else max(2, math.ceil(math.log10(k_max) * 64) + 1)
    assert len(curve.samples) == count
    assert curve.samples[0] == (p, p)
    assert curve.samples[-1][0] == k_max * p
    for axis in (curve.r_peak, curve.r_max):
        assert all(a <= b for a, b in zip(axis, axis[1:]))
    assert all(r_max <= r_peak for r_peak, r_max in curve.samples)
    assert all(r_max <= curve.asymptote_flops * (1 + 1e-12) for r_max in curve.r_max)


# ---- any record file: a report or exit 2, never a traceback -------------------------

CSV_HEADER = "name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator"
# Real cells, hostile values, quotes and every line break, joined into cells.
CSV_PIECES = st.sampled_from([
    "A", "B", "2017", "1", "2", "HPL", "HPCG", "9.0", "10.0", "64", "MPP", "None", "GPU",
    "nan", "1e400", "1_0", "0x10", "-1", " ", "\xa0", '"', '""', "\r", "\n", "\r\n",
    "\x00", ",", "x" * 40])
CSV_ROWS = st.lists(st.lists(CSV_PIECES, max_size=3).map("".join), max_size=11).map(",".join)
CSV_TEXTS = (st.lists(CSV_ROWS, max_size=6).map(lambda rows: "\n".join([CSV_HEADER, *rows]))
             | st.text(st.characters(exclude_categories=("Cs",)), max_size=200))


@settings(max_examples=300, deadline=None)
@given(text=CSV_TEXTS)
@example(text=CSV_HEADER + "\rA,2017,1,HPL,9.0,10.0,64,MPP,None\r")
@example(text=CSV_HEADER + "\nA\r,2017,1,HPL,9.0,10.0,64,MPP,None\n")
@example(text=f'{CSV_HEADER}\n"{"x" * ((1 << 17) + 1)}",2017,1,HPL,9.0,10.0,64,MPP,None\n')
def test_any_record_file_gives_a_report_or_exit_2(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--dataset", path, "--fits", "--ratios",
                         "--rank-correlation"])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("parlimits: input error: ")
    else:
        assert (code, err.getvalue()) == (0, "")


# ---- a point's derived fields agree with its inputs -----------------------------------

@settings(max_examples=500, deadline=None)
@given(k=st.integers(2, 10**7) | st.integers(2, 2**1023),
       e=(st.floats(sys.float_info.min, 1.0)
          | st.floats(0.0, 1e-15).map(lambda d: 1.0 - d)))
@example(k=2, e=1.0 - 2**-53)
@example(k=10**300, e=1.0 - 2**-52)  # a subnormal 1 - alpha
@example(k=2**1023, e=sys.float_info.min)
@example(k=2, e=sys.float_info.min)
def test_point_fields_reproduce_efficiency_and_amplification(k, e):
    p = AmdahlPoint(k, e)
    oma = p.alpha_eff.one_minus_alpha
    assert p.efficiency == e and p.speedup == e * k
    assert math.isclose(1.0 / (1.0 + (k - 1) * oma), e, rel_tol=1e-12)
    if math.isinf(p.amplification):
        assert oma * sys.float_info.max < 1.0  # 1 / (1 - alpha) overflows
    else:
        assert math.isclose(p.amplification * oma, 1.0, rel_tol=1e-12)


@settings(max_examples=500, deadline=None)
@given(k=st.integers(2, 10**7) | st.integers(2, 2**1023),
       e=(st.floats(sys.float_info.min, 1.0)
          | st.floats(0.0, 1e-15).map(lambda d: 1.0 - d)
          | st.floats(0.0, 1e-9).map(lambda d: 1.0 + d)))
@example(k=2, e=1.0 - 2**-53)
@example(k=10**300, e=1.0 - 2**-52)
@example(k=2**1023, e=sys.float_info.min)
@example(k=2, e=1.0 + 1e-9)
def test_point_fields_are_bit_identical_to_the_inverse_map(k, e):
    # repr tells -0.0 from 0.0 and shows every bit of a float.
    p = AmdahlPoint(k, e)
    a = alpha_eff_from_efficiency(e, k)
    assert repr(p.one_minus_alpha) == repr(a.one_minus_alpha)
    assert repr(p.alpha_eff) == repr(a)
    assert repr(p.efficiency) == repr(min(e, 1.0))
    assert repr(p.speedup) == repr(min(e, 1.0) * k)
    assert repr(p.amplification) == repr(amplification(a))


# ---- explicit per-unit lists parse exactly as float() does ---------------------------

# Pieces of float()'s grammar and of what it rejects: underscores and
# Arabic-Indic digits only float() takes; nan(1), 0x and \x1f some C
# parsers take and float() rejects; np.loadtxt splits lines at \n and \r.
LIST_PIECES = st.sampled_from([
    *"0123456789", ".", "e", "E", "+", "-", "_", " ", "\t", "\n", "\r", "inf",
    "nan", "nan(1)", "0x", "\u0661", "\u0665", "\x1f", "\xa0", ""])
PADDING = st.sampled_from(["", " ", "\t", "\n", "\x1f", "\xa0"])
LIST_TOKENS = (st.lists(LIST_PIECES, max_size=6).map("".join)
               | st.tuples(PADDING, st.floats().map(repr), PADDING).map("".join))


def _reference_list(value: str):
    try:
        return np.array([float(v) for v in value.split(",")]), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=500, deadline=None)
@given(st.lists(LIST_TOKENS, min_size=2, max_size=6))
@example(["1", "2\n3", "4"])  # two rows of two, four values in all
@example(["1", "2\r\n3", "4"])  # line breaks that a list of lines and
@example(["1\r", "2"])  # a StringIO hand to loadtxt differently
@example(["1_0", "\u0661"])
@example(["0.5", "2\x1f"])
def test_per_unit_list_matches_float_reference(tokens):
    value = ",".join(tokens)
    expected, message = _reference_list(value)
    try:
        got = _parse_per_unit(value, len(tokens))
    except ValueError as exc:
        assert (None, str(exc)) == (expected, message)
        return
    assert message is None
    assert got.dtype == np.float64 and got.shape == expected.shape
    nan = np.isnan(expected)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.int64) == expected[~nan].view(np.int64)).all()


# ---- a uniform field simulates as its full array, bit for bit ---------------------------

@st.composite
def uniform_values(draw, n: int) -> float:
    """A per-unit value: dyadic with numerator m, where n * m lies within a
    factor of 16 of 2**53 on either side; small dyadic; or any float."""
    kind = draw(st.sampled_from(["edge", "dyadic", "any"]))
    if kind == "edge":
        m = ((2**49 << draw(st.integers(0, 8))) // n + draw(st.integers(-2, 2))) | 1
        return math.ldexp(min(max(m, 1), 2**53 - 1), -draw(st.integers(0, 40)))
    if kind == "dyadic":
        return math.ldexp(draw(st.integers(0, 10**6)), -draw(st.integers(0, 10)))
    return draw(st.floats(0, 1e9) | st.just(-0.0))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 2000), serial=st.floats(0, 1e6), data=st.data())
def test_uniform_fields_simulate_as_their_full_arrays(n, serial, data):
    values = [data.draw(uniform_values(n), label=name)
              for name in ("payload", "dispatch", "pd_out", "pd_in")]
    outcomes = []
    for form in (float, lambda v: np.full(n, v)):
        scenario = TimelineScenario(
            n, *map(form, values), sw_pre=serial, access_term=serial)
        try:
            outcomes.append(repr(_fields(simulate(scenario))))  # repr tells -0.0 from 0.0
        except ValueError as exc:
            outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]


# ---- the blocked schedule pass keeps the bits of the full-array pass --------------------

_MANY = 3 * _BLOCK + 7
_EDGE = 2**17  # with a dispatch of 2**36, n * m == 2**53
SCHEDULE_UNITS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, _MANY]


@st.composite
def per_unit_values(draw, n: int):
    """A uniform value (dyadic, non-dyadic, any or subnormal), a linear ramp,
    an explicit array of unequal values, or one that rises and falls but is
    largest at its last entry, which may tie an earlier one."""
    kind = draw(st.sampled_from(["dyadic", "non-dyadic", "any", "subnormal", "ramp", "array",
                                 "peak-last"]))
    if kind == "dyadic":
        return math.ldexp(draw(st.integers(0, 10**6)), -draw(st.integers(0, 10)))
    if kind == "non-dyadic":
        return draw(st.sampled_from([0.1, 1 / 3, 0.7, 7e15]))
    if kind == "any":
        return draw(st.floats(0, 1e9))
    if kind == "subnormal":
        return math.ldexp(draw(st.integers(1, 2**20)), -1074)
    if kind == "ramp":
        return linear_ramp(n, draw(st.sampled_from([2e6, 1e308]) | st.floats(0, 1e6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(n) * draw(st.sampled_from([1e-320, 0.1, 1e6, 1e300]))
    if kind == "peak-last":
        values[-1] = values.max() * draw(st.sampled_from([1.0, 1.5]))
    return values


@st.composite
def block_scenarios(draw):
    n = draw(st.sampled_from(SCHEDULE_UNITS))
    values = [draw(per_unit_values(n), label=name)
              for name in ("payload", "dispatch", "pd_out", "pd_in")]
    serial = draw(st.floats(0, 1e6))
    return TimelineScenario(n, *values, sw_pre=serial, os_post=serial)


def _reference_schedule(sc: TimelineScenario) -> tuple:
    """max end, total and the unit arrays with one n-entry array per step."""
    n = sc.n_units
    start = np.cumsum(np.broadcast_to(sc.dispatch_cycles, n))
    start += sc.prefix_cycles
    busy = sc.pd_out_cycles + sc.payload_cycles
    busy += sc.pd_in_cycles
    busy = np.array(np.broadcast_to(busy, n))
    end = start + busy
    max_end = float(end.max())
    total = max_end + sc.suffix_cycles
    idle = np.full(n, total)
    idle -= sc.dispatch_cycles
    idle -= busy
    idle[0] -= sc.prefix_cycles + sc.suffix_cycles
    payload = float(np.array(np.broadcast_to(sc.payload_cycles, n)).sum())
    return max_end, total, payload, (start, busy, end, idle)


def _schedule_bits(max_end, total, payload, arrays) -> tuple:
    # repr tells -0.0 from 0.0; a digest of each array's bytes keeps a
    # failure message short.
    return (repr(max_end), repr(total), repr(payload),
            *(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays))


@settings(max_examples=150, deadline=None)
@given(scenario=block_scenarios())
# Uniform and explicit non-dyadic dispatch: the running sum is carried from
# block to block, and the last unit, in the last block, ends last.
@example(scenario=TimelineScenario(_MANY, linear_ramp(_MANY, 2e6), 0.1, 120.0, 80.0, sw_pre=3e3))
@example(scenario=TimelineScenario(_BLOCK + 1, 1.0, 1 / 3))
@example(scenario=TimelineScenario(_MANY, 5.0, np.full(_MANY, 0.7), os_pre=2.5))
# A dyadic dispatch, whose running sums are all exact, under a ramp.
@example(scenario=TimelineScenario(_MANY, 3e6, 1.25, linear_ramp(_MANY, 1500.0), 40.0))
# The edge of the exact-sum domain: n * m == 2**53 takes the product form,
# and one unit more takes the cumsum.
@example(scenario=TimelineScenario(_EDGE, linear_ramp(_EDGE, 2e6), 2.0**36))
@example(scenario=TimelineScenario(_EDGE + 1, linear_ramp(_EDGE + 1, 2e6), 2.0**36))
# A subnormal dyadic dispatch, a dispatch of 0.0, and an integer dispatch
# under a ramp that crosses block boundaries.
@example(scenario=TimelineScenario(_MANY, linear_ramp(_MANY, 2e6), math.ldexp(3, -1074), 120.0))
@example(scenario=TimelineScenario(_MANY, linear_ramp(_MANY, 1500.0), 0.0, 40.0, sw_pre=3e3))
@example(scenario=TimelineScenario(_MANY, linear_ramp(_MANY, 2e6), 5.0, os_pre=2.5))
# A dyadic dispatch with one busy field largest at the last unit and another
# largest at the first: the last unit does not end last, and the units are walked.
@example(scenario=TimelineScenario(_MANY, linear_ramp(_MANY, 2e6), 1.25,
                                   linear_ramp(_MANY, 3e6)[::-1], 40.0))
# Ramps whose first product overflows, under a dyadic dispatch: the last
# unit's busy time overflows too.
@example(scenario=TimelineScenario(_MANY, 1.0, 0.5, linear_ramp(_MANY, 1e308),
                                   linear_ramp(_MANY, 1e308)))
# Signed zeros in every field and the prefix, with a positive suffix: every
# unit ends at -0.0.
@example(scenario=TimelineScenario(_MANY, np.full(_MANY, -0.0), -0.0, linear_ramp(_MANY, -0.0),
                                   -0.0, access_init=-0.0, sw_pre=-0.0, os_pre=-0.0,
                                   os_post=2.5))
def test_blocked_schedule_matches_the_full_array_formulas(scenario):
    n = scenario.n_units
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in an overflowing run
        reference = _reference_schedule(scenario)
    try:
        out = simulate(scenario)
    except ValueError as exc:
        # Only sums beyond the float range, a run of no cycles, or a payload
        # too small for a finite 1 - alpha are refused.
        total, payload = reference[1:3]
        assert (not math.isfinite(n * total) or not math.isfinite(payload)
                or total == 0.0 or "payload is too small" in str(exc)), exc
        return
    arrays = (out.unit_start, out.unit_busy, out.unit_end, out.unit_idle)
    assert _schedule_bits(out.max_end_cycles, out.total_cycles, out.payload_cycles,
                          arrays) == _schedule_bits(*reference)


def test_exact_sum_dispatch_is_scheduled_without_a_scan(monkeypatch):
    # An integer dispatch lies in the exact-sum domain, so every block's starts
    # come from the product (i + 1) * dispatch; cumsum is the scan outside it.
    scenario = TimelineScenario(_MANY, linear_ramp(_MANY, 2e6), 5.0, sw_pre=3e3)
    reference = _schedule_bits(*_reference_schedule(scenario))

    def scan(*args, **kwargs):
        raise AssertionError("the schedule pass ran a cumsum in the exact-sum domain")

    monkeypatch.setattr(np, "cumsum", scan)
    out = simulate(scenario)
    arrays = (out.unit_start, out.unit_busy, out.unit_end, out.unit_idle)
    assert _schedule_bits(out.max_end_cycles, out.total_cycles, out.payload_cycles,
                          arrays) == reference


def test_simulating_a_million_unit_ramp_holds_no_full_array():
    # Starts, busy and end times of all units at once would take 16 MB;
    # those of one block of units take about 1 MB. The ramp falls, so the
    # last unit need not end last and the units are walked.
    n = 10**6
    scenario = TimelineScenario(n, 3e6, 1.25, linear_ramp(n, 1500.0)[::-1], 40.0,
                                access_init=700.0, sw_pre=3e3)
    tracemalloc.start()
    try:
        simulate(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


# ---- a one-unit run's 1 - alpha is within two roundings of the exact value --------------

CYCLES = st.floats(0, 1e12) | st.floats(0, 1e-3) | st.just(0.0)


@settings(max_examples=500, deadline=None)
@given(payload=st.floats(1e-300, 1e12), others=st.lists(CYCLES, min_size=9, max_size=9))
@example(payload=1e6, others=[0.0, 0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 0.0, 0.0])
@example(payload=1e6, others=[0.0] * 9)
def test_one_unit_serial_distance_matches_exact_arithmetic(payload, others):
    # others: dispatch, pd_out and pd_in per unit, then the six serial scalars.
    out = simulate(TimelineScenario(1, payload, *others))
    total, payload_sum = Fraction(out.total_cycles), Fraction(out.payload_cycles)
    exact = (total - payload_sum) / total
    got = Fraction(out.alpha_eff.one_minus_alpha)
    assert abs(got - exact) <= Fraction(2.3e-16) * exact


# ---- a many-unit run's 1 - alpha is the exact quotient of its totals, rounded once ------

@st.composite
def many_unit_scenarios(draw):
    """n >= 2 units with uniform, ramped or explicit per-unit values."""
    n = draw(st.integers(2, 2000) | st.sampled_from(SCHEDULE_UNITS[1:]))
    values = [draw(per_unit_values(n), label=name)
              for name in ("payload", "dispatch", "pd_out", "pd_in")]
    serial = draw(st.floats(0, 1e6) | st.just(0.0))
    return TimelineScenario(n, *values, sw_pre=serial, os_post=serial)


@settings(max_examples=200, deadline=None)
@given(scenario=many_unit_scenarios())
# Nearly all payload, where k - S cancels in floats.
@example(scenario=TimelineScenario(1000, 1e12, sw_pre=1.0))
@example(scenario=TimelineScenario(16, 2.0**40, 1.0))
def test_serial_distance_below_the_unit_count_is_the_exact_quotient(scenario):
    n = scenario.n_units
    try:
        out = simulate(scenario)
    except ValueError:  # totals beyond the float range, or no finite 1 - alpha
        assume(False)
    # Below S = n, with some payload; at or above it the inverse speedup law applies.
    assume(0.0 < out.payload_cycles and out.payload_cycles / out.total_cycles < n)
    total, payload = Fraction(out.total_cycles), Fraction(out.payload_cycles)
    exact = float((n * total - payload) / ((n - 1) * payload))
    assert out.alpha_eff.one_minus_alpha == exact


# ---- every public number: a result or a one-line ValueError ----------------------------

SWEEP_VALUES = [0, -0.0, 1, 2, 0.5, 5e-324, 1e-300, 1e300, sys.float_info.max, -1e300,
                10**400, -10**400, True, math.nan, math.inf, -math.inf, "1"]
# No int here lies from 1e3 to 2**63, where a unit count would allocate that
# many array entries; numpy refuses larger sizes with a ValueError.
assert not [v for v in SWEEP_VALUES if isinstance(v, int) and 1e3 <= v < 2**63]

_TREND = fit([(2010.0, 1e-3), (2017.0, 1e-5)])

# Each public callable that takes numbers, with valid values for them.
NUMERIC_CALLS = {
    "AlphaValue": (AlphaValue, (1e-6,)),
    "AmdahlPoint": (AmdahlPoint, (100, 0.5)),
    "BoundReport": (lambda bound: BoundReport("start-stop", bound, {}), (1e-6,)),
    "MachineRecord": (lambda year, rank, rmax, rpeak, cores: MachineRecord(
        "m", year, rank, "HPL", rmax, rpeak, cores, "MPP", "None"), (2017, 1, 1.0, 2.0, 100)),
    "RankPairing": (lambda a, b: RankPairing(
        [("x", a, b), ("y", 20, 20), ("z", 30, 30)]), (1, 1)),
    "TimelineScenario": (lambda n, payload, dispatch, sw_pre: simulate(TimelineScenario(
        n, payload, dispatch, sw_pre=sw_pre)), (2, 100.0, 10.0, 5.0)),
    "alpha_eff_from_efficiency": (alpha_eff_from_efficiency, (0.5, 100)),
    "alpha_eff_from_speedup": (alpha_eff_from_speedup, (50.0, 100)),
    "amplification": (lambda alpha: amplification(AlphaValue(alpha)), (0.5,)),
    "bound_context_switch": (bound_context_switch, (1e4, 2e13)),
    "bound_os_looping": (bound_os_looping, (1000, 1.0, 2e13)),
    "bound_propagation": (bound_propagation, (100.0, 1e9, 0.0, 2e13)),
    "bound_start_stop": (bound_start_stop, (2.0, 2e13)),
    "cross_benchmark_ratio": (lambda a, b: cross_benchmark_ratio([(a, b)]), (1e-5, 1e-3)),
    "efficiency": (lambda alpha, k: efficiency(AlphaValue(alpha), k), (0.5, 100)),
    "feasibility": (lambda target, p, achieved, factor: feasibility(
        target, p, AlphaValue(achieved), marginal_factor=factor), (1e18, 1e10, 1e-8, 2.0)),
    "fit": (lambda x, y: fit([(x, y), (2.0, 3.0)]), (1.0, 1.0)),
    "fit_by_category": (lambda x, y: fit_by_category([("a", x, y), ("a", 2.0, 3.0)]), (1.0, 1.0)),
    "is_weak_agreement": (is_weak_agreement, (0.3,)),
    "linear_ramp": (linear_ramp, (3, 1.0)),
    "mpe_grouping_effect": (mpe_grouping_effect, (1000, 10, 1, 1.0, 2e13)),
    "p_max": (lambda p, alpha: p_max(p, AlphaValue(alpha)), (1e9, 0.5)),
    "project_trend": (lambda year: project_trend(_TREND, year), (2020.0,)),
    "required_one_minus_alpha": (required_one_minus_alpha, (1e9, 1e18)),
    "speedup": (lambda alpha, k: speedup(AlphaValue(alpha), k), (0.5, 100)),
    "virtual_scale": (lambda p, alpha, k_max: virtual_scale(p, AlphaValue(alpha), k_max),
                      (1e9, 1e-6, 1e6)),
}
# Public names that take no number of their own: constants, errors, text
# and file readers, and result types built from checked inputs.
NO_NUMERIC_ARGUMENTS = {
    "AlreadyAchievableError", "CONSTANT_ALPHA_CAVEAT", "DegenerateScenarioError",
    "FeasibilityVerdict", "ForecastCurve", "GroupingEffect", "InconsistentMeasurementError",
    "Provenance", "RatioSummary", "RecordSet", "ReferenceTable", "RegressionFit",
    "RejectedRow", "SIGNAL_SPEED", "SchemaError", "TimingBreakdown", "TrendPoint",
    "available_tags", "bundled_dataset", "combined_limit", "csv_text", "derive_points",
    "load_csv", "load_scenario", "parse_csv", "parse_scenario", "rank_correlation",
    "reference_table", "simulate", "write_csv",
}


def _returns_or_raises_value_error(name: str, args) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            NUMERIC_CALLS[name][0](*args)
        except ValueError as exc:
            assert "\n" not in str(exc), f"{name}{tuple(args)!r}: {exc}"
        except Exception as exc:  # noqa: BLE001 - report which call broke the contract
            pytest.fail(f"{name}{tuple(args)!r} raised {exc!r}")


def test_sweep_names_every_public_name():
    swept = {name.split(".")[0] for name in NUMERIC_CALLS}
    groups = (swept, NO_NUMERIC_ARGUMENTS)
    assert set().union(*groups) == set(parlimits.__all__)
    assert sum(map(len, groups)) == len(parlimits.__all__)


@pytest.mark.parametrize("name", sorted(NUMERIC_CALLS))
def test_each_numeric_argument_alone_returns_or_raises_value_error(name):
    func, valid = NUMERIC_CALLS[name]
    func(*valid)
    for slot in range(len(valid)):
        for value in SWEEP_VALUES:
            _returns_or_raises_value_error(name, valid[:slot] + (value,) + valid[slot + 1:])


@pytest.mark.parametrize("name", sorted(NUMERIC_CALLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_numeric_arguments_together_return_or_raise_value_error(name, data):
    arity = len(NUMERIC_CALLS[name][1])
    args = data.draw(st.tuples(*[st.sampled_from(SWEEP_VALUES)] * arity))
    _returns_or_raises_value_error(name, args)
