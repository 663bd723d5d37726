"""Property tests: report rendering against reference renderers, the
scaling point of every record that validates, and scenario lists against
float()."""
from __future__ import annotations

import json
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from parlimits import MachineRecord, derive_points  # noqa: E402
from parlimits.cli import ReportDocument  # noqa: E402
from parlimits.timeline import _parse_per_unit  # noqa: E402


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
             "rows": [list(r) for r in t.rows]}
            for t in doc.tables
        ],
    }, sort_keys=True, indent=2) + "\n"


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
    assert doc.to_text() == _reference_text(doc)


# ---- every valid record has a scaling point -----------------------------------------

POSITIVE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
EFFICIENCY = (st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
              | st.floats(min_value=0.0, max_value=1e-12).map(lambda d: 1.0 - d))
CORES = st.integers(2, 10**7) | st.integers(2, int(sys.float_info.max))


@settings(max_examples=400, deadline=None)
@given(rpeak=POSITIVE, e=EFFICIENCY, cores=CORES)
def test_every_valid_record_with_cores_yields_a_point(rpeak, e, cores):
    try:
        rec = MachineRecord("m", 2017, 1, "HPL", rpeak * e, rpeak, cores, "MPP", "None")
    except ValueError:
        hypothesis.reject()
    ((got, point),) = derive_points([rec])
    assert got is rec
    assert point.k == cores


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
