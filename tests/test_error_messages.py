"""Bad inputs and the exact message each one gives.

A check may move, merge or run on a faster path, but what a caller sees
must not change: the exception type, its one-line message, and for a CSV
row the quarantine reason or the values it parsed to.
"""
from __future__ import annotations

import math

import pytest

from parlimits import (
    AmdahlPoint, InconsistentMeasurementError, RankPairing, amplification, bound_os_looping,
    bound_propagation, bound_start_stop, efficiency, feasibility, p_max, parse_csv, speedup,
    virtual_scale,
)


def _pairing(*entries):
    return lambda: RankPairing(entries)


def _raw_pairing(*entries):
    return lambda: RankPairing.from_raw(entries)


BAD_CALLS = [
    ("k is a bool", lambda: AmdahlPoint(True, 0.5), ValueError,
     "k must be an integer >= 2, got True"),
    ("k is a float", lambda: AmdahlPoint(2.0, 0.5), ValueError,
     "k must be an integer >= 2, got 2.0"),
    ("k is 1", lambda: AmdahlPoint(1, 0.5), ValueError,
     "k must be an integer >= 2, got 1"),
    ("k beyond the float range", lambda: AmdahlPoint(10**400, 0.5), ValueError,
     "k must be a finite number >= 2, got an integer beyond the float range"),
    ("efficiency NaN", lambda: AmdahlPoint(2, math.nan), ValueError,
     "efficiency must be a finite number > 0, got nan"),
    ("efficiency a string", lambda: AmdahlPoint(2, "0.5"), ValueError,
     "efficiency must be a finite number > 0, got '0.5'"),
    ("efficiency above the slack", lambda: AmdahlPoint(2, 1 + 2e-9),
     InconsistentMeasurementError,
     "efficiency 1.000000002 exceeds 1; no alpha reproduces it"),
    ("1 - alpha overflows", lambda: AmdahlPoint(2, 5e-324), ValueError,
     "one_minus_alpha must be a finite number >= 0, got inf"),
    ("rank is a bool", _pairing(("x", True, 1), ("y", 2, 2), ("z", 3, 3)), ValueError,
     "ranking A rank must be an integer >= 1, got True"),
    ("rank is a float", _pairing(("x", 1, 1), ("y", 2, 2.0), ("z", 3, 3)), ValueError,
     "ranking B rank must be an integer >= 1, got 2.0"),
    ("rank is 0", _pairing(("x", 0, 1), ("y", 2, 2), ("z", 3, 3)), ValueError,
     "ranking A rank must be an integer >= 1, got 0"),
    ("bad rank after a repeated one", _pairing(("x", 2, 1), ("y", 2, 2), ("z", 0, 3)),
     ValueError, "ranking A rank must be an integer >= 1, got 0"),
    ("repeated rank", _pairing(("x", 2, 1), ("y", 2, 2), ("z", 3, 3)), ValueError,
     "ranking A must be a permutation of 1..3, got (2, 2, 3)"),
    ("repeated rank on side B", _pairing(("x", 1, 3), ("y", 2, 2), ("z", 3, 3)), ValueError,
     "ranking B must be a permutation of 1..3, got (3, 2, 3)"),
    ("rank beyond n", _pairing(("x", 1, 1), ("y", 2, 2), ("z", 4, 3)), ValueError,
     "ranking A must be a permutation of 1..3, got (1, 2, 4)"),
    ("repeated id", _pairing(("x", 1, 1), ("x", 2, 2), ("z", 3, 3)), ValueError,
     "duplicate ids in rank pairing"),
    ("tied raw rank", _raw_pairing(("x", 5, 1), ("y", 5, 2), ("z", 7, 3)), ValueError,
     "ranking A contains duplicate ranks"),
    ("tied raw rank on side B", _raw_pairing(("x", 5, 1), ("y", 6, 1), ("z", 7, 3)),
     ValueError, "ranking B contains duplicate ranks"),
    ("raw rank is 0", _raw_pairing(("x", 0, 1), ("y", 6, 2), ("z", 7, 3)), ValueError,
     "ranking A rank must be an integer >= 1, got 0"),
    ("raw rank is a bool", _raw_pairing(("x", 1, True), ("y", 6, 2), ("z", 7, 3)),
     ValueError, "ranking B rank must be an integer >= 1, got True"),
    ("bad raw rank after a tie", _raw_pairing(("x", 5, 1), ("y", 5, 2), ("z", 1.5, 3)),
     ValueError, "ranking A rank must be an integer >= 1, got 1.5"),
    # Checked inputs whose floor overflows: the line names both operands.
    ("floor quotient overflows", lambda: bound_start_stop(1e10, 1e-300), ValueError,
     "start-stop floor overflows the float range: cycles 10000000000.0 / total_cycles 1e-300"),
    ("propagation cycles overflow", lambda: bound_propagation(1e308, 1e308, 0.0, 2e13),
     ValueError,
     "propagation floor overflows the float range: cycles inf / total_cycles 20000000000000.0"),
    ("dispatch cycles overflow", lambda: bound_os_looping(1e308, 1e308, 2e13), ValueError,
     "os-looping floor overflows the float range: cycles inf / total_cycles 20000000000000.0"),
]

# Each law takes the serial distance only as an AlphaValue: a bare number
# is neither alpha nor 1 - alpha to it.
SERIAL_DISTANCE_PARAMETERS = [
    ("speedup", "alpha", lambda v: speedup(v, 100)),
    ("efficiency", "alpha", lambda v: efficiency(v, 100)),
    ("p_max", "alpha", lambda v: p_max(1e9, v)),
    ("amplification", "alpha", amplification),
    ("virtual_scale", "alpha", lambda v: virtual_scale(1e9, v, 1e6)),
    ("feasibility", "achieved", lambda v: feasibility(1e18, 1e10, v)),
]
BAD_CALLS += [
    (f"{law} {name} is {value!r}", lambda call=call, value=value: call(value), ValueError,
     f"{name} must be an AlphaValue, got {value!r}")
    for law, name, call in SERIAL_DISTANCE_PARAMETERS
    for value in (0.5, 1, True, "0.5")
]


@pytest.mark.parametrize("label, call, kind, message", BAD_CALLS,
                         ids=[case[0] for case in BAD_CALLS])
def test_bad_argument_gives_its_exact_message(label, call, kind, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


HEADER = "name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator\n"

# (year, rank, rmax, rpeak, cores) cells -> the parsed values, or the reason
# the row is quarantined.
CSV_CELLS = [
    ((" 2017 ", " 1 ", " 9.0 ", "\t10.0\t", " 64 "), (2017, 1, 9.0, 10.0, 64)),
    (("\x1c2017", "1\x1f", "\x1d9.0", "10.0\x1e", "\x1c64\x1f"), (2017, 1, 9.0, 10.0, 64)),
    (("\xa02017", "1", "9.0\xa0", "10.0", "64"), (2017, 1, 9.0, 10.0, 64)),
    (("2017", "1", "9.0", "10.0", "1_000"), (2017, 1, 9.0, 10.0, 1000)),
    (("2017", "1", "n/a", "10.0", "64"), "rmax_gflops: 'n/a' is not a number"),
    (("2017", "1", "9.0", "\x1cn/a", "64"), "rpeak_gflops: 'n/a' is not a number"),
    (("2017", "1", "9.0", "10.0", "-4"), "cores must be an integer >= 1, got -4"),
    (("2017", "1", "9.0", "10.0", " 6.4e1 "), "cores: '6.4e1' is not an integer"),
    (("x", "1", "9.0", "10.0", "y"), "year: 'x' is not an integer"),
    (("2017", "1_", "n/a", "10.0", "y"), "rank: '1_' is not an integer"),
]


@pytest.mark.parametrize("cells, expected", CSV_CELLS)
def test_numeric_csv_cells_parse_or_give_their_reason(cells, expected):
    year, rank, rmax, rpeak, cores = cells
    out = parse_csv(HEADER + f"Box,{year},{rank},HPL,{rmax},{rpeak},{cores},MPP,None\n")
    got = ([(r.year, r.rank, r.rmax_gflops, r.rpeak_gflops, r.cores) for r in out.records]
           + [r.reason for r in out.rejections])
    assert got == [expected]
    if out.records:
        assert [type(v) for v in got[0]] == [int, int, float, float, int]
