"""Loading and validating published machine-list records.

The canonical table layout is CSV with columns

    name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator

A file whose header lacks one of these columns fails as a whole (an
export with other header names is renamed first); a row that fails
validation is quarantined with its row number and reason, never silently
dropped, and never aborts the rest of the file.

parse_csv reads the text in one pass of csv.reader, with the rules of
csv.DictReader: CR, LF and CRLF end a row, blank lines are skipped and
not counted as rows, a repeated header name refers to its last column,
and a quarantined row keeps the cells DictReader would have given it
(missing cells as None, extra cells as a list under the key None), or
none where csv cannot read it. The record set's provenance carries the
sha256 of the text that was parsed; load_csv reads the file once,
without newline translation, so that digest is the digest of the file's
bytes.

Each cell is checked once, where it enters: parse_csv converts it with
int() or float() and calls MachineRecord(...), and derive_points calls
AmdahlPoint(...); each type has that one constructor. A record with two
or more cores always has a point, because both constructors apply the
same slack test to the same quotient rmax/rpeak. A row that repeats the
(year, benchmark, rank) of an earlier record is quarantined there too, so
RecordSet(...) has nothing left to check.

Writing uses repr() for the float columns, so a load -> write -> load
cycle reproduces records bit for bit.

derive_points turns records into scaling-model points: efficiency is
rmax/rpeak, the unit count is the core count, and the effective serial
fraction follows from the inverse efficiency map. Single-core entries
carry no parallelism signal and are skipped with a warning.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import operator
import sys
import warnings
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

from .amdahl import EFFICIENCY_SLACK, AmdahlPoint
from .errors import _FLOAT_MAX, SchemaError, check_count, check_number

CANONICAL_COLUMNS = (
    "name", "year", "rank", "benchmark", "rmax_gflops", "rpeak_gflops",
    "cores", "architecture", "accelerator",
)

BENCHMARKS = ("HPL", "HPCG")
ARCHITECTURES = ("MPP", "Cluster", "Other")
ACCELERATORS = ("None", "GPU", "Coprocessor", "Other")

_BUNDLED_CSV = "top500_2017.csv"
# The source label of the packaged records in a RecordSet and in reports.
BUNDLED_SOURCE = f"packaged:{_BUNDLED_CSV}"

_FLOAT_MIN = sys.float_info.min


@dataclass(frozen=True, slots=True, init=False)
class MachineRecord:
    """One benchmark entry of one machine on one list edition.

    MachineRecord(...) is the one way to build a record. It raises the
    one-line ValueError of the first field that is bad, in field order. A
    true int or float passes each test inline; only a value that fails one
    goes on to the checker in errors, for its message. A record with
    cores >= 2 always has an AmdahlPoint: its efficiency rmax/rpeak is a
    normal float that EFFICIENCY_SLACK snaps to at most 1.
    """

    name: str
    year: int
    rank: int
    benchmark: str
    rmax_gflops: float
    rpeak_gflops: float
    cores: int
    architecture: str
    accelerator: str

    def __init__(self, name: str, year: int, rank: int, benchmark: str, rmax_gflops: float,
                 rpeak_gflops: float, cores: int, architecture: str, accelerator: str) -> None:
        try:
            blank = not str.strip(name)
        except TypeError:  # str.strip takes only a str
            raise ValueError(f"name must be a string, got {name!r}") from None
        if blank:
            raise ValueError("name must be nonempty")
        if type(year) is not int or year < 1950:
            check_count(year, "year", 1950)
        if type(rank) is not int or rank < 1:
            check_count(rank, "rank", 1)
        if rank > _FLOAT_MAX:
            raise ValueError("rank exceeds the float range")
        if benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark must be one of {BENCHMARKS}, got {benchmark!r}")
        if type(rmax_gflops) is not float or type(rpeak_gflops) is not float:
            # The CSV reader passes floats; any other number becomes one first.
            rmax_gflops = check_number(rmax_gflops, "rmax_gflops", -math.inf, finite=False)
            rpeak_gflops = check_number(rpeak_gflops, "rpeak_gflops", -math.inf, finite=False)
        if not (0 < rmax_gflops < math.inf):
            raise ValueError(f"rmax_gflops must be positive and finite, got {rmax_gflops!r}")
        if not (0 < rpeak_gflops < math.inf):
            raise ValueError(f"rpeak_gflops must be positive and finite, got {rpeak_gflops!r}")
        # The test AmdahlPoint applies: a hair of rounding slack is snapped to 1.
        efficiency = rmax_gflops / rpeak_gflops
        if efficiency > 1.0 + EFFICIENCY_SLACK:
            raise ValueError(f"rmax {rmax_gflops!r} exceeds rpeak {rpeak_gflops!r}")
        # A subnormal efficiency has no 1 - alpha that a float can hold.
        if not efficiency >= _FLOAT_MIN:
            raise ValueError(
                f"efficiency rmax/rpeak = {efficiency!r} is below the smallest normal float")
        if type(cores) is not int or cores < 1:
            check_count(cores, "cores", 1)
        if cores > _FLOAT_MAX:
            raise ValueError("cores exceeds the float range")
        if architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {architecture!r}")
        if accelerator not in ACCELERATORS:
            raise ValueError(f"accelerator must be one of {ACCELERATORS}, got {accelerator!r}")
        _SET_NAME(self, name)
        _SET_YEAR(self, year)
        _SET_RANK(self, rank)
        _SET_BENCHMARK(self, benchmark)
        _SET_RMAX(self, rmax_gflops)
        _SET_RPEAK(self, rpeak_gflops)
        _SET_CORES(self, cores)
        _SET_ARCHITECTURE(self, architecture)
        _SET_ACCELERATOR(self, accelerator)

    @property
    def per_processor_gflops(self) -> float:
        """Peak rate of one processing element: rpeak / cores."""
        return self.rpeak_gflops / self.cores

    @property
    def efficiency(self) -> float:
        return self.rmax_gflops / self.rpeak_gflops


# The slots' own setters: they bypass the frozen __setattr__.
(_SET_NAME, _SET_YEAR, _SET_RANK, _SET_BENCHMARK, _SET_RMAX, _SET_RPEAK, _SET_CORES,
 _SET_ARCHITECTURE, _SET_ACCELERATOR) = (
    getattr(MachineRecord, f).__set__ for f in MachineRecord.__match_args__)


@dataclass(frozen=True)
class RejectedRow:
    """A quarantined input row: where it was, why, and what it said."""

    row_number: int
    reason: str
    raw: Mapping[str, str]


@dataclass(frozen=True)
class Provenance:
    """Where a record set came from: a source label and a digest.

    sha256 is the hex digest of the UTF-8 encoding of exactly the text
    that was parsed; for load_csv, that is the file's bytes.
    """

    source: str
    sha256: str


@dataclass(frozen=True)
class RecordSet:
    """Validated records plus everything that did not make it in.

    A plain record that parse_csv builds: it has quarantined every row
    that repeats a (year, benchmark, rank), so the records hold none.
    """

    records: tuple[MachineRecord, ...]
    provenance: Provenance
    rejections: tuple[RejectedRow, ...] = field(default=())

    def benchmark(self, name: str) -> tuple[MachineRecord, ...]:
        """Records of one benchmark, ordered by rank."""
        return tuple(sorted(
            (r for r in self.records if r.benchmark == name),
            key=lambda r: r.rank,
        ))

    def __len__(self) -> int:
        return len(self.records)


def _as_int(text: str, column: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{column}: {text!r} is not an integer") from None


def _as_float(text: str, column: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{column}: {text!r} is not a number") from None


_CONVERTERS = {"year": _as_int, "rank": _as_int, "cores": _as_int,
               "rmax_gflops": _as_float, "rpeak_gflops": _as_float}


def _reject_short_row(row: Sequence[str], index: Sequence[int]) -> None:
    """Raise for the first cell of a short row, in canonical order, that is
    bad or missing."""
    for column, i in zip(CANONICAL_COLUMNS, index):
        if i >= len(row):
            raise ValueError(f"row is short a value for {column!r}")
        if column in _CONVERTERS:
            _CONVERTERS[column](row[i], column)


def _readable_rows(reader) -> Iterator[list[str] | csv.Error]:
    """csv.reader's rows, with its csv.Error in place of a row it cannot read."""
    while True:
        try:
            yield from reader
            return
        except csv.Error as exc:
            yield exc


def parse_csv(text: str, source: str = "<string>") -> RecordSet:
    """Parse CSV text into a RecordSet; bad rows land in rejections."""
    # newline="", as the csv docs require: then a \r ends a row, as \n does.
    # A leading byte-order mark is not part of the header; the digest keeps it.
    rows = _readable_rows(csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline="")))
    header = next(rows, None)
    if isinstance(header, csv.Error):
        raise SchemaError(f"{source}: unreadable header: {header}")
    if header is None:
        raise SchemaError(f"{source}: file is empty, no header present")
    # A repeated header name refers to its last column.
    position = {col: i for i, col in enumerate(header)}
    missing = [col for col in CANONICAL_COLUMNS if col not in position]
    if missing:
        raise SchemaError(f"missing columns {sorted(missing)}; header has {sorted(position)}")
    index = [position[col] for col in CANONICAL_COLUMNS]
    width = max(index) + 1
    pick = operator.itemgetter(*index)

    records: list[MachineRecord] = []
    rejections: list[RejectedRow] = []
    seen: set[tuple[int, str, int]] = set()
    # Row numbers are 1-based over the nonblank rows; the header is row 1.
    row_number = 1
    for row in rows:
        if not row:  # a csv.Error is never empty
            continue
        row_number += 1
        if isinstance(row, csv.Error):
            rejections.append(RejectedRow(row_number, str(row), {}))
            continue
        try:
            if len(row) < width:
                _reject_short_row(row, index)
            name, year, rank, benchmark, rmax, rpeak, cores, architecture, accelerator = pick(row)
            try:
                numbers = int(year), int(rank), float(rmax), float(rpeak), int(cores)
            except ValueError:
                # int() and float() skip less padding than str.strip(), e.g. not
                # \x1c-\x1f; the converters strip it, or word the reason.
                numbers = (_as_int(year, "year"), _as_int(rank, "rank"),
                           _as_float(rmax, "rmax_gflops"), _as_float(rpeak, "rpeak_gflops"),
                           _as_int(cores, "cores"))
            year, rank, rmax, rpeak, cores = numbers
            benchmark = benchmark.strip()
            rec = MachineRecord(name.strip(), year, rank, benchmark, rmax, rpeak, cores,
                                architecture.strip(), accelerator.strip())
            key = (year, benchmark, rank)
            if key in seen:
                raise ValueError(f"duplicate rank {rank} for year {year} {benchmark}")
            seen.add(key)
        except ValueError as exc:
            rejections.append(RejectedRow(row_number, str(exc), _raw_cells(header, row)))
            continue
        records.append(rec)

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RecordSet(records=tuple(records), provenance=Provenance(source=source, sha256=digest),
                     rejections=tuple(rejections))


def _raw_cells(header: Sequence[str], row: Sequence[str]) -> dict:
    """A row as csv.DictReader gives it: missing cells are None, extra
    cells a list under the key None."""
    raw = dict(zip(header, row))
    if len(row) > len(header):
        raw[None] = row[len(header):]
    for col in header[len(row):]:
        raw[col] = None
    return raw


def load_csv(path: str) -> RecordSet:
    """Load a record CSV from disk."""
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_csv(fh.read(), source=str(path))


def write_csv(records: Iterable[MachineRecord], path: str) -> None:
    """Write records in canonical layout; floats via repr() so that a
    reload reproduces them bit for bit."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(records))


def csv_text(records: Iterable[MachineRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CANONICAL_COLUMNS)
    for rec in records:
        writer.writerow([
            rec.name, rec.year, rec.rank, rec.benchmark,
            repr(rec.rmax_gflops), repr(rec.rpeak_gflops),
            rec.cores, rec.architecture, rec.accelerator,
        ])
    return out.getvalue()


def derive_points(records: Iterable[MachineRecord],
                  ) -> list[tuple[MachineRecord, AmdahlPoint]]:
    """Scaling-model points for each record with a parallelism signal.

    Entries with cores < 2 are skipped with a warning: one core admits
    no speedup measurement, so no alpha can be extracted from it.
    """
    points: list[tuple[MachineRecord, AmdahlPoint]] = []
    for rec in records:
        if rec.cores < 2:
            warnings.warn(
                f"skipping {rec.name!r} ({rec.year} {rec.benchmark}): "
                "single-core entries carry no parallelism signal",
                stacklevel=2,
            )
            continue
        points.append((rec, AmdahlPoint(rec.cores, rec.efficiency)))
    return points


def bundled_dataset() -> RecordSet:
    """The packaged June 2017 top-ten records under HPL and HPCG."""
    return parse_csv(bundled_csv_text(), source=BUNDLED_SOURCE)


def bundled_csv_text() -> str:
    """Raw text of the packaged record CSV (e.g. for digests)."""
    return resources.files("parlimits").joinpath("data", _BUNDLED_CSV).read_text("utf-8")
