"""Loading and validating published machine-list records.

The canonical table layout is CSV with columns

    name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator

Different list exports use different headers, so load_csv accepts an
alias map from canonical names to whatever the file calls them. A file
with unusable headers fails as a whole; a row that fails validation is
quarantined with its row number and reason, never silently dropped, and
never aborts the rest of the file.

parse_csv reads the text in one pass of csv.reader, with the rules of
csv.DictReader: blank lines are skipped and not counted as rows, a
repeated header name refers to its last column, and a quarantined row
keeps the cells DictReader would have given it (missing cells as None,
extra cells as a list under the key None). The record set's provenance
carries the sha256 of the text that was parsed; load_csv reads the file
once, without newline translation, so that digest is the digest of the
file's bytes.

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
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .amdahl import AmdahlPoint, EFFICIENCY_SLACK
from .errors import SchemaError, check_count, check_number

CANONICAL_COLUMNS = (
    "name", "year", "rank", "benchmark", "rmax_gflops", "rpeak_gflops",
    "cores", "architecture", "accelerator",
)

BENCHMARKS = ("HPL", "HPCG")
ARCHITECTURES = ("MPP", "Cluster", "Other")
ACCELERATORS = ("None", "GPU", "Coprocessor", "Other")

_BUNDLED_CSV = "top500_2017.csv"


@dataclass(frozen=True, slots=True)
class MachineRecord:
    """One benchmark entry of one machine on one list edition."""

    name: str
    year: int
    rank: int
    benchmark: str
    rmax_gflops: float
    rpeak_gflops: float
    cores: int
    architecture: str
    accelerator: str

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("name must be nonempty")
        check_count(self.year, "year", 1950)
        check_count(self.rank, "rank", 1)
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark must be one of {BENCHMARKS}, got {self.benchmark!r}")
        if type(self.rmax_gflops) is not float or type(self.rpeak_gflops) is not float:
            # The CSV reader passes floats; any other number becomes one first.
            for label in ("rmax_gflops", "rpeak_gflops"):
                value = check_number(getattr(self, label), label, -math.inf, finite=False)
                object.__setattr__(self, label, value)
        if not (0 < self.rmax_gflops < math.inf):
            raise ValueError(f"rmax_gflops must be positive and finite, got {self.rmax_gflops!r}")
        if not (0 < self.rpeak_gflops < math.inf):
            raise ValueError(f"rpeak_gflops must be positive and finite, got {self.rpeak_gflops!r}")
        # Allow a hair of rounding slack, mirroring the efficiency clamp.
        if self.rmax_gflops > self.rpeak_gflops * (1.0 + EFFICIENCY_SLACK):
            raise ValueError(
                f"rmax {self.rmax_gflops!r} exceeds rpeak {self.rpeak_gflops!r}"
            )
        # A subnormal efficiency has no 1 - alpha that a float can hold.
        if not self.rmax_gflops / self.rpeak_gflops >= sys.float_info.min:
            raise ValueError(
                f"efficiency rmax/rpeak = {self.rmax_gflops / self.rpeak_gflops!r} "
                "is below the smallest normal float"
            )
        if check_count(self.cores, "cores", 1) > sys.float_info.max:
            raise ValueError("cores exceeds the float range")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"architecture must be one of {ARCHITECTURES}, got {self.architecture!r}"
            )
        if self.accelerator not in ACCELERATORS:
            raise ValueError(
                f"accelerator must be one of {ACCELERATORS}, got {self.accelerator!r}"
            )

    @property
    def per_processor_gflops(self) -> float:
        """Peak rate of one processing element: rpeak / cores."""
        return self.rpeak_gflops / self.cores

    @property
    def efficiency(self) -> float:
        return self.rmax_gflops / self.rpeak_gflops


@dataclass(frozen=True)
class RejectedRow:
    """A quarantined input row: where it was, why, and what it said."""

    row_number: int
    reason: str
    raw: Mapping[str, str]


@dataclass(frozen=True)
class Provenance:
    """Where a record set came from and when it was materialized.

    sha256 is the hex digest of the UTF-8 encoding of exactly the text
    that was parsed; for load_csv, that is the file's bytes.
    """

    source: str
    loaded_at: str
    sha256: str


@dataclass(frozen=True)
class RecordSet:
    """Validated records plus everything that did not make it in."""

    records: tuple[MachineRecord, ...]
    provenance: Provenance
    rejections: tuple[RejectedRow, ...] = field(default=())

    def __post_init__(self) -> None:
        seen: set[tuple[int, str, int]] = set()
        for rec in self.records:
            key = (rec.year, rec.benchmark, rec.rank)
            if key in seen:
                raise ValueError(
                    f"duplicate rank {rec.rank} within year {rec.year} "
                    f"benchmark {rec.benchmark}"
                )
            seen.add(key)

    def benchmark(self, name: str) -> tuple[MachineRecord, ...]:
        """Records of one benchmark, ordered by rank."""
        return tuple(sorted(
            (r for r in self.records if r.benchmark == name),
            key=lambda r: r.rank,
        ))

    def __len__(self) -> int:
        return len(self.records)


def _resolve_header(header: Sequence[str],
                    aliases: Mapping[str, str] | None) -> dict[str, str]:
    """Map canonical column -> actual column, or fail with what is missing."""
    aliases = aliases or {}
    sources = [aliases.get(col, col) for col in CANONICAL_COLUMNS]
    shared = sorted({src for src in sources if sources.count(src) > 1})
    if shared:
        raise SchemaError(f"several columns are read from the same source column {shared}")
    actual = dict(zip(sources, CANONICAL_COLUMNS))
    present = set(header)
    missing = [src for src in actual if src not in present]
    if missing:
        raise SchemaError(
            f"missing columns {sorted(missing)}; header has {sorted(present)}"
        )
    return {canon: src for src, canon in actual.items()}


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


def _reject_short_row(row: Sequence[str], index: Sequence[int],
                      columns: Sequence[str]) -> None:
    """Raise for the first cell of a short row, in canonical order, that is
    bad or missing."""
    for canon, i, column in zip(CANONICAL_COLUMNS, index, columns):
        if i >= len(row):
            raise ValueError(f"row is short a value for {column!r}")
        if canon in _CONVERTERS:
            _CONVERTERS[canon](row[i], column)


def parse_csv(text: str, source: str = "<string>",
              aliases: Mapping[str, str] | None = None) -> RecordSet:
    """Parse CSV text into a RecordSet; bad rows land in rejections."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{source}: file is empty, no header present")
    colmap = _resolve_header(header, aliases)
    columns = [colmap[canon] for canon in CANONICAL_COLUMNS]
    # A repeated header name refers to its last column.
    position = {col: i for i, col in enumerate(header)}
    index = [position[col] for col in columns]
    width = max(index) + 1
    pick = operator.itemgetter(*index)
    c_year, c_rank, c_rmax, c_rpeak, c_cores = (
        colmap[c] for c in ("year", "rank", "rmax_gflops", "rpeak_gflops", "cores"))

    records: list[MachineRecord] = []
    rejections: list[RejectedRow] = []
    seen: set[tuple[int, str, int]] = set()
    # Row numbers are 1-based over the nonblank rows; the header is row 1.
    row_number = 1
    for row in reader:
        if not row:
            continue
        row_number += 1
        try:
            if len(row) < width:
                _reject_short_row(row, index, columns)
            name, year, rank, benchmark, rmax, rpeak, cores, architecture, accelerator = pick(row)
            rec = MachineRecord(
                name.strip(), _as_int(year, c_year), _as_int(rank, c_rank), benchmark.strip(),
                _as_float(rmax, c_rmax), _as_float(rpeak, c_rpeak), _as_int(cores, c_cores),
                architecture.strip(), accelerator.strip(),
            )
            key = (rec.year, rec.benchmark, rec.rank)
            if key in seen:
                raise ValueError(
                    f"duplicate rank {rec.rank} for year {rec.year} {rec.benchmark}"
                )
            seen.add(key)
        except ValueError as exc:
            rejections.append(RejectedRow(row_number, str(exc), _raw_cells(header, row)))
            continue
        records.append(rec)

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RecordSet(
        records=tuple(records),
        provenance=Provenance(source=source, loaded_at=_now(), sha256=digest),
        rejections=tuple(rejections),
    )


def _raw_cells(header: Sequence[str], row: Sequence[str]) -> dict:
    """A row as csv.DictReader gives it: missing cells are None, extra
    cells a list under the key None."""
    raw = dict(zip(header, row))
    if len(row) > len(header):
        raw[None] = row[len(header):]
    for col in header[len(row):]:
        raw[col] = None
    return raw


def load_csv(path: str, aliases: Mapping[str, str] | None = None) -> RecordSet:
    """Load a record CSV from disk."""
    with open(path, encoding="utf-8", newline="") as fh:
        return parse_csv(fh.read(), source=str(path), aliases=aliases)


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
        points.append((rec, AmdahlPoint.from_efficiency(rec.cores, rec.efficiency)))
    return points


def bundled_dataset() -> RecordSet:
    """The packaged June 2017 top-ten records under HPL and HPCG."""
    text = bundled_csv_text()
    return parse_csv(text, source=f"packaged:{_BUNDLED_CSV}")


def bundled_csv_text() -> str:
    """Raw text of the packaged record CSV (e.g. for digests)."""
    return resources.files("parlimits").joinpath("data", _BUNDLED_CSV).read_text("utf-8")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()
