"""Loading and validating published machine-list records.

The canonical table layout is CSV with columns

    name,year,rank,benchmark,rmax_gflops,rpeak_gflops,cores,architecture,accelerator

Different list exports use different headers, so load_csv accepts an
alias map from canonical names to whatever the file calls them. A file
with unusable headers fails as a whole; a row that fails validation is
quarantined with its row number and reason, never silently dropped, and
never aborts the rest of the file.

Writing uses repr() for the float columns, so a load -> write -> load
cycle reproduces records bit for bit.

derive_points turns records into scaling-model points: efficiency is
rmax/rpeak, the unit count is the core count, and the effective serial
fraction follows from the inverse efficiency map. Single-core entries
carry no parallelism signal and are skipped with a warning.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .amdahl import AmdahlPoint, EFFICIENCY_SLACK
from .errors import SchemaError

CANONICAL_COLUMNS = (
    "name", "year", "rank", "benchmark", "rmax_gflops", "rpeak_gflops",
    "cores", "architecture", "accelerator",
)

BENCHMARKS = ("HPL", "HPCG")
ARCHITECTURES = ("MPP", "Cluster", "Other")
ACCELERATORS = ("None", "GPU", "Coprocessor", "Other")

_BUNDLED_CSV = "top500_2017.csv"


@dataclass(frozen=True)
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
        if not isinstance(self.year, int) or self.year < 1950:
            raise ValueError(f"year must be an integer >= 1950, got {self.year!r}")
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"rank must be an integer >= 1, got {self.rank!r}")
        if self.benchmark not in BENCHMARKS:
            raise ValueError(f"benchmark must be one of {BENCHMARKS}, got {self.benchmark!r}")
        if not (0 < self.rmax_gflops < math.inf):
            raise ValueError(f"rmax_gflops must be positive and finite, got {self.rmax_gflops!r}")
        if not (0 < self.rpeak_gflops < math.inf):
            raise ValueError(f"rpeak_gflops must be positive and finite, got {self.rpeak_gflops!r}")
        # Allow a hair of rounding slack, mirroring the efficiency clamp.
        if self.rmax_gflops > self.rpeak_gflops * (1.0 + EFFICIENCY_SLACK):
            raise ValueError(
                f"rmax {self.rmax_gflops!r} exceeds rpeak {self.rpeak_gflops!r}"
            )
        if not isinstance(self.cores, int) or self.cores < 1:
            raise ValueError(f"cores must be an integer >= 1, got {self.cores!r}")
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
    """Where a record set came from and when it was materialized."""

    source: str
    loaded_at: str


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


def _parse_row(raw: Mapping[str, str], colmap: Mapping[str, str]) -> MachineRecord:
    def cell(canon: str) -> str:
        value = raw.get(colmap[canon])
        if value is None:
            raise ValueError(f"row is short a value for {colmap[canon]!r}")
        return value.strip()

    def as_int(canon: str) -> int:
        text = cell(canon)
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{colmap[canon]}: {text!r} is not an integer") from None

    def as_float(canon: str) -> float:
        text = cell(canon)
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{colmap[canon]}: {text!r} is not a number") from None

    return MachineRecord(
        name=cell("name"),
        year=as_int("year"),
        rank=as_int("rank"),
        benchmark=cell("benchmark"),
        rmax_gflops=as_float("rmax_gflops"),
        rpeak_gflops=as_float("rpeak_gflops"),
        cores=as_int("cores"),
        architecture=cell("architecture"),
        accelerator=cell("accelerator"),
    )


def parse_csv(text: str, source: str = "<string>",
              aliases: Mapping[str, str] | None = None) -> RecordSet:
    """Parse CSV text into a RecordSet; bad rows land in rejections."""
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise SchemaError(f"{source}: file is empty, no header present")
    colmap = _resolve_header(reader.fieldnames, aliases)

    records: list[MachineRecord] = []
    rejections: list[RejectedRow] = []
    seen: set[tuple[int, str, int]] = set()
    # Row numbers are 1-based over the whole file; the header is row 1.
    for row_number, raw in enumerate(reader, start=2):
        try:
            rec = _parse_row(raw, colmap)
            key = (rec.year, rec.benchmark, rec.rank)
            if key in seen:
                raise ValueError(
                    f"duplicate rank {rec.rank} for year {rec.year} {rec.benchmark}"
                )
            seen.add(key)
        except ValueError as exc:
            rejections.append(RejectedRow(row_number, str(exc), dict(raw)))
            continue
        records.append(rec)

    return RecordSet(
        records=tuple(records),
        provenance=Provenance(source=source, loaded_at=_now()),
        rejections=tuple(rejections),
    )


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
