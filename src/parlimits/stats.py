"""Small statistics layer for list data: straight-line fits in chosen
axis spaces, per-category fits, Spearman rank correlation, and
cross-benchmark ratio summaries.

Fits are ordinary least squares on (possibly log10-transformed) values,
computed with centered sums. Points a log10 axis cannot represent
(zero or negative) are excluded and counted, never silently eaten.
Points are sorted before summation so the result is exactly independent
of input order.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import check_count, check_number

_AXIS_KINDS = ("linear", "log10")


@dataclass(frozen=True)
class AxisSpec:
    """How to transform each coordinate before fitting."""

    x: str = "linear"
    y: str = "linear"

    def __post_init__(self) -> None:
        for name, kind in (("x", self.x), ("y", self.y)):
            if kind not in _AXIS_KINDS:
                raise ValueError(f"axis {name} must be one of {_AXIS_KINDS}, got {kind!r}")


class _NoLineError(ValueError):
    """Well-formed points that no finite line fits."""


def _transform(kind: str, value: float, label: str) -> float | None:
    """Transformed coordinate, or None when the axis cannot express it."""
    value = check_number(value, label, -math.inf)
    if kind == "log10":
        return math.log10(value) if value > 0 else None
    return value


@dataclass(frozen=True)
class RegressionFit:
    """A line y = slope * x + intercept in transformed axis space.

    residuals are per fitted point, transformed space, in the
    sorted-point order used for fitting; n counts them and rms_residual
    sums them up. n_excluded counts the points a log axis had to drop.
    x_range brackets the fitted x values so predictions outside it can be
    flagged as extrapolation.
    """

    category: str
    axes: AxisSpec
    slope: float
    intercept: float
    n_excluded: int
    residuals: tuple[float, ...]
    x_range: tuple[float, float]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a line needs at least 2 points, got {self.n}")

    @property
    def n(self) -> int:
        return len(self.residuals)

    @property
    def rms_residual(self) -> float:
        return math.sqrt(math.fsum(r * r for r in self.residuals) / len(self.residuals))

    def predict(self, x: float) -> float:
        """Predicted y in transformed space at transformed x."""
        return self.slope * x + self.intercept

    def extrapolates(self, x: float) -> bool:
        """True when transformed x lies outside the fitted range."""
        lo, hi = self.x_range
        return x < lo or x > hi


def fit(points: Iterable[tuple[float, float]], axes: AxisSpec = AxisSpec(),
        category: str = "") -> RegressionFit:
    """Least-squares line through (x, y) points in the axes' space."""
    kept: list[tuple[float, float]] = []
    excluded = 0
    for x, y in points:
        tx = _transform(axes.x, x, "x")
        ty = _transform(axes.y, y, "y")
        if tx is None or ty is None:
            excluded += 1
            continue
        kept.append((tx, ty))
    if len(kept) < 2:
        raise _NoLineError(
            f"need at least 2 usable points, got {len(kept)} "
            f"({excluded} excluded by log axes)"
        )
    kept.sort()
    xs = [p[0] for p in kept]
    ys = [p[1] for p in kept]
    if xs[0] == xs[-1]:
        raise _NoLineError("all x values are equal; the slope is undefined")

    try:
        x_mean = math.fsum(xs) / len(xs)
        y_mean = math.fsum(ys) / len(ys)
        sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in kept)
        sxx = math.fsum((x - x_mean) ** 2 for x in xs)
        slope = sxy / sxx
        intercept = y_mean - slope * x_mean
    except (OverflowError, ZeroDivisionError):  # a sum overflows, or sxx underflows to 0
        slope = intercept = math.nan
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise _NoLineError("the points spread beyond the float range; no finite line fits them")

    return RegressionFit(
        category=category,
        axes=axes,
        slope=slope,
        intercept=intercept,
        n_excluded=excluded,
        residuals=tuple(y - (slope * x + intercept) for x, y in kept),
        x_range=(xs[0], xs[-1]),
    )


def fit_by_category(points: Iterable[tuple[str, float, float]],
                    axes: AxisSpec = AxisSpec(),
                    ) -> tuple[dict[str, RegressionFit], dict[str, int]]:
    """One fit per category; a category no line fits (too few usable points,
    all x equal, or no finite line) comes back in the second mapping
    (category -> point count) instead. A malformed point raises."""
    grouped: dict[str, list[tuple[float, float]]] = {}
    for category, x, y in points:
        grouped.setdefault(category, []).append((x, y))
    fits: dict[str, RegressionFit] = {}
    unfit: dict[str, int] = {}
    for category in sorted(grouped):
        try:
            fits[category] = fit(grouped[category], axes, category=category)
        except _NoLineError:
            unfit[category] = len(grouped[category])
    return fits, unfit


@dataclass(frozen=True)
class RankPairing:
    """The same items ranked two ways; ranks are permutations of 1..n."""

    entries: tuple[tuple[Hashable, int, int], ...]

    def __post_init__(self) -> None:
        ids = [e[0] for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in rank pairing")
        n = len(self.entries)
        for side, ranks in (("A", self.ranks_a), ("B", self.ranks_b)):
            if sorted(check_count(r, f"ranking {side} rank", 1) for r in ranks) != [*range(1, n + 1)]:
                raise ValueError(
                    f"ranking {side} must be a permutation of 1..{n}, got {ranks}"
                )

    @property
    def ranks_a(self) -> tuple[int, ...]:
        return tuple(e[1] for e in self.entries)

    @property
    def ranks_b(self) -> tuple[int, ...]:
        return tuple(e[2] for e in self.entries)

    @classmethod
    def from_raw(cls, entries: Iterable[tuple[Hashable, int, int]]) -> RankPairing:
        """Densify two raw rankings (any distinct integers >= 1, e.g. list
        positions with absentees) into permutations of 1..n, preserving
        order. Tied raw ranks are refused: this pairing has no tie rule."""
        entries = list(entries)
        raw_a = [e[1] for e in entries]
        raw_b = [e[2] for e in entries]
        for side, ranks in (("A", raw_a), ("B", raw_b)):
            if len({check_count(r, f"ranking {side} rank", 1) for r in ranks}) != len(ranks):
                raise ValueError(f"ranking {side} contains duplicate ranks")
        pos_a = {r: i + 1 for i, r in enumerate(sorted(raw_a))}
        pos_b = {r: i + 1 for i, r in enumerate(sorted(raw_b))}
        return cls(tuple(
            (ident, pos_a[ra], pos_b[rb]) for ident, ra, rb in entries
        ))

    def __len__(self) -> int:
        return len(self.entries)


def rank_correlation(pairing: RankPairing) -> float:
    """Spearman's rho: 1 - 6 * sum(d^2) / (n * (n^2 - 1)).

    Needs n >= 3; with fewer items every pairing is trivially perfect
    or reversed and the statistic means nothing.
    """
    n = len(pairing)
    if n < 3:
        raise ValueError(f"rank correlation needs at least 3 items, got {n}")
    d2 = sum((a - b) ** 2 for a, b in zip(pairing.ranks_a, pairing.ranks_b))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def is_weak_agreement(rho: float, threshold: float = 0.5) -> bool:
    """True when |rho| falls below the agreement threshold."""
    if not (0 < check_number(threshold, "threshold", -math.inf) <= 1):
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
    return abs(check_number(rho, "rho", -math.inf)) < threshold


@dataclass(frozen=True)
class RatioSummary:
    """Per-item ratios between two paired series plus their median.

    plausible records whether the median falls inside the expected
    band: far outside it, the pairing itself is suspect.
    """

    ratios: tuple[float, ...]
    median: float
    band: tuple[float, float]
    plausible: bool


def cross_benchmark_ratio(pairs: Sequence[tuple[float, float]],
                          band: tuple[float, float] = (10.0, 1e4)) -> RatioSummary:
    """Ratios second/first for paired positive values, with their median.

    The default band says: the second series is expected to sit one to
    four decades above the first.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    lo, hi = band
    if not (0 < lo < hi):
        raise ValueError(f"band must be increasing and positive, got {band!r}")
    ratios = []
    for first, second in pairs:
        first = check_number(first, "first value", 0, strict=True)
        ratios.append(check_number(second, "second value", 0, strict=True) / first)
    med = statistics.median(ratios)
    return RatioSummary(
        ratios=tuple(ratios),
        median=med,
        band=(lo, hi),
        plausible=lo <= med <= hi,
    )
