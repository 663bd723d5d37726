"""Small statistics layer for list data: straight-line fits of log10 y
on x, per-category fits, Spearman rank correlation, and cross-benchmark
ratio summaries.

Fits are ordinary least squares of log10 y on x, computed with centered
sums. Points with y <= 0, which have no log10, are excluded and counted,
never silently eaten. Points are sorted before summation so the result
is exactly independent of input order.
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .errors import check_count, check_number

class _NoLineError(ValueError):
    """Well-formed points that no finite line fits; `usable` of them had a
    positive y and `excluded` did not."""

    def __init__(self, message: str, usable: int, excluded: int) -> None:
        super().__init__(message)
        self.usable, self.excluded = usable, excluded


@dataclass(frozen=True)
class RegressionFit:
    """A line log10 y = slope * x + intercept.

    residuals are per fitted point, in log10 y, in the sorted-point order
    used for fitting; n counts them and rms_residual sums them up.
    n_excluded counts the points dropped for a y <= 0. x_range brackets
    the fitted x values so predictions outside it can be flagged as
    extrapolation.
    """

    category: str
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
        """Predicted log10 y at x."""
        return self.slope * x + self.intercept

    def extrapolates(self, x: float) -> bool:
        """True when x lies outside the fitted range."""
        lo, hi = self.x_range
        return x < lo or x > hi


def fit(points: Iterable[tuple[float, float]], category: str = "") -> RegressionFit:
    """Least-squares line of log10 y on x through (x, y) points."""
    kept: list[tuple[float, float]] = []
    excluded = 0
    for x, y in points:
        # Points hand over checked finite floats; only other values meet check_number.
        if not (type(x) is float and math.isfinite(x)):
            x = check_number(x, "x", -math.inf)
        if not (type(y) is float and math.isfinite(y)):
            y = check_number(y, "y", -math.inf)
        if y > 0:
            kept.append((x, math.log10(y)))
        else:
            excluded += 1
    if len(kept) < 2:
        raise _NoLineError(
            f"need at least 2 usable points, got {len(kept)} "
            f"({excluded} excluded by log axes)", len(kept), excluded
        )
    kept.sort()
    xs = [p[0] for p in kept]
    ys = [p[1] for p in kept]
    if xs[0] == xs[-1]:
        raise _NoLineError("all x values are equal; the slope is undefined",
                           len(kept), excluded)

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
        raise _NoLineError("the points spread beyond the float range; no finite line fits them",
                           len(kept), excluded)

    return RegressionFit(
        category=category,
        slope=slope,
        intercept=intercept,
        n_excluded=excluded,
        residuals=tuple(y - (slope * x + intercept) for x, y in kept),
        x_range=(xs[0], xs[-1]),
    )


def fit_by_category(points: Iterable[tuple[str, float, float]],
                    ) -> tuple[dict[str, RegressionFit], dict[str, tuple[int, int]]]:
    """One fit per category; a category no line fits (too few usable points,
    all x equal, or no finite line) comes back in the second mapping instead,
    as category -> (usable, excluded): the points with a positive y and
    those left out. A malformed point raises."""
    grouped: dict[str, list[tuple[float, float]]] = {}
    for category, x, y in points:
        grouped.setdefault(category, []).append((x, y))
    fits: dict[str, RegressionFit] = {}
    unfit: dict[str, tuple[int, int]] = {}
    for category in sorted(grouped):
        try:
            fits[category] = fit(grouped[category], category=category)
        except _NoLineError as exc:
            unfit[category] = (exc.usable, exc.excluded)
    return fits, unfit


@dataclass(frozen=True)
class RankPairing:
    """The same items ranked two ways; ranks are permutations of 1..n."""

    entries: tuple[tuple[Hashable, int, int], ...]

    def __post_init__(self) -> None:
        self._check_ids()
        n = len(self.entries)
        permutation = set(range(1, n + 1))
        for side, ranks in (("A", self.ranks_a), ("B", self.ranks_b)):
            if set(map(type, ranks)) <= {int} and set(ranks) == permutation:
                continue
            for r in ranks:
                check_count(r, f"ranking {side} rank", 1)
            raise ValueError(f"ranking {side} must be a permutation of 1..{n}, got {ranks}")

    def _check_ids(self) -> None:
        if len({e[0] for e in self.entries}) != len(self.entries):
            raise ValueError("duplicate ids in rank pairing")

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
        positions = []
        for side, column in (("A", 1), ("B", 2)):
            ranks = [e[column] for e in entries]
            if not (set(map(type, ranks)) <= {int} and min(ranks, default=1) >= 1):
                for r in ranks:
                    check_count(r, f"ranking {side} rank", 1)
            distinct = sorted(set(ranks))
            if len(distinct) != len(ranks):
                raise ValueError(f"ranking {side} contains duplicate ranks")
            positions.append({r: i for i, r in enumerate(distinct, 1)})
        pos_a, pos_b = positions
        # Densified ranks are permutations of 1..n, so of __post_init__'s
        # checks only the one of the ids is left to make.
        pairing = object.__new__(cls)
        pairing.__dict__["entries"] = tuple(
            (ident, pos_a[ra], pos_b[rb]) for ident, ra, rb in entries
        )
        pairing._check_ids()
        return pairing

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
    # In integers, so that the one division is the one rounding: 1.0 minus a
    # rounded quotient cancels when rho is near 0.
    m = n * (n * n - 1)
    return (m - 6 * d2) / m


def is_weak_agreement(rho: float) -> bool:
    """True when |rho| < 0.5: the two rankings agree only weakly."""
    return abs(check_number(rho, "rho", -math.inf)) < 0.5


@dataclass(frozen=True)
class RatioSummary:
    """Per-item ratios between two paired series plus their median.

    plausible records whether the median falls inside band, which says
    the second series sits one to four decades above the first: far
    outside it, the pairing itself is suspect.
    """

    ratios: tuple[float, ...]
    median: float
    band = (10.0, 1e4)  # the same for every summary, so not a field

    @property
    def plausible(self) -> bool:
        lo, hi = self.band
        return lo <= self.median <= hi


def cross_benchmark_ratio(pairs: Sequence[tuple[float, float]]) -> RatioSummary:
    """Ratios second/first for paired positive values, with their median."""
    if not pairs:
        raise ValueError("need at least one pair")
    ratios = []
    for first, second in pairs:
        # Points hand over checked positive floats; only other values meet check_number.
        if not (type(first) is float and 0.0 < first < math.inf):
            first = check_number(first, "first value", 0, strict=True)
        if not (type(second) is float and 0.0 < second < math.inf):
            second = check_number(second, "second value", 0, strict=True)
        ratios.append(second / first)
    return RatioSummary(ratios=tuple(ratios), median=statistics.median(ratios))
