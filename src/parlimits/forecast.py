"""What the scaling law says about machines that do not exist yet.

Three exercises, all holding (1 - alpha) fixed while the machine grows:

  * virtual_scale: take one machine's per-unit performance and alpha,
    sweep the unit count, and watch r_max crawl toward p_max.
  * rmax_vs_rpeak: the same sweep parameterized by peak performance,
    which is how list data is usually plotted.
  * feasibility: would a target rate fit under p_max at all, and with
    how much margin.

project_trend extrapolates a fitted historical trend of (1 - alpha)
to a given year.

Every curve carries the same caveat: holding alpha constant while
growing a machine is optimistic, since dispatch and OS costs grow with
the unit count. Curves are ceilings, not predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .amdahl import AlphaValue, _oma
from .errors import AlreadyAchievableError
from .stats import RegressionFit
from .units import PerformanceFigure, as_flops

CONSTANT_ALPHA_CAVEAT = (
    "assumes (1 - alpha) stays fixed as the machine grows; dispatch and "
    "OS overheads grow with the unit count, so these curves are ceilings"
)

# Log-spaced sampling density for scaling sweeps.
SAMPLES_PER_DECADE = 64

_VERDICTS = ("achievable", "marginal", "not-achievable")


@dataclass(frozen=True)
class ForecastCurve:
    """A scaling sweep: (r_peak, r_max) samples under one fixed alpha.

    Both coordinates are in flop/s and must be nondecreasing along the
    sweep; r_max can never exceed r_peak nor the asymptote p_max.
    overlay carries measured (r_peak, r_max) marks for comparison.
    """

    source: str
    samples: tuple[tuple[float, float], ...]
    asymptote_flops: float
    caveat: str = CONSTANT_ALPHA_CAVEAT
    overlay: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("a curve needs at least one sample")
        slack = 1.0 + 1e-12
        prev_peak = prev_max = 0.0
        for r_peak, r_max in self.samples:
            if r_peak < prev_peak or r_max < prev_max:
                raise ValueError("curve samples must be nondecreasing in both axes")
            if r_max > r_peak * slack:
                raise ValueError(f"r_max {r_max!r} exceeds r_peak {r_peak!r}")
            if r_max > self.asymptote_flops * slack:
                raise ValueError(f"r_max {r_max!r} exceeds the asymptote")
            prev_peak, prev_max = r_peak, r_max

    @property
    def r_peak(self) -> tuple[float, ...]:
        return tuple(s[0] for s in self.samples)

    @property
    def r_max(self) -> tuple[float, ...]:
        return tuple(s[1] for s in self.samples)


def _log_grid(lo: float, hi: float) -> np.ndarray:
    """Log-spaced values from lo to hi inclusive, SAMPLES_PER_DECADE dense."""
    if not (0 < lo <= hi < math.inf):
        raise ValueError(f"need 0 < lo <= hi < inf, got ({lo!r}, {hi!r})")
    if lo == hi:
        return np.array([lo])
    decades = math.log10(hi) - math.log10(lo)
    count = max(2, int(math.ceil(decades * SAMPLES_PER_DECADE)) + 1)
    grid = np.logspace(math.log10(lo), math.log10(hi), count)
    # Endpoints exactly as requested, whatever logspace rounded them to.
    grid[0], grid[-1] = lo, hi
    return grid


def virtual_scale(per_processor_perf: float | PerformanceFigure,
                  alpha: float | AlphaValue,
                  k_max: float,
                  k_min: float = 1.0,
                  source: str = "",
                  overlay: Sequence[tuple[float, float]] = ()) -> ForecastCurve:
    """Grow a machine of fixed per-unit performance and fixed alpha.

    Samples k on a log grid from k_min to k_max; r_peak = k * P and
    r_max = k * P * E(alpha, k). The asymptote is p_max = P / (1-alpha).
    """
    p = as_flops(per_processor_perf)
    oma = _oma(alpha)
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min!r}")
    ks = _log_grid(k_min, k_max)
    r_peak = ks * p
    # The quotient can lose an ulp between neighbouring samples at large k;
    # the running maximum keeps the curve nondecreasing and every bit where
    # it already was.
    r_max = np.maximum.accumulate(r_peak / (1.0 + (ks - 1.0) * oma))
    asymptote = math.inf if oma == 0.0 else p / oma
    return ForecastCurve(
        source=source or f"P={p:.6g} flop/s, 1-alpha={oma:.6g}",
        samples=tuple(zip(r_peak.tolist(), r_max.tolist())),
        asymptote_flops=asymptote,
        overlay=tuple((as_flops(a), as_flops(b)) for a, b in overlay),
    )


def rmax_vs_rpeak(per_processor_perf: float | PerformanceFigure,
                  alpha: float | AlphaValue,
                  rpeak_max: float | PerformanceFigure,
                  rpeak_min: float | PerformanceFigure | None = None,
                  source: str = "",
                  overlay: Sequence[tuple[float, float]] = ()) -> ForecastCurve:
    """The same sweep addressed by peak performance: k = r_peak / P.

    rpeak_min defaults to one unit's performance; anything lower would
    mean a fraction of a unit.
    """
    p = as_flops(per_processor_perf)
    lo = p if rpeak_min is None else as_flops(rpeak_min)
    hi = as_flops(rpeak_max)
    if lo < p:
        raise ValueError(
            f"rpeak_min {lo!r} is below one unit's performance {p!r}"
        )
    curve = virtual_scale(p, alpha, k_max=hi / p, k_min=lo / p,
                          source=source, overlay=overlay)
    return curve


@dataclass(frozen=True)
class TrendPoint:
    """A historical trend evaluated at one year."""

    year: float
    value: float
    extrapolated: bool


def project_trend(trend: RegressionFit, year: float) -> TrendPoint:
    """Evaluate a log10-y trend fit at a year.

    Years outside the fitted range are flagged extrapolated; the value
    still comes back, the flag is the caveat.
    """
    if trend.axes.y != "log10" or trend.axes.x != "linear":
        raise ValueError(
            f"trend must be fit with linear x and log10 y, got {trend.axes}"
        )
    return TrendPoint(
        year=year,
        value=10.0 ** trend.predict(year),
        extrapolated=trend.extrapolates(year),
    )


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Can a target rate fit under the alpha ceiling of a design.

    required is the loosest (1 - alpha) that still reaches the target;
    achieved is what the design delivers (with the source of that
    number); verdict is achievable / marginal / not-achievable, where
    marginal means within marginal_factor of the requirement.
    """

    target_flops: float
    hypothesis: str
    required: AlphaValue
    achieved: AlphaValue
    achieved_source: str
    verdict: str
    marginal_factor: float

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}, got {self.verdict!r}")


def feasibility(target: float | PerformanceFigure,
                per_processor_perf: float | PerformanceFigure,
                achieved: float | AlphaValue,
                achieved_source: str = "measured",
                hypothesis: str = "",
                marginal_factor: float = 2.0) -> FeasibilityVerdict:
    """Judge a target against a design's achieved (1 - alpha).

    achievable exactly when achieved <= required; within
    marginal_factor above the requirement counts as marginal. Targets
    below one unit's performance raise AlreadyAchievableError since no
    parallelism question exists there.
    """
    if marginal_factor < 1:
        raise ValueError(f"marginal_factor must be >= 1, got {marginal_factor!r}")
    t = as_flops(target)
    if not math.isfinite(t):
        raise ValueError(f"target must be finite, got {t!r}")
    p = as_flops(per_processor_perf)
    if t < p:
        raise AlreadyAchievableError(
            f"target {t!r} flop/s is below single-unit performance {p!r} flop/s"
        )
    required = AlphaValue(p / t)
    achieved_value = achieved if isinstance(achieved, AlphaValue) else AlphaValue(float(achieved))
    a = achieved_value.one_minus_alpha
    r = required.one_minus_alpha
    if a <= r:
        verdict = "achievable"
    elif a <= marginal_factor * r:
        verdict = "marginal"
    else:
        verdict = "not-achievable"
    return FeasibilityVerdict(
        target_flops=t,
        hypothesis=hypothesis or f"P={p:.6g} flop/s",
        required=required,
        achieved=achieved_value,
        achieved_source=achieved_source,
        verdict=verdict,
        marginal_factor=marginal_factor,
    )
