"""What the scaling law says about machines that do not exist yet.

Two exercises, both holding (1 - alpha) fixed while the machine grows:

  * virtual_scale: take one machine's per-unit performance and alpha,
    sweep the unit count, and watch r_max crawl toward p_max. Its
    r_peak axis is k * P, so a sweep up to a peak rate R is
    virtual_scale(P, alpha, k_max=R / P). k runs on a decade-aligned grid
    of correctly rounded products, so a curve has the same bits on every
    platform; a pow kernel may round otherwise on another CPU.
  * feasibility: would a target rate fit under p_max at all, and with
    how much margin.

project_trend extrapolates a fitted historical trend of (1 - alpha)
to a given year.

ForecastCurve, TrendPoint and FeasibilityVerdict are plain records that
check nothing: virtual_scale, project_trend and feasibility check their
inputs and build them. A curve is nondecreasing in both axes, with r_max
under r_peak and p_max, by construction.

Every curve carries the same caveat: holding alpha constant while
growing a machine is optimistic, since dispatch and OS costs grow with
the unit count. Curves are ceilings, not predictions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal

from .amdahl import AlphaValue, _denominator, _oma, p_max, required_one_minus_alpha
from .errors import check_number
from .stats import RegressionFit

CONSTANT_ALPHA_CAVEAT = (
    "assumes (1 - alpha) stays fixed as the machine grows; dispatch and "
    "OS overheads grow with the unit count, so these curves are ceilings"
)

# Samples per decade of a scaling sweep, and the correctly rounded 10 ** (i / 64).
SAMPLES_PER_DECADE = 64
STEPS = tuple(float(Context(prec=40).power(10, Decimal(i) / SAMPLES_PER_DECADE))
              for i in range(SAMPLES_PER_DECADE))


@dataclass(frozen=True)
class ForecastCurve:
    """A scaling sweep: (r_peak, r_max) samples in flop/s under one fixed
    alpha, as virtual_scale builds it."""

    source: str
    samples: tuple[tuple[float, float], ...]
    asymptote_flops: float
    caveat = CONSTANT_ALPHA_CAVEAT  # the same for every curve, so not a field

    @property
    def r_peak(self) -> tuple[float, ...]:
        return tuple(s[0] for s in self.samples)

    @property
    def r_max(self) -> tuple[float, ...]:
        return tuple(s[1] for s in self.samples)


def virtual_scale(per_processor_perf: float,
                  alpha: AlphaValue,
                  k_max: float,
                  source: str = "") -> ForecastCurve:
    """Grow a machine of fixed per-unit performance and fixed alpha.

    Samples k from 1 to k_max, 64 per decade: sample j is the one rounded
    product STEPS[j % 64] * 10 ** (j // 64), and the last is k_max itself.
    r_peak = k * P, r_max = k * P * E(alpha, k), and the asymptote is
    p_max(P, alpha). A sub-serial 1 - alpha, above 1, has no rising curve.
    """
    p = check_number(per_processor_perf, "performance", 0, strict=True)
    oma = _oma(alpha)
    if oma > 1.0:
        raise ValueError(f"a sub-serial 1 - alpha ({oma!r} > 1) has no rising curve")
    k_max = check_number(k_max, "k_max", 1.0)
    if k_max * p == math.inf:
        raise ValueError("the sweep's end k_max * P overflows the float range")
    n = math.ceil(math.log10(k_max) * SAMPLES_PER_DECADE)  # 0 only at k_max == 1
    scales = [float(f"1e{d}") for d in range(n // SAMPLES_PER_DECADE + 1)]
    ks = [step * scale for scale in scales for step in STEPS][:n] + [k_max]
    if n:  # a log10 rounded up past a grid point puts only the last one past k_max
        ks[-2] = min(ks[-2], k_max)
    # The quotient can lose an ulp between neighbouring samples at large k, so
    # r_max is a running maximum.
    samples = []
    r_max = 0.0
    for k in ks:
        r_peak = k * p
        r = r_peak / _denominator(k, oma)
        if r > r_max:
            r_max = r
        samples.append((r_peak, r_max))
    return ForecastCurve(source=source or f"P={p:.6g} flop/s, 1-alpha={oma:.6g}",
                         samples=tuple(samples), asymptote_flops=p_max(p, alpha))


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
    year = check_number(year, "year", -math.inf)
    try:
        value = 10.0 ** trend.predict(year)
    except OverflowError:
        value = math.inf
    return TrendPoint(year=year, value=value, extrapolated=trend.extrapolates(year))


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Can a target rate fit under the alpha ceiling of a design.

    required is the loosest (1 - alpha) that still reaches the target;
    achieved is what the design delivers (with the source of that
    number); verdict follows from the two and marginal_factor.
    """

    target_flops: float
    hypothesis: str
    required: AlphaValue
    achieved: AlphaValue
    achieved_source: str
    marginal_factor: float

    @property
    def verdict(self) -> str:
        """achievable when achieved <= required, marginal when within
        marginal_factor above it, not-achievable beyond that."""
        a = self.achieved.one_minus_alpha
        r = self.required.one_minus_alpha
        if a <= r:
            return "achievable"
        if a <= self.marginal_factor * r:
            return "marginal"
        return "not-achievable"


def feasibility(target: float,
                per_processor_perf: float,
                achieved: AlphaValue,
                achieved_source: str = "measured",
                marginal_factor: float = 2.0) -> FeasibilityVerdict:
    """Judge a target against a design's achieved (1 - alpha), an AlphaValue.

    The verdict is achievable exactly when achieved <= required; within
    marginal_factor above the requirement counts as marginal. Targets
    below one unit's performance raise AlreadyAchievableError since no
    parallelism question exists there.
    """
    marginal_factor = check_number(marginal_factor, "marginal_factor", 1)
    t = check_number(target, "performance", 0, strict=True)
    p = check_number(per_processor_perf, "performance", 0, strict=True)
    _oma(achieved, "achieved")  # refuses a bare number
    return FeasibilityVerdict(
        target_flops=t,
        hypothesis=f"P={p:.6g} flop/s",
        required=required_one_minus_alpha(p, t),
        achieved=achieved,
        achieved_source=achieved_source,
        marginal_factor=marginal_factor,
    )
