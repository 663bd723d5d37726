"""Serial-fraction scaling laws and their inverses.

The model: a workload with parallel fraction alpha runs on k units with

    speedup     S(alpha, k) = 1 / ((1 - alpha) + alpha / k)
    efficiency  E(alpha, k) = S / k = 1 / (1 + (k - 1) * (1 - alpha))

and the inverse maps recover the effective parallel fraction from a
measured speedup or efficiency:

    alpha_eff = (k / (k - 1)) * ((S - 1) / S)
    alpha_eff = (E * k - 1) / (E * (k - 1))

Everything here works with (1 - alpha) as the primary quantity because
interesting systems have alpha within 1e-7 of 1, where alpha itself has
almost no float resolution left. The inverse maps are therefore written
in the cancellation-free forms

    1 - alpha = (k - S) / ((k - 1) * S)
    1 - alpha = (1 - E) / (E * (k - 1))

which are algebraically identical to the textbook ones but never subtract
two nearly-equal numbers.

Two ceiling results follow directly. A machine built from units of
performance P can never exceed

    p_max = P / (1 - alpha)

no matter how many units are added, and hitting a target instead requires

    (1 - alpha) <= P / target.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import AlreadyAchievableError, InconsistentMeasurementError, UnboundedLimitError
from .units import PerformanceFigure, as_flops

# Measured efficiencies may land a hair above 1 from rounding in the source
# data; anything inside this relative band is snapped to exactly 1.
EFFICIENCY_SLACK = 1e-9


@dataclass(frozen=True, slots=True)
class AlphaValue:
    """A parallel fraction stored as its distance from 1.

    one_minus_alpha is the primary field; alpha is derived. This keeps
    full resolution for values like 3.273e-8 that would be crushed to
    zero information inside alpha itself. one_minus_alpha must be
    nonnegative and finite; values above 1 (negative alpha) are legal
    and flagged sub_serial rather than rejected, because sub-serial
    measurements do occur and silently clamping them would hide it.
    """

    one_minus_alpha: float

    def __post_init__(self) -> None:
        oma = self.one_minus_alpha
        if not (isinstance(oma, (int, float)) and math.isfinite(oma)):
            raise ValueError(f"one_minus_alpha must be finite, got {oma!r}")
        if oma < 0:
            raise ValueError(f"one_minus_alpha must be >= 0, got {oma!r}")
        object.__setattr__(self, "one_minus_alpha", float(oma))

    @classmethod
    def from_alpha(cls, alpha: float) -> AlphaValue:
        if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        if alpha > 1:
            raise ValueError(f"alpha must be <= 1, got {alpha!r}")
        return cls(1.0 - float(alpha))

    @property
    def alpha(self) -> float:
        return 1.0 - self.one_minus_alpha

    @property
    def sub_serial(self) -> bool:
        """True when the implied alpha is negative (worse than serial)."""
        return self.one_minus_alpha > 1.0

    def __str__(self) -> str:
        return f"alpha=1-{self.one_minus_alpha:.6g}"


def _oma(alpha: float | AlphaValue) -> float:
    """One minus alpha from either representation."""
    if isinstance(alpha, AlphaValue):
        return alpha.one_minus_alpha
    return AlphaValue.from_alpha(alpha).one_minus_alpha


def _check_at_least(value: float, minimum: float, label: str = "k") -> float:
    """value as a finite float >= minimum, else a one-line ValueError."""
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{label} must be a finite number >= {minimum}, "
                         "got an integer beyond the float range") from None
    if not math.isfinite(value) or value < minimum:
        raise ValueError(f"{label} must be a finite number >= {minimum}, got {value!r}")
    return value


def _denominator(k, oma):
    """1 + (k - 1)(1 - alpha), which is k / S and 1 / E; k may be an array."""
    return 1.0 + (k - 1.0) * oma


def speedup(alpha: float | AlphaValue, k: float) -> float:
    """S = 1 / ((1 - alpha) + alpha / k), evaluated as k / (1 + (k-1)(1-alpha))."""
    k = _check_at_least(k, 1.0)
    return k / _denominator(k, _oma(alpha))


def efficiency(alpha: float | AlphaValue, k: float) -> float:
    """E = S / k = 1 / (1 + (k - 1) * (1 - alpha))."""
    k = _check_at_least(k, 1.0)
    return 1.0 / _denominator(k, _oma(alpha))


def alpha_eff_from_speedup(s: float, k: float) -> AlphaValue:
    """Invert S(alpha, k): 1 - alpha = (k - S) / ((k - 1) * S).

    Requires k >= 2 (a single unit carries no parallelism signal) and
    0 < S <= k; S above k contradicts the model.
    """
    k = _check_at_least(k, 2.0)
    s = float(s)
    if not math.isfinite(s) or s <= 0:
        raise ValueError(f"speedup must be positive, got {s!r}")
    if s > k:
        if s <= k * (1.0 + EFFICIENCY_SLACK):
            s = k
        else:
            raise InconsistentMeasurementError(
                f"speedup {s!r} exceeds unit count {k!r}; no alpha reproduces it"
            )
    return AlphaValue((k - s) / ((k - 1.0) * s))


def alpha_eff_from_efficiency(e: float, k: float) -> AlphaValue:
    """Invert E(alpha, k): 1 - alpha = (1 - E) / (E * (k - 1)).

    Requires k >= 2 and 0 < E <= 1 (a hair above 1 is snapped down).
    E below 1/k comes out sub-serial: the result has alpha < 0 and is
    returned as-is with its sub_serial flag set.
    """
    k = _check_at_least(k, 2.0)
    e = float(e)
    if not math.isfinite(e) or e <= 0:
        raise ValueError(f"efficiency must be positive, got {e!r}")
    if e > 1.0:
        if e <= 1.0 + EFFICIENCY_SLACK:
            e = 1.0
        else:
            raise InconsistentMeasurementError(
                f"efficiency {e!r} exceeds 1; no alpha reproduces it"
            )
    return AlphaValue((1.0 - e) / (e * (k - 1.0)))


def p_max(per_processor_perf: float | PerformanceFigure,
          alpha: float | AlphaValue) -> PerformanceFigure:
    """The performance ceiling P / (1 - alpha) for unlimited unit counts."""
    p = as_flops(per_processor_perf)
    oma = _oma(alpha)
    if oma == 0.0:
        raise UnboundedLimitError(
            "alpha is exactly 1, so performance grows without bound; "
            "no finite ceiling exists"
        )
    return _auto_unit(p / oma)


def required_one_minus_alpha(per_processor_perf: float | PerformanceFigure,
                             target: float | PerformanceFigure) -> AlphaValue:
    """The largest (1 - alpha) that still allows `target`: P / target.

    A target below the single-unit performance needs no parallelism at
    all, which is reported as a distinct condition rather than a value
    above 1.
    """
    p = as_flops(per_processor_perf)
    t = as_flops(target)
    if t < p:
        raise AlreadyAchievableError(
            f"target {t!r} flop/s is below single-unit performance {p!r} flop/s"
        )
    return AlphaValue(p / t)


def rmax_from_record(k: float, per_processor_perf: float | PerformanceFigure,
                     alpha: float | AlphaValue) -> PerformanceFigure:
    """Achievable rate of a k-unit machine: r_max = k * P * E(alpha, k)."""
    k = _check_at_least(k, 1.0)
    p = as_flops(per_processor_perf)
    return _auto_unit(k * p * efficiency(alpha, k))


def amplification(alpha: float | AlphaValue) -> float:
    """1 / (1 - alpha): how far p_max sits above one unit. inf at alpha=1."""
    return _amplify(_oma(alpha))


def _amplify(oma: float) -> float:
    # inf also where 1 / oma overflows, i.e. for subnormal oma.
    return math.inf if oma == 0.0 else 1.0 / oma


def _auto_unit(flops: float) -> PerformanceFigure:
    """Tag a raw rate with the largest unit that keeps the value >= 1."""
    for unit in ("Eflop/s", "Pflop/s", "Tflop/s", "Gflop/s"):
        fig = PerformanceFigure(flops, unit)
        if fig.in_unit(unit) >= 1.0:
            return fig
    return PerformanceFigure(flops, "flop/s")


@dataclass(frozen=True, slots=True)
class AmdahlPoint:
    """One machine's measured position in the scaling model.

    Fields are mutually redundant on purpose; construction checks that
    they actually cohere (efficiency is speedup/k to 1e-12 relative,
    alpha_eff reproduces the efficiency through the forward map
    1 / (1 + (k - 1)(1 - alpha)), which has no cancellation near
    efficiency 1) so a point can never carry a contradictory story.
    """

    k: int
    efficiency: float
    speedup: float
    alpha_eff: AlphaValue
    amplification: float

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if self.speedup < 0:
            raise ValueError(f"speedup must be >= 0, got {self.speedup!r}")
        if not _close(self.efficiency, self.speedup / self.k):
            raise ValueError(
                f"efficiency {self.efficiency!r} != speedup/k {self.speedup / self.k!r}"
            )
        oma = self.alpha_eff.one_minus_alpha
        if self.k >= 2:
            expect = 1.0 / _denominator(self.k, oma)
            if not _close(self.efficiency, expect):
                raise ValueError(
                    f"alpha_eff {oma!r} inconsistent with efficiency "
                    f"{self.efficiency!r} (it gives {expect!r})"
                )
        if math.isfinite(self.amplification):
            if not _close(self.amplification * oma, 1.0):
                raise ValueError("amplification inconsistent with alpha_eff")
        elif oma * sys.float_info.max >= 1.0:
            raise ValueError("infinite amplification requires 1 / (1 - alpha) to overflow")

    @classmethod
    def from_efficiency(cls, k: int, e: float) -> AmdahlPoint:
        """Build a coherent point from (unit count, measured efficiency)."""
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"k must be an integer >= 2, got {k!r}")
        a = alpha_eff_from_efficiency(e, k)
        if e > 1.0:  # survived the slack check inside the inverse map
            e = 1.0
        return cls(
            k=k,
            efficiency=e,
            speedup=e * k,
            alpha_eff=a,
            amplification=_amplify(a.one_minus_alpha),
        )


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
