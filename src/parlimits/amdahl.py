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

The laws take the serial distance only as an AlphaValue and refuse a bare
number; AlphaValue(1 - alpha) is the caller's own, cancelling, conversion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    _FLOAT_MAX, AlreadyAchievableError, InconsistentMeasurementError, check_count, check_number,
)

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
        object.__setattr__(self, "one_minus_alpha",
                           check_number(self.one_minus_alpha, "one_minus_alpha", 0))

    @property
    def alpha(self) -> float:
        return 1.0 - self.one_minus_alpha

    @property
    def sub_serial(self) -> bool:
        """True when the implied alpha is negative (worse than serial)."""
        return self.one_minus_alpha > 1.0

    def __str__(self) -> str:
        return f"alpha=1-{self.one_minus_alpha:.6g}"


def _oma(alpha: AlphaValue, name: str = "alpha") -> float:
    """The stored 1 - alpha of an AlphaValue; a bare number is refused."""
    if isinstance(alpha, AlphaValue):
        return alpha.one_minus_alpha
    raise ValueError(f"{name} must be an AlphaValue, got {alpha!r}")


def _denominator(k, oma):
    """1 + (k - 1)(1 - alpha), which is k / S and 1 / E."""
    return 1.0 + (k - 1.0) * oma


def speedup(alpha: AlphaValue, k: float) -> float:
    """S = 1 / ((1 - alpha) + alpha / k), evaluated as k / (1 + (k-1)(1-alpha))."""
    k = check_number(k, "k", 1)
    return k / _denominator(k, _oma(alpha))


def efficiency(alpha: AlphaValue, k: float) -> float:
    """E = S / k = 1 / (1 + (k - 1) * (1 - alpha))."""
    k = check_number(k, "k", 1)
    return 1.0 / _denominator(k, _oma(alpha))


def alpha_eff_from_speedup(s: float, k: float) -> AlphaValue:
    """Invert S(alpha, k): 1 - alpha = (k - S) / ((k - 1) * S).

    Requires k >= 2 (a single unit carries no parallelism signal) and
    0 < S <= k; S above k contradicts the model. An int k is compared and
    subtracted exactly, also above 2**53, where float(k) rounds.
    """
    n = k  # an int k above 2**53 does not survive float(k)
    k = check_number(k, "k", 2)
    s = check_number(s, "speedup", 0, strict=True)
    if s > (n if type(n) is int else k):  # an int compares with a float exactly
        if s <= k * (1.0 + EFFICIENCY_SLACK):
            return AlphaValue(0.0)
        raise InconsistentMeasurementError(
            f"speedup {s!r} exceeds unit count {k!r}; no alpha reproduces it"
        )
    gap = float(n - int(s)) - (s - int(s)) if type(n) is int else k - s
    return AlphaValue(gap / ((k - 1.0) * s))


def alpha_eff_from_efficiency(e: float, k: float) -> AlphaValue:
    """Invert E(alpha, k): 1 - alpha = (1 - E) / (E * (k - 1)).

    Requires k >= 2 and 0 < E <= 1 (a hair above 1 is snapped down).
    E below 1/k comes out sub-serial: the result has alpha < 0 and is
    returned as-is with its sub_serial flag set.
    """
    k = check_number(k, "k", 2)
    e = check_number(e, "efficiency", 0, strict=True)
    return AlphaValue(_snap_and_invert(e, k)[1])


def _snap_and_invert(e: float, k: float) -> tuple[float, float]:
    """The efficiency e > 0, snapped to 1 inside EFFICIENCY_SLACK, and the
    finite 1 - alpha = (1 - E) / (E * (k - 1)) that reproduces it, for an
    e and a k >= 2 that are already checked; k may be an int within the
    float range."""
    if e > 1.0:
        if e <= 1.0 + EFFICIENCY_SLACK:
            e = 1.0
        else:
            raise InconsistentMeasurementError(
                f"efficiency {e!r} exceeds 1; no alpha reproduces it"
            )
    # A tiny E over a small k overflows, e.g. E = 5e-324 at k = 2.
    return e, check_number((1.0 - e) / (e * (k - 1.0)), "one_minus_alpha", 0)


def p_max(per_processor_perf: float, alpha: AlphaValue) -> float:
    """The performance ceiling P / (1 - alpha) in flop/s for unlimited unit
    counts; inf at 1 - alpha = 0 and where the quotient overflows."""
    p = check_number(per_processor_perf, "performance", 0, strict=True)
    oma = _oma(alpha)
    return math.inf if oma == 0.0 else p / oma


def required_one_minus_alpha(per_processor_perf: float, target: float) -> AlphaValue:
    """The largest (1 - alpha) that still allows `target`: P / target.

    A target below the single-unit performance needs no parallelism at
    all, which is reported as a distinct condition rather than a value
    above 1.
    """
    p = check_number(per_processor_perf, "performance", 0, strict=True)
    t = check_number(target, "performance", 0, strict=True)
    if t < p:
        raise AlreadyAchievableError(
            f"target {t!r} flop/s is below single-unit performance {p!r} flop/s"
        )
    return AlphaValue(p / t)


def amplification(alpha: AlphaValue) -> float:
    """1 / (1 - alpha): how far p_max sits above one unit. inf at alpha=1."""
    return _amplify(_oma(alpha))


def _amplify(oma: float) -> float:
    # inf also where 1 / oma overflows, i.e. for subnormal oma.
    return math.inf if oma == 0.0 else 1.0 / oma


@dataclass(frozen=True, slots=True, init=False)
class AmdahlPoint:
    """One machine's measured position in the scaling model.

    Stores its two measurements, the unit count k >= 2 and the efficiency,
    and the one_minus_alpha that the inverse map derives from them on
    construction. speedup = efficiency * k, alpha_eff and amplification =
    1 / (1 - alpha) are derived from those when read, so they cannot
    disagree. An efficiency a hair above 1, inside EFFICIENCY_SLACK, is
    stored as exactly 1. AmdahlPoint(k, efficiency) is the one way to
    build a point: a true int k within the float range and a positive
    finite float efficiency pass an inline test; any other value goes on
    to the checkers in errors, for its message.
    """

    k: int
    efficiency: float
    one_minus_alpha: float = field(init=False)

    def __init__(self, k: int, efficiency: float) -> None:
        if type(k) is not int or not 2 <= k <= _FLOAT_MAX:
            check_count(k, "k", 2)
            check_number(k, "k", 2)
        if type(efficiency) is not float or not 0.0 < efficiency <= _FLOAT_MAX:
            efficiency = check_number(efficiency, "efficiency", 0, strict=True)
        efficiency, oma = _snap_and_invert(efficiency, k)
        _SET_K(self, k)
        _SET_EFFICIENCY(self, efficiency)
        _SET_ONE_MINUS_ALPHA(self, oma)

    @property
    def speedup(self) -> float:
        return self.efficiency * self.k

    @property
    def alpha_eff(self) -> AlphaValue:
        return AlphaValue(self.one_minus_alpha)

    @property
    def amplification(self) -> float:
        return _amplify(self.one_minus_alpha)


# The slots' own setters: they bypass the frozen __setattr__.
_SET_K, _SET_EFFICIENCY, _SET_ONE_MINUS_ALPHA = (
    getattr(AmdahlPoint, f).__set__ for f in ("k", "efficiency", "one_minus_alpha"))
