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
from dataclasses import dataclass, field

from .errors import (AlreadyAchievableError, InconsistentMeasurementError, UnboundedLimitError,
                     check_count, check_number)

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

    @classmethod
    def from_alpha(cls, alpha: float) -> AlphaValue:
        alpha = check_number(alpha, "alpha", -math.inf)
        if alpha > 1:
            raise ValueError(f"alpha must be <= 1, got {alpha!r}")
        return cls(1.0 - alpha)

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


def _denominator(k, oma):
    """1 + (k - 1)(1 - alpha), which is k / S and 1 / E; k may be an array."""
    return 1.0 + (k - 1.0) * oma


def speedup(alpha: float | AlphaValue, k: float) -> float:
    """S = 1 / ((1 - alpha) + alpha / k), evaluated as k / (1 + (k-1)(1-alpha))."""
    k = check_number(k, "k", 1)
    return k / _denominator(k, _oma(alpha))


def efficiency(alpha: float | AlphaValue, k: float) -> float:
    """E = S / k = 1 / (1 + (k - 1) * (1 - alpha))."""
    k = check_number(k, "k", 1)
    return 1.0 / _denominator(k, _oma(alpha))


def alpha_eff_from_speedup(s: float, k: float) -> AlphaValue:
    """Invert S(alpha, k): 1 - alpha = (k - S) / ((k - 1) * S).

    Requires k >= 2 (a single unit carries no parallelism signal) and
    0 < S <= k; S above k contradicts the model.
    """
    k = check_number(k, "k", 2)
    s = check_number(s, "speedup", 0, strict=True)
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
    k = check_number(k, "k", 2)
    e = check_number(e, "efficiency", 0, strict=True)
    if e > 1.0:
        if e <= 1.0 + EFFICIENCY_SLACK:
            e = 1.0
        else:
            raise InconsistentMeasurementError(
                f"efficiency {e!r} exceeds 1; no alpha reproduces it"
            )
    return AlphaValue((1.0 - e) / (e * (k - 1.0)))


def p_max(per_processor_perf: float, alpha: float | AlphaValue) -> float:
    """The performance ceiling P / (1 - alpha) in flop/s for unlimited unit
    counts; inf where the quotient overflows."""
    p = check_number(per_processor_perf, "performance", 0, strict=True)
    oma = _oma(alpha)
    if oma == 0.0:
        raise UnboundedLimitError(
            "alpha is exactly 1, so performance grows without bound; "
            "no finite ceiling exists"
        )
    return p / oma


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


def amplification(alpha: float | AlphaValue) -> float:
    """1 / (1 - alpha): how far p_max sits above one unit. inf at alpha=1."""
    return _amplify(_oma(alpha))


def _amplify(oma: float) -> float:
    # inf also where 1 / oma overflows, i.e. for subnormal oma.
    return math.inf if oma == 0.0 else 1.0 / oma


@dataclass(frozen=True, slots=True)
class AmdahlPoint:
    """One machine's measured position in the scaling model.

    Built from its two measurements, the unit count k >= 2 and the
    efficiency. speedup = efficiency * k, alpha_eff through the inverse
    map and amplification = 1 / (1 - alpha) are derived from them once, on
    construction, so they cannot disagree. An efficiency a hair above 1,
    inside EFFICIENCY_SLACK, is stored as exactly 1.
    """

    k: int
    efficiency: float
    speedup: float = field(init=False)
    alpha_eff: AlphaValue = field(init=False)
    amplification: float = field(init=False)

    def __post_init__(self) -> None:
        check_count(self.k, "k", 2)
        a = alpha_eff_from_efficiency(self.efficiency, self.k)
        e = min(float(self.efficiency), 1.0)  # the inverse map has checked it
        object.__setattr__(self, "efficiency", e)
        object.__setattr__(self, "speedup", e * self.k)
        object.__setattr__(self, "alpha_eff", a)
        object.__setattr__(self, "amplification", _amplify(a.one_minus_alpha))
