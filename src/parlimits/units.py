"""Performance figures with explicit flop/s unit scales.

Internally every rate is a float in flop/s. The unit tag only controls
formatting; conversions multiply by exact powers of 1000 so that
round-tripping through a different tag never loses precision beyond
one float multiply.
"""
from __future__ import annotations

from dataclasses import dataclass

# Exact decimal scales relative to flop/s.
_SCALES: dict[str, float] = {
    "flop/s": 1.0,
    "Gflop/s": 1e9,
    "Tflop/s": 1e12,
    "Pflop/s": 1e15,
    "Eflop/s": 1e18,
}


def _scale(unit: str) -> float:
    """flop/s per `unit`."""
    if unit not in _SCALES:
        raise ValueError(f"unknown unit {unit!r}; choose from {sorted(_SCALES)}")
    return _SCALES[unit]


@dataclass(frozen=True)
class PerformanceFigure:
    """A positive computing rate plus the unit it is displayed in.

    value_flops is always the raw rate in flop/s; unit names the scale
    used by __str__ and in_unit round-trips.
    """

    value_flops: float
    unit: str = "flop/s"

    def __post_init__(self) -> None:
        _scale(self.unit)
        if not (self.value_flops > 0):
            raise ValueError(f"performance must be positive, got {self.value_flops!r}")

    @classmethod
    def from_value(cls, value: float, unit: str) -> PerformanceFigure:
        """Build from a number expressed in `unit` (e.g. 11.8, "Gflop/s")."""
        return cls(value * _scale(unit), unit)

    def in_unit(self, unit: str) -> float:
        """The numeric value expressed in `unit`."""
        return self.value_flops / _scale(unit)

    def rescaled(self, unit: str) -> PerformanceFigure:
        """Same rate, displayed in a different unit."""
        return PerformanceFigure(self.value_flops, unit)

    def __str__(self) -> str:
        return f"{self.in_unit(self.unit):.6g} {self.unit}"


def as_flops(value: float | PerformanceFigure) -> float:
    """Accept either a raw flop/s float or a PerformanceFigure."""
    if isinstance(value, PerformanceFigure):
        return value.value_flops
    v = float(value)
    if not (v > 0):
        raise ValueError(f"performance must be positive, got {value!r}")
    return v
