"""Shared error types, and the checkers that every public number goes through.

All subclass ValueError so callers can catch either the specific condition
or any validation failure with one handler. Plain ValueError is reserved
for malformed arguments (wrong type, out of declared domain).
"""
from __future__ import annotations

import math
import sys
from numbers import Real

# The largest finite float: a count above it has no float value.
_FLOAT_MAX = sys.float_info.max


class InconsistentMeasurementError(ValueError):
    """Measured quantities violate a model identity (e.g. S > k or E > 1)."""


class AlreadyAchievableError(ValueError):
    """A target is at or below what a single unit already delivers."""


class DegenerateScenarioError(ValueError):
    """A timing scenario carries no work at all, so ratios are undefined."""


class SchemaError(ValueError):
    """An input table is missing required columns or has unusable headers."""


def check_number(value, label: str, minimum: float, *, strict: bool = False,
                 finite: bool = True) -> float:
    """value as a float >= minimum (> minimum when strict), else a one-line
    ValueError. NaN and strings are refused, and so are infinities unless
    finite is False. A minimum of -inf asks only for a finite real number."""
    got = None
    # A float, the common case, needs neither the ABC check nor a conversion.
    if type(value) is not float and isinstance(value, (int, Real)):
        try:
            value = float(value)
        except OverflowError:
            got = "an integer beyond the float range"
    if type(value) is float and (value > minimum if strict else value >= minimum) and (
            math.isfinite(value) or not finite):
        return value
    wanted = f"{label} must be {'a finite number' if finite else 'a number'}"
    if minimum != -math.inf:
        wanted += f" {'>' if strict else '>='} {minimum!r}"
    raise ValueError(f"{wanted}, got {got or repr(value)}")


def check_count(value, label: str, minimum: int) -> int:
    """value as an int >= minimum, else a ValueError; a bool is not a count."""
    if type(value) is int and value >= minimum:
        return value
    raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")
