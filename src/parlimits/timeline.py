"""Cycle-accurate model of a dispatched parallel run.

The modeled machine runs one task on n units. A master performs serial
setup (access_init, sw_pre, os_pre), then dispatches the units one at a
time; unit i may start only after every dispatch slot up to and
including its own has elapsed. Each unit then sees an outbound
propagation delay, computes its payload, and sees an inbound delay. When
the slowest unit finishes, the master performs serial teardown (os_post,
sw_post, access_term). All quantities are in cycles of a common clock:

    start_i = prefix + sum(T_j for j <= i)
    end_i   = start_i + pd_out_i + payload_i + pd_in_i
    total   = max(end_i) + suffix

The breakdown also maps every cycle of the n * total capacity rectangle
to a category. Unit i's column holds its own dispatch slot, delays, and
payload; unit 0's column additionally hosts the serial prefix and
suffix; everything unclaimed is idle. Categories therefore sum exactly
to the capacity, which is what makes the share table trustworthy.

The effective parallel fraction of a run compares it to a single unit
doing all payload back to back: S = sum(payload) / total, mapped through
the inverse speedup law at k = n. A one-unit run has no speedup signal,
so its alpha is reported as the payload fraction of the run itself.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .amdahl import AlphaValue, alpha_eff_from_speedup
from .errors import DegenerateScenarioError

_SCALAR_FIELDS = ("sw_pre", "sw_post", "os_pre", "os_post", "access_init", "access_term")
_PER_UNIT_FIELDS = ("payload_cycles", "dispatch_cycles", "pd_out_cycles", "pd_in_cycles")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def linear_ramp(n_units: int, max_value: float) -> np.ndarray:
    """Per-unit values rising linearly from 0 (first unit) to max (last).

    Returns a new float64 array; value i is max_value * i / (n_units - 1),
    rounded once per operation. With one unit the ramp has not risen yet,
    so it is [0.0].
    """
    if n_units < 1:
        raise ValueError(f"n_units must be >= 1, got {n_units!r}")
    if n_units == 1:
        return np.zeros(1)
    # A non-finite or overflowing ramp is rejected by TimelineScenario's
    # validation, with its own message; numpy need not warn about it first.
    with np.errstate(over="ignore", invalid="ignore"):
        return max_value * np.arange(n_units, dtype=float) / (n_units - 1)


@dataclass(frozen=True, eq=False)
class TimelineScenario:
    """Inputs of one dispatched run; everything in cycles, everything >= 0.

    Per-unit fields accept either a scalar (applied uniformly) or a
    sequence of exactly n_units values. A scalar is stored as a float; a
    sequence is stored as a read-only float64 copy, so later changes to
    the caller's list or array do not reach the scenario. Two scenarios
    are equal when they describe the same values for every unit, whichever
    form holds them.
    """

    n_units: int
    payload_cycles: float | Sequence[float] = 0.0
    dispatch_cycles: float | Sequence[float] = 0.0
    pd_out_cycles: float | Sequence[float] = 0.0
    pd_in_cycles: float | Sequence[float] = 0.0
    sw_pre: float = 0.0
    sw_post: float = 0.0
    os_pre: float = 0.0
    os_post: float = 0.0
    access_init: float = 0.0
    access_term: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_units, int) or self.n_units < 1:
            raise ValueError(f"n_units must be an integer >= 1, got {self.n_units!r}")
        for name in _PER_UNIT_FIELDS:
            object.__setattr__(self, name, self._normalize(name, getattr(self, name)))
        for name in _SCALAR_FIELDS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))

    def _normalize(self, name: str, value: float | Sequence[float]) -> float | np.ndarray:
        if isinstance(value, (int, float)):
            v = float(value)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            return v
        values = np.array(value, dtype=float)
        if values.shape != (self.n_units,):
            raise ValueError(
                f"{name} has {values.size} entries for {self.n_units} units"
            )
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError(f"{name} entries must all be finite and >= 0")
        return _read_only(values)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        n = self.n_units
        return n == other.n_units and all(
            np.array_equal(np.broadcast_to(getattr(self, name), n),
                           np.broadcast_to(getattr(other, name), n))
            for name in _PER_UNIT_FIELDS + _SCALAR_FIELDS
        )

    @property
    def prefix_cycles(self) -> float:
        return self.access_init + self.sw_pre + self.os_pre

    @property
    def suffix_cycles(self) -> float:
        return self.os_post + self.sw_post + self.access_term


@dataclass(frozen=True)
class TimingBreakdown:
    """Result of simulating one scenario.

    shares maps category -> fraction of the n * total capacity rectangle:
    software, os, access, dispatch, propagation, payload, idle. They sum
    to 1 because idle is defined as the remainder.

    payload_cycles_effective is alpha_eff * total: the per-unit payload
    time a perfectly clean run with this alpha would show. It differs
    from the raw payload sum whenever overheads exist.

    unit_start, unit_busy, unit_end and unit_idle are read-only float64
    arrays of n_units entries each; equality leaves them out.
    """

    n_units: int
    total_cycles: float
    payload_cycles: float
    payload_cycles_effective: float
    alpha_eff: AlphaValue
    unit_start: np.ndarray = field(compare=False)
    unit_busy: np.ndarray = field(compare=False)
    unit_end: np.ndarray = field(compare=False)
    unit_idle: np.ndarray = field(compare=False)
    shares: dict[str, float] = field(compare=False)

    def __post_init__(self) -> None:
        if self.total_cycles < self.unit_end.max():
            raise ValueError("total_cycles below the last unit's end time")
        drift = abs(sum(self.shares.values()) - 1.0)
        if drift > 1e-9:
            raise ValueError(f"shares sum to 1 {drift:.2e} off; accounting is broken")
        expect = self.alpha_eff.alpha * self.total_cycles
        if abs(self.payload_cycles_effective - expect) > 1e-12 * max(expect, 1.0):
            raise ValueError("payload_cycles_effective inconsistent with alpha_eff")


def simulate(scenario: TimelineScenario) -> TimingBreakdown:
    """Run the dispatch timeline and account for every capacity cycle."""
    n = scenario.n_units
    # Uniform values become full contiguous arrays, so that every sum
    # below reduces the same n values in the same order as an explicit list.
    payload, dispatch, pd_out, pd_in = (
        np.ascontiguousarray(np.broadcast_to(getattr(scenario, name), n))
        for name in _PER_UNIT_FIELDS
    )

    prefix = scenario.prefix_cycles
    suffix = scenario.suffix_cycles

    start = prefix + np.cumsum(dispatch)
    busy = pd_out + payload + pd_in
    end = start + busy
    total = float(end.max()) + suffix

    if total == 0.0:
        raise DegenerateScenarioError("scenario carries no cycles at all")

    alpha = _alpha_of(float(payload.sum()), total, n)

    # Capacity map: unit i's column carries its dispatch slot and busy
    # segments; unit 0's column also carries the serial prefix and suffix.
    idle = total - dispatch - busy
    idle[0] -= prefix + suffix

    cat_cycles = {
        "software": scenario.sw_pre + scenario.sw_post,
        "os": scenario.os_pre + scenario.os_post,
        "access": scenario.access_init + scenario.access_term,
        "dispatch": float(dispatch.sum()),
        "propagation": float(pd_out.sum() + pd_in.sum()),
        "payload": float(payload.sum()),
    }
    capacity = n * total
    cat_cycles["idle"] = capacity - sum(cat_cycles.values())
    shares = {k: v / capacity for k, v in cat_cycles.items()}

    return TimingBreakdown(
        n_units=n,
        total_cycles=total,
        payload_cycles=float(payload.sum()),
        payload_cycles_effective=alpha.alpha * total,
        alpha_eff=alpha,
        unit_start=_read_only(start),
        unit_busy=_read_only(busy),
        unit_end=_read_only(end),
        unit_idle=_read_only(idle),
        shares=shares,
    )


def _alpha_of(payload_sum: float, total: float, n: int) -> AlphaValue:
    if payload_sum == 0.0:
        # No payload at all: the run is pure overhead, alpha is 0.
        return AlphaValue(1.0)
    if n == 1:
        return AlphaValue(1.0 - payload_sum / total)
    return alpha_eff_from_speedup(payload_sum / total, n)


# ---- scenario files --------------------------------------------------------
#
# Flat key = value text. Scalar keys take a number. Per-unit keys take a
# number (uniform), "uniform:<v>", "linear:<max>" (ramp from 0), or a
# comma-separated list of exactly n_units numbers. '#' starts a comment.

_SCENARIO_KEYS = set(_SCALAR_FIELDS) | set(_PER_UNIT_FIELDS) | {"n_units"}


def parse_scenario(text: str, source: str = "<string>") -> TimelineScenario:
    """Parse scenario text; errors carry the 1-based offending line."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = (lineno, value)

    if "n_units" not in raw:
        raise ValueError(f"{source}: missing required key 'n_units'")
    lineno, value = raw.pop("n_units")
    try:
        n_units = int(value)
    except ValueError:
        raise ValueError(f"{source}:{lineno}: n_units must be an integer, got {value!r}") from None

    kwargs: dict[str, object] = {"n_units": n_units}
    for key, (lineno, value) in raw.items():
        try:
            if key in _PER_UNIT_FIELDS:
                kwargs[key] = _parse_per_unit(value, n_units)
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {key}: {exc}") from None

    try:
        return TimelineScenario(**kwargs)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def _parse_per_unit(value: str, n_units: int) -> float | np.ndarray:
    if value.startswith("uniform:"):
        return float(value[len("uniform:"):])
    if value.startswith("linear:"):
        return linear_ramp(n_units, float(value[len("linear:"):]))
    if "," in value:
        return _parse_list(value)
    return float(value)


# np.loadtxt strips these around a number as whitespace; float() does not.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_list(value: str) -> np.ndarray:
    """[float(v) for v in value.split(",")] as an array, parsed in C without
    a Python object per item wherever numpy's grammar agrees with float()'s."""
    if not any(c in value for c in _LOADTXT_ONLY_SPACE):
        try:
            values = np.loadtxt(io.StringIO(value), dtype=float, delimiter=",",
                                comments=None, ndmin=1)
        except ValueError:
            pass
        else:
            if values.shape == (value.count(",") + 1,):
                return values
    # Only float() takes underscores and non-ASCII digits, and its message
    # names the offending item.
    return np.array([float(v) for v in value.split(",")])


def load_scenario(path: str) -> TimelineScenario:
    """Read a scenario file; parse errors name the file and line."""
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=str(path))
