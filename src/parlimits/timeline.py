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

A uniform dispatch whose running sums are all exact (integer and dyadic
cycle counts, see _sums_exactly) gives the starts as the product
prefix + (i + 1) * dispatch, which never falls. Under it, when pd_out,
payload and pd_in are each uniform or largest at the last unit, as a
linear ramp is, the last unit ends last, and simulate takes its end as
max(end_i) without a pass over the units. Otherwise simulate finds
max(end_i) without holding start_i or end_i for all n units at once: it
walks the units in cache-sized blocks and carries the latest end from
block to block, the starts being the product above or, under any other
dispatch, a cumsum whose running sum is carried from block to block. Each
way gives the bits of the whole-array arithmetic.

The breakdown also maps every cycle of the n * total capacity rectangle
to a category. Unit i's column holds its own dispatch slot, delays, and
payload; unit 0's column additionally hosts the serial prefix and
suffix; everything unclaimed is idle. Categories therefore sum exactly
to the capacity, which is what makes the share table trustworthy.

The effective parallel fraction of a run compares it to a single unit
doing all payload back to back: S = sum(payload) / total, mapped through
the inverse speedup law at k = n. Below S = n that law's
1 - alpha = (n * total - sum(payload)) / ((n - 1) * sum(payload)) is
formed exactly and rounded once, since k - S cancels when the run is
nearly all payload. A one-unit run has no speedup signal, so its alpha is
reported as the payload fraction of the run itself.
"""
from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from typing import Callable, Iterator, Sequence

import numpy as np

from .amdahl import AlphaValue, alpha_eff_from_speedup
from .errors import DegenerateScenarioError, check_count, check_number

_SCALAR_FIELDS = ("sw_pre", "sw_post", "os_pre", "os_post", "access_init", "access_term")
_PER_UNIT_FIELDS = ("payload_cycles", "dispatch_cycles", "pd_out_cycles", "pd_in_cycles")


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@contextmanager
def _unit_memory(n: int) -> Iterator[None]:
    """Turn a failed allocation of n-entry arrays into a one-line ValueError."""
    try:
        yield
    except MemoryError:
        raise ValueError(f"n_units = {n} needs per-unit arrays beyond the available memory") from None


def linear_ramp(n_units: int, max_value: float) -> np.ndarray:
    """Per-unit values rising linearly from 0 (first unit) to max (last).

    Returns a new float64 array; value i is max_value * i / (n_units - 1),
    rounded once per operation, or max_value * (i / (n_units - 1)) where
    the first product overflows. With one unit the ramp has not risen yet,
    so it is [0.0].
    """
    check_count(n_units, "n_units", 1)
    max_value = check_number(max_value, "max_value", 0)
    if n_units == 1:
        return np.zeros(1)
    with _unit_memory(n_units):
        # In place: one n-entry array, the same two roundings per value.
        ramp = np.arange(n_units, dtype=float)
        with np.errstate(over="ignore"):
            ramp *= max_value
        ramp /= n_units - 1
        if ramp[-1] == math.inf:
            steps = np.arange(n_units, dtype=float)
            ramp = np.where(ramp < math.inf, ramp, max_value * (steps / (n_units - 1)))
        return ramp


@dataclass(frozen=True)
class _Parsed:
    """Per-unit values that parse_scenario has just built and holds nowhere
    else, so TimelineScenario keeps the array without copying it. checked
    says that they are known finite and >= 0, as a linear_ramp is."""

    values: np.ndarray
    checked: bool = False


def _same_units(a: float | np.ndarray, b: float | np.ndarray, n: int) -> bool:
    """Whether two per-unit values, uniform or not, agree on all n units."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b
    return np.array_equal(np.broadcast_to(a, n), np.broadcast_to(b, n))


@dataclass(frozen=True, eq=False)
class TimelineScenario:
    """Inputs of one dispatched run; everything in cycles, everything >= 0.

    Per-unit fields accept either a scalar (applied uniformly) or a
    sequence of exactly n_units values. A scalar is stored as a float; a
    sequence is stored as a read-only float64 copy, so later changes to
    the caller's list or array do not reach the scenario (the arrays that
    parse_scenario builds are kept as they are). Two scenarios
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
        check_count(self.n_units, "n_units", 1)
        for name in _PER_UNIT_FIELDS:
            object.__setattr__(self, name, self._normalize(name, getattr(self, name)))
        for name in _SCALAR_FIELDS:
            object.__setattr__(self, name, check_number(getattr(self, name), name, 0))

    def _normalize(self, name: str, value: float | Sequence[float]) -> float | np.ndarray:
        if isinstance(value, Real):
            return check_number(value, name, 0)
        checked = False
        if type(value) is _Parsed:
            values, checked = value.values, value.checked
        else:
            try:
                values = np.array(value, dtype=float)
            except OverflowError:
                raise ValueError(f"{name} has an integer beyond the float range") from None
        if values.shape != (self.n_units,):
            raise ValueError(
                f"{name} has {values.size} entries for {self.n_units} units"
            )
        if not (checked or np.isfinite(values).all() and (values >= 0).all()):
            raise ValueError(f"{name} entries must all be finite and >= 0")
        return _read_only(values)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        n = self.n_units
        return n == other.n_units and all(
            _same_units(getattr(self, name), getattr(other, name), n)
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

    shares maps category -> fraction of the n * total capacity rectangle, in
    this order: software, os, access, dispatch, propagation, payload, idle.
    They sum to 1 because idle is defined as the remainder.

    payload_cycles_effective is alpha_eff * total: the per-unit payload
    time a perfectly clean run with this alpha would show. It differs
    from the raw payload sum whenever overheads exist.

    max_end_cycles is the latest unit end time. unit_start, unit_busy,
    unit_end and unit_idle are read-only float64 arrays of n_units entries
    each, which unit_arrays builds on first access. Equality leaves all of
    these out.
    """

    n_units: int
    total_cycles: float
    payload_cycles: float
    alpha_eff: AlphaValue
    shares: dict[str, float] = field(compare=False)
    max_end_cycles: float = field(compare=False)
    unit_arrays: Callable[[], tuple[np.ndarray, ...]] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.total_cycles < self.max_end_cycles:
            raise ValueError("total_cycles below the last unit's end time")
        drift = abs(sum(self.shares.values()) - 1.0)
        if drift > 1e-9:
            raise ValueError(f"shares sum to 1 {drift:.2e} off; accounting is broken")

    @property
    def payload_cycles_effective(self) -> float:
        return self.alpha_eff.alpha * self.total_cycles

    @functools.cached_property
    def _units(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(values) for values in self.unit_arrays())

    unit_start = property(lambda self: self._units[0])
    unit_busy = property(lambda self: self._units[1])
    unit_end = property(lambda self: self._units[2])
    unit_idle = property(lambda self: self._units[3])


def _sums_exactly(value: float | np.ndarray, n: int) -> bool:
    """True when value is uniform and every partial sum j * value with
    j <= n is a float exactly.

    With value = m / 2**q, the sum j * value is the integer j * m scaled by a
    power of two, so n * m <= 2**53 makes a pairwise sum, a running cumsum
    and the single product n * value all give the same bits. m = 0 counts
    as 1, which also keeps n exact as a float.
    """
    return isinstance(value, float) and n * max(value.as_integer_ratio()[0], 1) <= 2**53


def _field_sum(value: float | np.ndarray, n: int) -> float:
    """A per-unit field summed over n units, with the bits of the array sum."""
    if _sums_exactly(value, n):
        return 0.0 + n * value  # as numpy's sum, which starts from 0.0, turns -0.0 into 0.0
    if isinstance(value, float):
        value = np.full(n, value)
    return float(value.sum())


# Units are scheduled in blocks of this many (512 KB of float64 per array),
# so the pass over a large run keeps its arrays in cache.
_BLOCK = 2**16


def _unit_slice(value: float | np.ndarray, lo: int, hi: int) -> float | np.ndarray:
    """A per-unit field over units lo..hi-1; a uniform value stays a float."""
    return value if isinstance(value, float) else value[lo:hi]


# Uniform values broadcast inside each elementwise operation below, which
# gives the bits of a full array of them.

def _busy(scenario: TimelineScenario, lo: int, hi: int) -> float | np.ndarray:
    """pd_out + payload + pd_in of units lo..hi-1; a float when all are uniform."""
    busy = (_unit_slice(scenario.pd_out_cycles, lo, hi)
            + _unit_slice(scenario.payload_cycles, lo, hi))
    busy += _unit_slice(scenario.pd_in_cycles, lo, hi)
    return busy


def _starts(prefix: float, dispatch: float | np.ndarray, lo: int, hi: int,
            carry: float, exact: bool) -> tuple[np.ndarray, float]:
    """prefix plus the running sum of the dispatch slots up to each of units
    lo..hi-1, and that running sum at unit hi - 1. carry is the running sum
    at unit lo - 1, as an earlier call returned it. exact says that
    _sums_exactly holds for dispatch over the whole run."""
    if exact:
        # Every running sum (i + 1) * dispatch is a float exactly, so the
        # product has the bits of the cumsum, with no scan.
        start = np.arange(lo + 1, hi + 1, dtype=float)
        start *= dispatch
        start += prefix
        return start, hi * dispatch
    start = np.empty(hi - lo)
    start[:] = _unit_slice(dispatch, lo, hi)
    if lo:
        # cumsum adds in sequence, so seeding it with the sum so far
        # continues the cumsum over all n units bit for bit.
        start[0] += carry
    np.cumsum(start, out=start)
    carry = float(start[-1])
    start += prefix
    return start, carry


def _max_end(scenario: TimelineScenario) -> float:
    """The latest end time of any unit.

    Under a dispatch in the exact-sum domain, start_i = prefix + (i + 1) *
    dispatch, the form _starts takes, never falls. When each busy field is
    also uniform or largest at its last unit, busy_i is largest there too,
    since rounding is monotone, so the last unit, i = n - 1, ends last: its
    end is returned without a pass over the units. Every other schedule is
    walked in blocks.
    """
    n, dispatch = scenario.n_units, scenario.dispatch_cycles
    exact = _sums_exactly(dispatch, n)
    busy_fields = (scenario.pd_out_cycles, scenario.payload_cycles, scenario.pd_in_cycles)
    if exact and all(isinstance(v, float) or v[-1] == v.max() for v in busy_fields):
        end = scenario.prefix_cycles + n * dispatch + _busy(scenario, n - 1, n)
        if isinstance(end, float):
            return end
        # An end of zero ties 0.0 and -0.0 by value, and which of them the
        # walk reports depends on numpy's max; any other value has one form.
        if end[0]:
            return float(end[0])
    elif isinstance(dispatch, float) and isinstance(_busy(scenario, 0, 1), float):
        # No per-unit array bounds n here, and the walk below takes time in
        # proportion to it: a full dispatch array refuses a unit count beyond
        # memory at once.
        dispatch = np.full(n, dispatch)
    # max rounds nothing, so the running max over blocks is the max over all.
    max_end, carry = -math.inf, 0.0
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        end, carry = _starts(scenario.prefix_cycles, dispatch, lo, hi, carry, exact)
        end += _busy(scenario, lo, hi)
        max_end = max(max_end, float(end.max()))
    return max_end


def _unit_arrays(scenario: TimelineScenario, total: float) -> tuple[np.ndarray, ...]:
    """start, busy, end and idle arrays of every unit of a simulated run."""
    n = scenario.n_units
    with _unit_memory(n):
        dispatch = scenario.dispatch_cycles
        start, _ = _starts(scenario.prefix_cycles, dispatch, 0, n, 0.0,
                           _sums_exactly(dispatch, n))
        busy = _busy(scenario, 0, n)
        if isinstance(busy, float):
            busy = np.full(n, busy)
        # Capacity map: unit i's column carries its dispatch slot and busy
        # segments; unit 0's column also carries the serial prefix and suffix.
        idle = np.full(n, total)
        idle -= dispatch
        idle -= busy
        idle[0] -= scenario.prefix_cycles + scenario.suffix_cycles
        return start, busy, start + busy, idle


def simulate(scenario: TimelineScenario) -> TimingBreakdown:
    """Run the dispatch timeline and account for every capacity cycle.

    A uniform field whose n values sum exactly (see _sums_exactly) is
    summed in closed form. When dispatch is such a field and every busy
    field is uniform or largest at its last unit, the schedule is not
    walked: the last unit ends last (see _max_end). With every field
    uniform the cost then does not grow with n_units; a linear ramp or an
    explicit array costs one max and one sum over its entries. Any other
    schedule is walked in cache-sized blocks of units, whose starts are the
    product prefix + (i + 1) * dispatch under such a dispatch and a cumsum
    carried from block to block under any other. That pass holds no
    temporary array of n_units entries, except a full array of a uniform
    dispatch when every field is uniform; summing a uniform field outside
    the exact-sum domain also builds a full array of it. The results carry
    the bits of the full array arithmetic, and 1 - alpha is the exact
    quotient of the run's totals, rounded once.
    """
    n = scenario.n_units
    # Finite inputs may add up beyond the float range, which is refused below.
    with _unit_memory(n), np.errstate(over="ignore"):
        payload_sum, dispatch_sum, pd_out_sum, pd_in_sum = (
            _field_sum(getattr(scenario, name), n) for name in _PER_UNIT_FIELDS)
        max_end = _max_end(scenario)
        total = max_end + scenario.suffix_cycles
    capacity = n * total
    if not (math.isfinite(capacity) and math.isfinite(payload_sum)):
        raise ValueError("scenario cycle totals overflow the float range")
    if total == 0.0:
        raise DegenerateScenarioError("scenario carries no cycles at all")

    if payload_sum == 0.0:
        # No payload at all: the run is pure overhead, alpha is 0.
        alpha = AlphaValue(1.0)
    elif n == 1:
        # Exact (Sterbenz) for payload_sum >= total / 2, where 1 - payload_sum / total cancels.
        alpha = AlphaValue((total - payload_sum) / total)
    else:
        speedup = payload_sum / total
        try:
            if speedup >= n:
                # At or above the unit count: 0 inside the slack, else refused.
                alpha = alpha_eff_from_speedup(speedup, n)
            else:
                # (k - S) / ((k - 1) S) with S = payload_sum / total, formed exactly
                # and rounded once: in floats, k - S cancels when the run is
                # nearly all payload.
                payload = Fraction(payload_sum)
                alpha = AlphaValue(float((n * Fraction(total) - payload) / ((n - 1) * payload)))
        except (ValueError, OverflowError):  # the speedup underflows, or 1 / speedup overflows
            raise DegenerateScenarioError(
                "payload is too small against the total cycles for a finite 1 - alpha"
            ) from None

    cat_cycles = {
        "software": scenario.sw_pre + scenario.sw_post,
        "os": scenario.os_pre + scenario.os_post,
        "access": scenario.access_init + scenario.access_term,
        "dispatch": dispatch_sum,
        "propagation": pd_out_sum + pd_in_sum,
        "payload": payload_sum,
    }
    cat_cycles["idle"] = capacity - sum(cat_cycles.values())
    shares = {k: v / capacity for k, v in cat_cycles.items()}

    return TimingBreakdown(
        n_units=n,
        total_cycles=total,
        payload_cycles=payload_sum,
        alpha_eff=alpha,
        shares=shares,
        max_end_cycles=max_end,
        unit_arrays=functools.partial(_unit_arrays, scenario, total),
    )


# ---- scenario files --------------------------------------------------------
#
# Flat key = value text. Scalar keys take a number. Per-unit keys take a
# number (uniform), "uniform:<v>", "linear:<max>" (ramp from 0), or a
# comma-separated list of exactly n_units numbers. '#' starts a comment.

_SCENARIO_KEYS = set(_SCALAR_FIELDS) | set(_PER_UNIT_FIELDS) | {"n_units"}


def parse_scenario(text: str, source: str = "<string>") -> TimelineScenario:
    """Parse scenario text; errors carry the 1-based offending line."""
    raw: dict[str, tuple[int, str]] = {}
    # A leading byte-order mark is not part of the first key.
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
        raise ValueError(f"{source}:{lineno}: n_units: {value!r} is not an integer") from None

    kwargs: dict[str, object] = {"n_units": n_units}
    for key, (lineno, value) in raw.items():
        try:
            if key in _PER_UNIT_FIELDS:
                values = _parse_per_unit(value, n_units)
                kwargs[key] = values if isinstance(values, float) else _Parsed(
                    values, checked=value.startswith("linear:"))
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
            # A list of lines, not io.StringIO(value): a StringIO copy costs
            # 4 bytes per character. loadtxt refuses a line break inside a line.
            values = np.loadtxt([value], dtype=float, delimiter=",",
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
