"""Back-of-envelope floors on (1 - alpha) from machine design numbers.

Each estimator converts one unavoidable serial cost into the fraction of
a reference run it would occupy. The reference run length total_cycles
is the caller's choice: a measured wall time in cycles gives "share of
that run", the summed payload gives a floor comparable with measured
alpha values. Four costs are covered:

    start-stop       fixed cycles to enter/leave the parallel section
    propagation      2 * distance / signal speed, plus message handling,
                     converted to cycles at the machine clock
    context-switch   cycles for one OS context switch
    os-looping       a dispatch loop touching every unit once

Signals travel at most about 2e8 m/s in cable or fiber, which is the
constant used for the propagation bound.

Grouped dispatch (a management unit drives a block of cores, so the
loop only touches block leaders) divides the os-looping bound by the
block size at the price of the management cores' capacity.

Bounds are floors under composition: the combined limit of several
mechanisms is at least each one alone, so combined_limit simply keeps
the largest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import check_count, check_number

# Fastest practical signal propagation in interconnect, m/s.
SIGNAL_SPEED = 2e8

_KINDS = ("start-stop", "propagation", "context-switch", "os-looping")


@dataclass(frozen=True)
class BoundReport:
    """One estimated floor on (1 - alpha) plus the inputs that made it.

    bound may be 0 when the mechanism is absent (zero cycles, zero
    distance); it is still a valid, if vacuous, floor.
    """

    kind: str
    bound: float
    assumptions: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        check_number(self.bound, "bound", 0)

    def display(self, full_precision: bool) -> str:
        """The bound alone: one significant digit, or repr in full precision."""
        return repr(self.bound) if full_precision else f"{self.bound:.0e}"

    def describe(self) -> str:
        """One line, with the bound at one significant digit (it is an estimate)."""
        return f"{self.kind}: (1-alpha) >= {self.display(False)}"


def _floor(kind: str, cycles: float, total_cycles: float, /, **assumptions: float) -> BoundReport:
    """The floor cycles / total_cycles; assumptions name the checked inputs
    that gave cycles, and total_cycles is recorded after them. Checked
    inputs whose cycles or quotient overflow raise one line naming both."""
    total_cycles = check_number(total_cycles, "total_cycles", 0, strict=True)
    bound = cycles / total_cycles
    if not math.isfinite(bound):
        raise ValueError(f"{kind} floor overflows the float range: "
                         f"cycles {cycles!r} / total_cycles {total_cycles!r}")
    return BoundReport(kind=kind, bound=bound,
                       assumptions={**assumptions, "total_cycles": total_cycles})


def _fixed_cycles(kind: str, cycles: float, total_cycles: float) -> BoundReport:
    cycles = check_number(cycles, "cycles", 0)
    return _floor(kind, cycles, total_cycles, cycles=cycles)


def bound_start_stop(cycles: float, total_cycles: float) -> BoundReport:
    """Fixed entry/exit cost of the parallel section."""
    return _fixed_cycles("start-stop", cycles, total_cycles)


def bound_propagation(distance_m: float, clock_hz: float, message_time_s: float,
                      total_cycles: float) -> BoundReport:
    """Round-trip signal travel plus per-message handling time.

    cycles = (2 * distance / SIGNAL_SPEED + message_time) * clock
    """
    distance_m = check_number(distance_m, "distance_m", 0)
    message_time_s = check_number(message_time_s, "message_time_s", 0)
    clock_hz = check_number(clock_hz, "clock_hz", 0, strict=True)
    cycles = (2.0 * distance_m / SIGNAL_SPEED + message_time_s) * clock_hz
    return _floor("propagation", cycles, total_cycles, distance_m=distance_m,
                  clock_hz=clock_hz, message_time_s=message_time_s,
                  signal_speed_m_per_s=SIGNAL_SPEED)


def bound_context_switch(cycles: float, total_cycles: float) -> BoundReport:
    """One OS context switch on the critical path."""
    return _fixed_cycles("context-switch", cycles, total_cycles)


def bound_os_looping(n_units: float, cycles_per_dispatch: float,
                     total_cycles: float) -> BoundReport:
    """A serial dispatch loop that touches every unit once."""
    n_units = check_number(n_units, "n_units", 1)
    cycles_per_dispatch = check_number(cycles_per_dispatch, "cycles_per_dispatch", 0)
    return _floor("os-looping", n_units * cycles_per_dispatch, total_cycles,
                  n_units=n_units, cycles_per_dispatch=cycles_per_dispatch)


@dataclass(frozen=True)
class GroupingEffect:
    """What grouped dispatch does to the os-looping floor.

    addressable_units is how many dispatch targets remain; the loop
    bound shrinks by reduction_factor; capacity_loss is the fraction of
    cores spent on management instead of payload.
    """

    addressable_units: int
    reduction_factor: float
    capacity_loss: float
    bound: BoundReport


def mpe_grouping_effect(n_cores: int, cores_per_group: int, mpe_per_group: int,
                        cycles_per_dispatch: float, total_cycles: float) -> GroupingEffect:
    """Dispatch to group leaders instead of individual cores.

    n_cores must split evenly into groups. cores_per_group == 1 means
    no grouping: nothing is reduced and nothing is sacrificed.
    """
    check_count(n_cores, "n_cores", 1)
    check_count(cores_per_group, "cores_per_group", 1)
    check_count(mpe_per_group, "mpe_per_group", 1)
    if mpe_per_group >= cores_per_group and cores_per_group > 1:
        raise ValueError("a group cannot be all management cores")
    if n_cores % cores_per_group != 0:
        raise ValueError(
            f"n_cores {n_cores} does not divide into groups of {cores_per_group}"
        )
    addressable = n_cores // cores_per_group
    loss = 0.0 if cores_per_group == 1 else mpe_per_group / cores_per_group
    report = bound_os_looping(addressable, cycles_per_dispatch, total_cycles)
    return GroupingEffect(
        addressable_units=addressable,
        reduction_factor=check_number(cores_per_group, "cores_per_group", 1),
        capacity_loss=loss,
        bound=report,
    )


def combined_limit(reports: Sequence[BoundReport]) -> BoundReport:
    """The governing floor: the largest of the given bounds.

    Order never matters and combining a result with itself changes
    nothing. An empty list has no governing bound and is an error.
    """
    if not reports:
        raise ValueError("combined_limit needs at least one bound")
    return max(reports, key=lambda r: r.bound)
