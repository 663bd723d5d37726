"""Design floors on the serial fraction from hardware mechanisms."""
from __future__ import annotations

import math

import numpy as np
import pytest

from parlimits import (
    SIGNAL_SPEED,
    BoundReport,
    GroupingEffect,
    bound_context_switch,
    bound_os_looping,
    bound_propagation,
    bound_start_stop,
    combined_limit,
    mpe_grouping_effect,
    simulate,
    TimelineScenario,
)


# ---- individual bounds -------------------------------------------------------

def test_start_stop_simple_ratio():
    r = bound_start_stop(2.0, 2e13)
    assert r.kind == "start-stop"
    assert r.bound == 1e-13
    assert bound_start_stop(0.0, 2e13).bound == 0.0
    assert bound_start_stop(2e13, 2e13).bound == 1.0


def test_propagation_across_a_machine_room():
    # 5 m each way at 2e8 m/s, 1.1 GHz clock, no message handling time
    r = bound_propagation(distance_m=5.0, clock_hz=1.1e9, message_time_s=0.0,
                          total_cycles=1e11)
    cycles = (2 * 5.0 / SIGNAL_SPEED) * 1.1e9
    assert r.bound == pytest.approx(cycles / 1e11, rel=1e-12)
    assert r.bound == pytest.approx(5.5e-10, rel=1e-12)
    # same order as a nanosecond-scale serial fraction
    assert 0.5e-9 <= r.bound * 2 and r.bound <= 2 * 1e-9


def test_propagation_message_time_adds_cycles():
    r = bound_propagation(distance_m=0.0, clock_hz=1e9, message_time_s=1e-6,
                          total_cycles=1e11)
    assert r.bound == pytest.approx(1e3 / 1e11, rel=1e-12)


def test_propagation_short_distance():
    r = bound_propagation(distance_m=100.0, clock_hz=1e9, message_time_s=0.0,
                          total_cycles=2e13)
    assert r.bound == pytest.approx(5e-11, rel=1e-12)


def test_context_switch_ratio():
    r = bound_context_switch(1e4, 2e13)
    assert r.kind == "context-switch"
    assert r.bound == pytest.approx(5e-10, rel=1e-12)


def test_os_looping_scales_with_unit_count():
    r = bound_os_looping(n_units=10_000_000, cycles_per_dispatch=1.0,
                         total_cycles=2e13)
    assert r.kind == "os-looping"
    assert r.bound == pytest.approx(5e-7, rel=1e-12)
    assert bound_os_looping(1, 1.0, 1e13).bound == 1e-13
    assert bound_os_looping(260, 1.0, 2e13).bound == pytest.approx(1.3e-11, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: bound_start_stop(-1.0, 1e10),
    lambda: bound_start_stop(1.0, 0.0),
    lambda: bound_propagation(-1.0, 1e9, 0.0, 1e10),
    lambda: bound_propagation(1.0, 0.0, 0.0, 1e10),
    lambda: bound_propagation(1.0, 1e9, -1e-9, 1e10),
    lambda: bound_context_switch(-1.0, 1e10),
    lambda: bound_os_looping(0, 1.0, 1e10),
    lambda: bound_os_looping(10, -1.0, 1e10),
    lambda: bound_os_looping(10**400, 1.0, 1e10),
    lambda: mpe_grouping_effect(10**400, 10**400, 1, 1.0, 2e13),
    lambda: bound_start_stop(10**400, 1e10),
    lambda: bound_propagation(1.0, 10**400, 0.0, 1e10),
    lambda: bound_context_switch(1.0, 10**400),
])
def test_bound_inputs_are_validated(call):
    with pytest.raises(ValueError) as info:
        call()
    assert "\n" not in str(info.value)


def test_report_is_frozen_and_validated():
    r = bound_start_stop(2.0, 2e13)
    with pytest.raises(Exception):
        r.bound = 5.0
    with pytest.raises(ValueError):
        BoundReport(kind="bogus", bound=0.1, assumptions={})
    with pytest.raises(ValueError):
        BoundReport(kind="start-stop", bound=-0.1, assumptions={})
    with pytest.raises(ValueError):
        BoundReport(kind="start-stop", bound=float("nan"), assumptions={})


def test_describe_rounds_to_one_significant_digit():
    assert bound_start_stop(2.0, 2e13).describe() == "start-stop: (1-alpha) >= 1e-13"
    r = bound_propagation(distance_m=5.0, clock_hz=1.1e9, message_time_s=0.0,
                          total_cycles=1e11)
    assert r.describe() == f"propagation: (1-alpha) >= {r.bound:.0e}"
    assert r.display(True) == repr(r.bound)


def test_assumptions_name_the_inputs_with_total_cycles_last():
    assumptions = [
        bound_start_stop(2.0, 2e13).assumptions,
        bound_propagation(100.0, 1e9, 1e-6, 2e13).assumptions,
        bound_context_switch(1e4, 2e13).assumptions,
        bound_os_looping(1000, 1.0, 2e13).assumptions,
    ]
    assert [list(a.items()) for a in assumptions] == [
        [("cycles", 2.0), ("total_cycles", 2e13)],
        [("distance_m", 100.0), ("clock_hz", 1e9), ("message_time_s", 1e-6),
         ("signal_speed_m_per_s", SIGNAL_SPEED), ("total_cycles", 2e13)],
        [("cycles", 1e4), ("total_cycles", 2e13)],
        [("n_units", 1000.0), ("cycles_per_dispatch", 1.0), ("total_cycles", 2e13)],
    ]


# ---- grouped dispatch ----------------------------------------------------------

def test_grouping_at_flagship_machine_scale():
    g = mpe_grouping_effect(n_cores=10_649_600, cores_per_group=260,
                            mpe_per_group=4, cycles_per_dispatch=1.0,
                            total_cycles=2e13)
    assert g.addressable_units == 40_960
    assert g.reduction_factor == 260.0
    assert g.capacity_loss == pytest.approx(4 / 260, rel=1e-12)
    assert 0.015 <= g.capacity_loss <= 0.02
    assert g.bound.kind == "os-looping"
    assert g.bound.bound == pytest.approx(40_960 / 2e13, rel=1e-12)
    assert g.bound.bound == pytest.approx(2.048e-9, rel=1e-12)


def test_grouping_disabled_when_groups_are_single_cores():
    g = mpe_grouping_effect(n_cores=1000, cores_per_group=1, mpe_per_group=1,
                            cycles_per_dispatch=1.0, total_cycles=1e10)
    assert g.addressable_units == 1000
    assert g.reduction_factor == 1.0
    assert g.capacity_loss == 0.0


def test_grouping_small_numbers():
    g = mpe_grouping_effect(n_cores=1000, cores_per_group=10, mpe_per_group=1,
                            cycles_per_dispatch=1.0, total_cycles=1e10)
    assert g.addressable_units == 100
    assert g.capacity_loss == pytest.approx(0.1, rel=1e-12)
    assert g.bound.bound == pytest.approx(1e-8, rel=1e-12)


def test_grouping_requires_divisible_counts():
    with pytest.raises(ValueError):
        mpe_grouping_effect(n_cores=1001, cores_per_group=10, mpe_per_group=1,
                            cycles_per_dispatch=1.0, total_cycles=1e10)


def test_grouping_rejects_all_management_groups():
    with pytest.raises(ValueError):
        mpe_grouping_effect(n_cores=1000, cores_per_group=10, mpe_per_group=10,
                            cycles_per_dispatch=1.0, total_cycles=1e10)
    with pytest.raises(ValueError):
        mpe_grouping_effect(n_cores=1000, cores_per_group=10, mpe_per_group=11,
                            cycles_per_dispatch=1.0, total_cycles=1e10)


# ---- combining -------------------------------------------------------------------

def test_combined_limit_returns_binding_report():
    a = bound_start_stop(2.0, 2e13)           # 1e-13
    b = bound_context_switch(1e4, 2e13)       # 5e-10
    c = bound_os_looping(10_000_000, 1.0, 2e13)  # 5e-7
    top = combined_limit([a, b, c])
    assert top is c
    assert combined_limit([c, a, b]) is c
    assert combined_limit([b]) is b
    assert combined_limit([top]) is top


def test_combined_limit_rejects_empty():
    with pytest.raises(ValueError):
        combined_limit([])


# ---- floors hold against simulated timelines ---------------------------------------

def serial_equivalent(out):
    """Work cycles a single unit would need: the serial-time yardstick."""
    return out.payload_cycles


def test_dispatch_floor_holds_on_a_concrete_timeline():
    n, w, t = 1000, 1e6, 2.0
    out = simulate(TimelineScenario(n_units=n, payload_cycles=w,
                                    dispatch_cycles=t))
    floor = bound_os_looping(n, t, serial_equivalent(out))
    assert out.alpha_eff.one_minus_alpha >= floor.bound


def test_random_timelines_never_beat_their_floors():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 2000))
        w = float(10 ** rng.uniform(3, 7))
        t = float(rng.uniform(0.5, 20.0))
        pre = float(rng.uniform(0.0, 1e4))
        pd = float(rng.uniform(0.0, 50.0))
        out = simulate(TimelineScenario(
            n_units=n, payload_cycles=w, dispatch_cycles=t,
            pd_out_cycles=pd, pd_in_cycles=pd, sw_pre=pre))
        yardstick = serial_equivalent(out)
        measured = out.alpha_eff.one_minus_alpha
        assert measured >= bound_os_looping(n, t, yardstick).bound
        assert measured >= bound_start_stop(pre, yardstick).bound
        # both propagation legs show up as start-stop style cycles
        assert measured >= bound_start_stop(2 * pd, yardstick).bound


def test_grouping_effect_is_frozen():
    g = mpe_grouping_effect(n_cores=1000, cores_per_group=10, mpe_per_group=1,
                            cycles_per_dispatch=1.0, total_cycles=1e10)
    assert isinstance(g, GroupingEffect)
    with pytest.raises(Exception):
        g.capacity_loss = 0.5
