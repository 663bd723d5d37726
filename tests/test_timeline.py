"""Dispatch-timeline simulation: schedules, shares, effective alpha."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from parlimits import (
    DegenerateScenarioError,
    TimelineScenario,
    linear_ramp,
    load_scenario,
    parse_scenario,
    simulate,
    speedup,
)


def two_unit_scenario() -> TimelineScenario:
    return TimelineScenario(n_units=2, payload_cycles=100.0, dispatch_cycles=10.0)


# ---- hand-checkable schedules ----------------------------------------------

def test_two_unit_schedule_matches_hand_calculation():
    out = simulate(two_unit_scenario())
    assert out.n_units == 2
    assert out.total_cycles == 120.0
    assert out.unit_start.tolist() == [10.0, 20.0]
    assert out.unit_end.tolist() == [110.0, 120.0]
    # serial stagger: every unit waits from its own end to the global end
    assert out.unit_idle.tolist() == [10.0, 10.0]
    assert out.payload_cycles == 200.0


def test_two_unit_alpha_and_shares():
    out = simulate(two_unit_scenario())
    assert out.alpha_eff.alpha == pytest.approx(0.8, abs=1e-12)
    assert out.payload_cycles_effective == pytest.approx(0.8 * 120.0, rel=1e-12)
    assert out.shares["payload"] == pytest.approx(200.0 / 240.0, rel=1e-12)
    assert out.shares["dispatch"] == pytest.approx(20.0 / 240.0, rel=1e-12)
    assert out.shares["idle"] == pytest.approx(20.0 / 240.0, rel=1e-12)
    assert math.fsum(out.shares.values()) == 1.0


def test_two_unit_end_times_include_propagation():
    sc = TimelineScenario(n_units=2, payload_cycles=50.0, dispatch_cycles=10.0,
                          pd_out_cycles=3.0, pd_in_cycles=7.0)
    out = simulate(sc)
    assert out.unit_start.tolist() == [10.0, 20.0]
    assert out.unit_busy.tolist() == [60.0, 60.0]
    assert out.unit_end.tolist() == [70.0, 80.0]
    assert out.total_cycles == 80.0


def test_single_unit_alpha_counts_serial_wrapper_work():
    sc = TimelineScenario(n_units=1, payload_cycles=90.0, sw_pre=10.0)
    out = simulate(sc)
    assert out.total_cycles == 100.0
    # one unit: parallel fraction is payload share of wall time
    assert out.alpha_eff.alpha == pytest.approx(0.9, rel=1e-12)
    assert out.shares["software"] == pytest.approx(0.1, rel=1e-12)


def test_zero_payload_is_fully_serial():
    sc = TimelineScenario(n_units=3, payload_cycles=0.0, dispatch_cycles=5.0)
    out = simulate(sc)
    assert out.alpha_eff.one_minus_alpha == 1.0
    assert out.payload_cycles == 0.0


def test_nothing_to_do_is_rejected():
    with pytest.raises(DegenerateScenarioError):
        simulate(TimelineScenario(n_units=4, payload_cycles=0.0))


@pytest.mark.parametrize("dispatch", [1.0, 1e300])
def test_payload_too_small_for_a_finite_distance_is_degenerate(dispatch):
    sc = TimelineScenario(n_units=2, payload_cycles=5e-324, dispatch_cycles=dispatch)
    with pytest.raises(DegenerateScenarioError, match="too small"):
        simulate(sc)


def test_staircase_with_per_unit_values():
    sc = TimelineScenario(n_units=3,
                          payload_cycles=(100.0, 50.0, 10.0),
                          dispatch_cycles=(5.0, 10.0, 15.0))
    out = simulate(sc)
    assert out.unit_start.tolist() == [5.0, 15.0, 30.0]
    assert out.unit_end.tolist() == [105.0, 65.0, 40.0]
    assert out.total_cycles == 105.0
    assert out.unit_idle.tolist() == [0.0, 105.0 - 10.0 - 50.0, 105.0 - 15.0 - 10.0]


def test_prefix_and_suffix_land_on_unit_zero():
    sc = TimelineScenario(n_units=2, payload_cycles=100.0, dispatch_cycles=10.0,
                          sw_pre=3.0, os_pre=4.0, access_init=5.0,
                          os_post=6.0, sw_post=7.0, access_term=8.0)
    out = simulate(sc)
    assert sc.prefix_cycles == 12.0
    assert sc.suffix_cycles == 21.0
    assert out.unit_start.tolist() == [22.0, 32.0]
    assert out.total_cycles == 132.0 + 21.0
    # unit 0 column also absorbs prefix+suffix, so only the stagger is idle
    assert out.unit_idle.tolist() == [153.0 - 10.0 - 100.0 - 33.0, 153.0 - 10.0 - 100.0]
    assert math.fsum(out.shares.values()) == 1.0


# ---- frozen large-scale values ----------------------------------------------

def test_ten_million_units_with_heavy_payload():
    sc = TimelineScenario(n_units=10_000_000, payload_cycles=2e13, dispatch_cycles=1.0)
    out = simulate(sc)
    assert out.alpha_eff.one_minus_alpha == pytest.approx(5.00000050032901e-14, rel=1e-9)


def test_ten_million_units_with_light_payload():
    sc = TimelineScenario(n_units=10_000_000, payload_cycles=2e6, dispatch_cycles=1.0)
    out = simulate(sc)
    assert out.alpha_eff.one_minus_alpha == pytest.approx(5.00000050000005e-07, rel=1e-9)
    # one dispatch cycle against a 2e6-cycle payload: distance near 5e-7
    assert out.alpha_eff.one_minus_alpha == pytest.approx(5e-7, rel=1e-5)


# ---- helpers -----------------------------------------------------------------

def test_linear_ramp_endpoints_and_spacing():
    assert linear_ramp(5, 8.0).tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert linear_ramp(1, 8.0).tolist() == [0.0]
    with pytest.raises(ValueError):
        linear_ramp(0, 8.0)


def test_scenario_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        TimelineScenario(n_units=2, payload_cycles=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        TimelineScenario(n_units=2, payload_cycles=(1.0, -2.0))
    with pytest.raises(ValueError):
        TimelineScenario(n_units=2, payload_cycles=float("nan"))
    with pytest.raises(ValueError):
        TimelineScenario(n_units=0, payload_cycles=1.0)
    with pytest.raises(ValueError, match="^n_units must be an integer >= 1, got True$"):
        TimelineScenario(n_units=True, payload_cycles=1.0)
    with pytest.raises(ValueError):
        TimelineScenario(n_units=2, payload_cycles=1.0, sw_pre=-1.0)


def test_linear_ramp_to_the_largest_floats_stays_finite():
    # max_value * i overflows before the division; those entries come from
    # max_value * (i / (n - 1)) instead.
    assert linear_ramp(3, 1e308).tolist() == [0.0, 5e307, 1e308]
    scenario = parse_scenario("n_units = 3\npayload_cycles = linear:1e308\n")
    assert scenario.payload_cycles.tolist() == [0.0, 5e307, 1e308]


def test_linear_ramp_matches_the_scalar_loop_bit_for_bit():
    for n, top in ((2, 1.0), (7, 1e-3), (1001, 2e6 / 3), (4096, 0.1)):
        reference = [top * i / (n - 1) for i in range(n)]
        assert linear_ramp(n, top).tolist() == reference


# ---- per-unit representation ------------------------------------------------

def _fields(out) -> tuple:
    arrays = (out.unit_start, out.unit_busy, out.unit_end, out.unit_idle)
    return (out.n_units, out.total_cycles, out.payload_cycles,
            out.payload_cycles_effective, out.alpha_eff.one_minus_alpha,
            out.shares, tuple(a.tobytes() for a in arrays))


def test_scalar_and_explicit_forms_simulate_bit_identically():
    n = 1000
    scalars = dict(payload_cycles=2e6 / 3, dispatch_cycles=0.1,
                   pd_out_cycles=7.3, pd_in_cycles=1.9)
    by_scalar = TimelineScenario(n_units=n, sw_pre=11.0, access_term=0.7, **scalars)
    by_array = TimelineScenario(n_units=n, sw_pre=11.0, access_term=0.7,
                                **{k: np.full(n, v) for k, v in scalars.items()})
    by_list = TimelineScenario(n_units=n, sw_pre=11.0, access_term=0.7,
                               **{k: [v] * n for k, v in scalars.items()})
    expected = _fields(simulate(by_scalar))
    assert _fields(simulate(by_array)) == expected
    assert _fields(simulate(by_list)) == expected


def test_scenario_keeps_its_own_copy_of_per_unit_values():
    values = [1.0, 2.0, 3.0]
    array = np.array([4.0, 5.0, 6.0])
    sc = TimelineScenario(n_units=3, payload_cycles=values, dispatch_cycles=array)
    values[0] = 99.0
    array[0] = 99.0
    assert sc.payload_cycles.tolist() == [1.0, 2.0, 3.0]
    assert sc.dispatch_cycles.tolist() == [4.0, 5.0, 6.0]


def test_stored_per_unit_arrays_are_read_only():
    sc = TimelineScenario(n_units=3, payload_cycles=[1.0, 2.0, 3.0], dispatch_cycles=1.0)
    out = simulate(sc)
    for values in (sc.payload_cycles, out.unit_start, out.unit_busy,
                   out.unit_end, out.unit_idle):
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_scenario_equality_compares_every_unit():
    def scenario(payload):
        return TimelineScenario(n_units=3, payload_cycles=payload, dispatch_cycles=2.0)

    assert scenario([1.0, 2.0, 3.0]) == scenario(np.array([1.0, 2.0, 3.0]))
    assert scenario([1.0, 2.0, 3.0]) != scenario([1.0, 2.0, 3.5])
    assert scenario([4.0, 4.0, 4.0]) == scenario(4.0)
    assert scenario(4.0) != scenario(5.0)
    assert scenario(4.0) != TimelineScenario(n_units=4, payload_cycles=4.0, dispatch_cycles=2.0)


def test_uniform_scenarios_of_1e12_units_compare_without_arrays():
    def scenario(payload):
        return TimelineScenario(n_units=10**12, payload_cycles=payload, dispatch_cycles=0.5)

    assert scenario(4.0) == scenario(4.0)
    assert scenario(4.0) != scenario(5.0)


def test_unit_arrays_are_built_once_on_first_access():
    calls = []
    sc = TimelineScenario(n_units=3, payload_cycles=100.0, dispatch_cycles=10.0)
    plain = simulate(sc)

    def counting_builder():
        calls.append(1)
        return plain.unit_arrays()

    out = dataclasses.replace(plain, unit_arrays=counting_builder)
    assert calls == []
    assert out.unit_start is out.unit_start
    assert (out.unit_busy.tolist(), out.unit_end.tolist()) == ([100.0] * 3, [110.0, 120.0, 130.0])
    assert calls == [1]
    assert out.max_end_cycles == out.unit_end.max() == 130.0


# ---- closed form for uniform fields ---------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def test_virtual_machine_of_1e12_units_matches_exact_arithmetic():
    sc = load_scenario(GOLDEN / "uniform_1e12.scn")
    out = simulate(sc)
    n = Fraction(sc.n_units)
    busy = Fraction(sc.pd_out_cycles) + Fraction(sc.payload_cycles) + Fraction(sc.pd_in_cycles)
    total = (Fraction(sc.prefix_cycles) + n * Fraction(sc.dispatch_cycles) + busy
             + Fraction(sc.suffix_cycles))
    assert out.n_units == 10**12
    assert Fraction(out.total_cycles) == total
    assert Fraction(out.payload_cycles) == n * Fraction(sc.payload_cycles)
    assert out.max_end_cycles == out.total_cycles - sc.suffix_cycles


def test_uniform_exact_scenario_holds_no_per_unit_array():
    sc = TimelineScenario(n_units=10_000_000, payload_cycles=2e6, dispatch_cycles=1.0,
                          pd_out_cycles=3.0, pd_in_cycles=0.5)
    tracemalloc.start()
    try:
        simulate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_arrays_beyond_memory_are_a_one_line_value_error():
    # 2**56 entries of 8 bytes exceed any 57-bit address space, so the
    # allocation fails at once without touching memory.
    n = 2**56
    message = f"^n_units = {n} needs per-unit arrays beyond the available memory$"
    with pytest.raises(ValueError, match=message):
        simulate(TimelineScenario(n_units=n, payload_cycles=1.0, dispatch_cycles=0.1))
    with pytest.raises(ValueError, match=message):
        linear_ramp(n, 1.0)


# ---- invariances --------------------------------------------------------------

def test_cycle_rescaling_leaves_alpha_unchanged():
    base = TimelineScenario(n_units=4, payload_cycles=(9.0, 7.0, 5.0, 3.0),
                            dispatch_cycles=2.0, sw_pre=1.0)
    a0 = simulate(base).alpha_eff.one_minus_alpha
    for factor, tol in ((8.0, 0.0), (3.0, 1e-12)):
        scaled = TimelineScenario(
            n_units=4,
            payload_cycles=tuple(v * factor for v in (9.0, 7.0, 5.0, 3.0)),
            dispatch_cycles=2.0 * factor, sw_pre=1.0 * factor)
        a1 = simulate(scaled).alpha_eff.one_minus_alpha
        assert abs(a1 - a0) <= tol


def test_random_scenarios_keep_accounting_invariants():
    rng = np.random.default_rng(1789)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        sc = TimelineScenario(
            n_units=n,
            payload_cycles=tuple(rng.uniform(0.0, 100.0, n).tolist()),
            dispatch_cycles=tuple(rng.uniform(0.0, 5.0, n).tolist()),
            pd_out_cycles=float(rng.uniform(0, 2)),
            pd_in_cycles=float(rng.uniform(0, 2)),
            sw_pre=float(rng.uniform(0, 3)),
            os_post=float(rng.uniform(0, 3)),
        )
        try:
            out = simulate(sc)
        except DegenerateScenarioError:
            continue
        assert math.fsum(out.shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in out.unit_idle)
        assert out.total_cycles >= max(out.unit_end)
        assert out.alpha_eff.one_minus_alpha >= 0.0
        if n >= 2 and out.payload_cycles > 0:
            # the extracted alpha must reproduce the observed speedup
            s_observed = out.payload_cycles / out.total_cycles
            s_model = speedup(out.alpha_eff, n)
            assert abs(s_model - s_observed) < 1e-9 * max(1.0, s_observed)


# ---- scenario files ------------------------------------------------------------

GOOD_TEXT = """
# staged dispatch demo
n_units = 3
payload_cycles = uniform:100
dispatch_cycles = linear:15
pd_out_cycles = 1, 2, 3
sw_pre = 5
"""


def test_parse_scenario_full_grammar():
    sc = parse_scenario(GOOD_TEXT, source="demo")
    assert sc.n_units == 3
    assert sc.payload_cycles == 100.0
    assert sc.dispatch_cycles.tolist() == [0.0, 7.5, 15.0]
    assert sc.pd_out_cycles.tolist() == [1.0, 2.0, 3.0]
    assert sc.sw_pre == 5.0
    assert sc.pd_in_cycles == 0.0


@pytest.mark.parametrize("text,fragment", [
    ("payload_cycles = 5", "n_units"),
    ("n_units = 2\nbogus_key = 1", "demo:2"),
    ("n_units = 2\npayload_cycles = 1\npayload_cycles = 2", "demo:3"),
    ("n_units = 2\npayload_cycles =", "demo:2"),
    ("n_units = 2\npayload_cycles", "demo:2"),
    ("n_units = two", "demo:1"),
    ("n_units = 2\npayload_cycles = 1, 2, 3", "3 entries"),
    ("n_units = 2\npayload_cycles = uniform:abc", "demo:2"),
    ("n_units = 2\nsw_pre = 1, 2", "could not convert"),
])
def test_parse_scenario_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ValueError) as err:
        parse_scenario(text, source="demo")
    assert fragment in str(err.value)


def test_load_scenario_round_trip(tmp_path):
    p = tmp_path / "case.toml"
    p.write_text(GOOD_TEXT, encoding="utf-8")
    sc = load_scenario(p)
    assert sc == parse_scenario(GOOD_TEXT, source=str(p))
    assert simulate(sc).total_cycles > 0
