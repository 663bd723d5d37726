"""Core scaling-law math: forward maps, inverse maps, ceilings."""
from __future__ import annotations

import math

import numpy as np
import pytest

from parlimits import (
    AlphaValue,
    AmdahlPoint,
    AlreadyAchievableError,
    InconsistentMeasurementError,
    UnboundedLimitError,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    amplification,
    efficiency,
    p_max,
    required_one_minus_alpha,
    speedup,
    virtual_scale,
)


# ---- AlphaValue ------------------------------------------------------------

def test_alpha_value_keeps_tiny_distances_exactly():
    a = AlphaValue(3.273e-8)
    assert a.one_minus_alpha == 3.273e-8
    assert a.alpha == 1.0 - 3.273e-8


def test_alpha_value_pair_is_consistent_to_one_ulp():
    for oma in (0.0, 1e-300, 3.273e-8, 0.25, 0.5, 1.0):
        a = AlphaValue(oma)
        assert abs((a.alpha + a.one_minus_alpha) - 1.0) <= math.ulp(1.0)


def test_alpha_value_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        AlphaValue(-1e-12)
    with pytest.raises(ValueError):
        AlphaValue(float("nan"))
    with pytest.raises(ValueError):
        AlphaValue(float("inf"))


def test_alpha_value_from_alpha():
    assert AlphaValue.from_alpha(0.5).one_minus_alpha == 0.5
    assert AlphaValue.from_alpha(1.0).one_minus_alpha == 0.0
    with pytest.raises(ValueError):
        AlphaValue.from_alpha(1.0 + 1e-9)
    with pytest.raises(ValueError):
        AlphaValue.from_alpha(float("nan"))


def test_sub_serial_flag_marks_alpha_below_zero():
    assert not AlphaValue(1.0).sub_serial
    bad = AlphaValue(1.5)
    assert bad.sub_serial
    assert bad.alpha < 0


# ---- forward maps ----------------------------------------------------------

def test_speedup_serial_workload_never_speeds_up():
    assert speedup(0.0, 1_000_000) == 1.0


def test_speedup_fully_parallel_workload_scales_linearly():
    assert speedup(1.0, 1_000_000) == 1_000_000.0


def test_speedup_half_parallel_on_two_units():
    assert abs(speedup(0.5, 2) - 4.0 / 3.0) < 1e-15


def test_speedup_accepts_alpha_value():
    assert speedup(AlphaValue(0.5), 2) == speedup(0.5, 2)


def test_speedup_rejects_fractional_unit_counts():
    with pytest.raises(ValueError):
        speedup(0.5, 0.5)


def test_unit_count_beyond_float_range_is_value_error():
    for law in (speedup, efficiency):
        with pytest.raises(ValueError, match="beyond the float range"):
            law(0.5, 10**400)


def test_speedup_generalized_with_diluted_unit_count():
    # serial distance exactly 1e-6, effective count 1e7
    s = speedup(AlphaValue(1e-6), 1e7)
    assert s == pytest.approx(909090.9917355448, rel=1e-12)
    assert abs(s - 9.0909e5) / 9.0909e5 < 1e-4


def test_speedup_generalized_serial_is_one_for_any_dilution():
    for f in (1.0, 17.3, 1e9):
        assert speedup(0.0, f) == 1.0


def test_efficiency_perfect_parallelism_is_one():
    assert efficiency(1.0, 123456) == 1.0


def test_efficiency_half_parallel_on_two_units():
    assert abs(efficiency(0.5, 2) - 2.0 / 3.0) < 1e-15


def test_efficiency_at_measured_top_machine_scale():
    e = efficiency(AlphaValue(3.273e-8), 10_649_600)
    assert e == pytest.approx(0.7415309516778846, rel=1e-12)
    assert e == pytest.approx(0.742, rel=1e-3)


# ---- inverse maps ----------------------------------------------------------

def test_alpha_from_speedup_requires_two_units():
    with pytest.raises(ValueError):
        alpha_eff_from_speedup(1.0, 1)
    with pytest.raises(ValueError):
        alpha_eff_from_speedup(1.0, 1.9)


def test_alpha_from_speedup_rejects_nonpositive_speedup():
    with pytest.raises(ValueError):
        alpha_eff_from_speedup(0.0, 2)
    with pytest.raises(ValueError):
        alpha_eff_from_speedup(-1.0, 2)


def test_alpha_from_speedup_above_unit_count_is_inconsistent():
    with pytest.raises(InconsistentMeasurementError):
        alpha_eff_from_speedup(2.1, 2)


def test_alpha_from_speedup_hair_above_unit_count_snaps_to_one():
    a = alpha_eff_from_speedup(2.0 * (1.0 + 0.5e-9), 2)
    assert a.one_minus_alpha == 0.0


def test_alpha_from_speedup_no_speedup_means_serial():
    assert alpha_eff_from_speedup(1.0, 2).alpha == 0.0


def test_alpha_from_speedup_full_speedup_means_parallel():
    assert alpha_eff_from_speedup(2.0, 2).alpha == 1.0
    assert alpha_eff_from_speedup(1e6, 1e6).one_minus_alpha == 0.0


def test_alpha_from_speedup_half_parallel():
    a = alpha_eff_from_speedup(4.0 / 3.0, 2)
    assert a.alpha == pytest.approx(0.5, abs=1e-15)


def test_alpha_from_efficiency_flagship_machine():
    a = alpha_eff_from_efficiency(0.742, 10_649_600)
    assert a.one_minus_alpha == pytest.approx(3.2649951878817804e-08, rel=1e-12)
    assert a.one_minus_alpha == pytest.approx(3.27e-8, rel=0.01)


def test_alpha_from_efficiency_high_efficiency_machine():
    a = alpha_eff_from_efficiency(0.932, 705_024)
    assert a.one_minus_alpha == pytest.approx(1.0348793357175281e-07, rel=1e-12)
    assert a.one_minus_alpha == pytest.approx(1.04e-7, rel=0.01)


def test_alpha_from_efficiency_perfect_is_fully_parallel():
    assert alpha_eff_from_efficiency(1.0, 1000).alpha == 1.0


def test_alpha_from_efficiency_clamps_rounding_noise_above_one():
    assert alpha_eff_from_efficiency(1.0 + 0.5e-9, 1000).alpha == 1.0
    with pytest.raises(InconsistentMeasurementError):
        alpha_eff_from_efficiency(1.0 + 1e-8, 1000)


def test_alpha_from_efficiency_below_reciprocal_k_is_sub_serial():
    k = 100
    a = alpha_eff_from_efficiency(0.5 / k, k)
    assert a.sub_serial
    assert a.alpha < 0
    # not clamped: the value is exactly what the inverse map produces
    assert a.one_minus_alpha == (1.0 - 0.5 / k) / ((0.5 / k) * (k - 1))


def test_alpha_from_efficiency_rejects_nonpositive():
    with pytest.raises(ValueError):
        alpha_eff_from_efficiency(0.0, 2)


# ---- ceilings --------------------------------------------------------------

def test_p_max_example_machine_lands_mid_third_of_an_exaflops():
    value = p_max(11.8e9, AlphaValue(3.3e-8)) / 1e18
    assert value == pytest.approx(0.35757575757575766, rel=1e-12)
    assert 0.35 <= value <= 0.40


def test_p_max_serial_workload_is_single_unit_performance():
    assert p_max(1e9, AlphaValue(1.0)) == 1e9


def test_p_max_round_number_case():
    assert p_max(50e9, AlphaValue(5e-8)) == pytest.approx(1e18, rel=1e-12)


def test_p_max_unbounded_at_alpha_one():
    with pytest.raises(UnboundedLimitError):
        p_max(1e9, AlphaValue(0.0))


def test_required_one_minus_alpha_round_number_case():
    assert required_one_minus_alpha(50e9, 1e18).one_minus_alpha == 5e-8


def test_required_one_minus_alpha_target_equal_to_unit():
    assert required_one_minus_alpha(7e9, 7e9).one_minus_alpha == 1.0


def test_required_one_minus_alpha_back_from_ceiling():
    got = required_one_minus_alpha(11.8e9, 0.357e18).one_minus_alpha
    assert got == pytest.approx(3.3e-8, rel=0.01)


def test_required_one_minus_alpha_trivial_target_is_distinct_signal():
    with pytest.raises(AlreadyAchievableError):
        required_one_minus_alpha(50e9, 49e9)


def _rmax(k, per_processor_perf, alpha):
    """r_max = k * P * E(alpha, k) of a k-unit machine: the end of a sweep to k."""
    return virtual_scale(per_processor_perf, alpha, k_max=k).samples[-1][1]


def test_rmax_single_unit_is_unit_performance():
    assert virtual_scale(11.78e9, AlphaValue(3.273e-8), k_max=1).samples == ((11.78e9, 11.78e9),)


def test_rmax_at_real_machine_scale():
    r = _rmax(10_649_600, 11.78e9, AlphaValue(3.273e-8))
    assert r / 1e18 == pytest.approx(0.09302675451080807, rel=1e-12)
    assert r / 1e15 == pytest.approx(93.0, rel=0.01)


def test_rmax_plateaus_near_ceiling_for_huge_unit_counts():
    alpha = AlphaValue(3.273e-8)
    r = _rmax(1e12, 11.78e9, alpha)
    ceiling = p_max(11.78e9, alpha)
    assert r == pytest.approx(0.35990345544015695e18, rel=1e-12)
    assert r < ceiling
    assert r > 0.99 * ceiling


def test_amplification_is_reciprocal_distance():
    assert amplification(AlphaValue(1e-7)) == 1e7
    assert amplification(AlphaValue(0.0)) == math.inf


# ---- AmdahlPoint -----------------------------------------------------------

def test_point_from_efficiency_is_coherent():
    p = AmdahlPoint(705_024, 0.932)
    assert p.speedup == pytest.approx(0.932 * 705_024, rel=1e-12)
    assert p.efficiency == 0.932
    assert p.amplification == pytest.approx(9662962.294117654, rel=1e-9)


def test_point_at_perfect_efficiency_flags_infinite_amplification():
    p = AmdahlPoint(1000, 1.0)
    assert p.alpha_eff.alpha == 1.0
    assert p.amplification == math.inf


@pytest.mark.parametrize("k, e", [(1000, 0.99999), (2, 1.0 - 2**-52), (10**12, 1.0 - 1e-15)])
def test_point_near_efficiency_one_is_coherent(k, e):
    # (k - S) / ((k - 1) S) cancels here; the forward map does not.
    p = AmdahlPoint(k, e)
    assert p.efficiency == e
    assert 1.0 / (1.0 + (k - 1) * p.alpha_eff.one_minus_alpha) == pytest.approx(e, rel=1e-15)


def test_point_amplification_overflows_for_subnormal_distance():
    p = AmdahlPoint(10**300, 1.0 - 2**-52)
    assert 0.0 < p.alpha_eff.one_minus_alpha < 1e-300
    assert p.amplification == math.inf


def test_point_rejects_single_unit():
    with pytest.raises(ValueError):
        AmdahlPoint(1, 0.9)


# ---- properties ------------------------------------------------------------

def test_round_trip_through_speedup_and_efficiency():
    rng = np.random.default_rng(20170620)
    ks = 10 ** rng.uniform(np.log10(2), 8, 10_000)
    omas = 10 ** rng.uniform(-12, 0, 10_000)
    for k, oma in zip(ks, omas):
        k = float(np.floor(k))
        s = speedup(AlphaValue(oma), k)
        back = alpha_eff_from_speedup(s, k).one_minus_alpha
        assert abs(back - oma) < 1e-9
        e = efficiency(AlphaValue(oma), k)
        back_e = alpha_eff_from_efficiency(e, k).one_minus_alpha
        assert abs(back_e - oma) < 1e-9


def test_efficiency_equals_speedup_over_k():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha = AlphaValue(10 ** rng.uniform(-10, 0))
        k = float(np.floor(10 ** rng.uniform(0.4, 7)))
        assert efficiency(alpha, k) == pytest.approx(speedup(alpha, k) / k, rel=1e-12)


def test_efficiency_strictly_decreases_with_unit_count_below_alpha_one():
    rng = np.random.default_rng(42)
    for _ in range(50):
        alpha = AlphaValue(10 ** rng.uniform(-9, -0.01))
        values = [efficiency(alpha, k) for k in (2, 10, 1e3, 1e6, 1e9)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_rmax_within_one_percent_of_ceiling_once_k_oma_reaches_100():
    rng = np.random.default_rng(99)
    for _ in range(100):
        oma = 10 ** rng.uniform(-10, -2)
        for x in (100.0, 316.0, 1e4):
            k = x / oma
            r = _rmax(k, 1e9, AlphaValue(oma))
            ceiling = p_max(1e9, AlphaValue(oma))
            assert r >= 0.99 * ceiling


def test_sub_serial_flag_iff_efficiency_below_reciprocal_k():
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(2, 10_000))
        e = float(rng.uniform(1e-6, 1.0))
        a = alpha_eff_from_efficiency(e, k)
        assert a.sub_serial == (e < 1.0 / k) == (a.alpha < 0)
