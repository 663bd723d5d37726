"""Scaling curves, trend projection, feasibility verdicts."""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from parlimits import forecast
from parlimits import (
    AlphaValue,
    AlreadyAchievableError,
    CONSTANT_ALPHA_CAVEAT,
    FeasibilityVerdict,
    ForecastCurve,
    TrendPoint,
    alpha_eff_from_efficiency,
    bundled_dataset,
    feasibility,
    fit,
    p_max,
    project_trend,
    reference_table,
    virtual_scale,
)


# ---- curve construction ----------------------------------------------------

def test_curve_starts_at_single_unit_by_default():
    c = virtual_scale(11.78e9, AlphaValue(3.273e-8), k_max=1e9)
    assert c.samples[0] == (11.78e9, 11.78e9)
    assert c.caveat == CONSTANT_ALPHA_CAVEAT
    assert c.r_peak[-1] == pytest.approx(11.78e9 * 1e9, rel=1e-12)


def test_curve_grid_endpoints_are_exact():
    c = virtual_scale(1e9, AlphaValue(1e-6), k_max=1e6)
    assert c.samples[0][0] == 1e9
    assert c.samples[-1][0] == 1e15
    # about 64 samples per decade of scale
    assert 6 * 64 <= len(c.samples) <= 6 * 64 + 2


def test_steps_are_the_correctly_rounded_powers_of_ten():
    with localcontext() as ctx:
        ctx.prec = 120
        exact = [Decimal(10) ** (Decimal(i) / 64) for i in range(64)]
    assert forecast.STEPS == tuple(float(x) for x in exact)


def test_curve_grid_is_decade_aligned():
    c = virtual_scale(1.0, AlphaValue(1e-8), k_max=1e12)
    assert c.r_peak == tuple(forecast.STEPS[j % 64] * float(f"1e{j // 64}")
                             for j in range(12 * 64)) + (1e12,)


def test_a_log10_rounded_up_cannot_carry_the_sweep_past_k_max(monkeypatch):
    # Only libm's log10 places the sweep's end; IEEE 754 does not ask it to
    # round correctly. One rounded up past a grid point asks for a sample more.
    log10 = math.log10
    monkeypatch.setattr(math, "log10", lambda x: math.nextafter(log10(x), math.inf))
    k_max = math.nextafter(forecast.STEPS[32] * 1e3, 0.0)
    c = virtual_scale(1.0, AlphaValue(1e-8), k_max=k_max)
    assert c.r_peak[-3:] == (forecast.STEPS[31] * 1e3, k_max, k_max)
    assert ForecastCurve(c.source, c.samples, c.asymptote_flops) == c


def test_curve_is_monotone_and_dominated_by_rpeak():
    c = virtual_scale(11.78e9, AlphaValue(3.273e-8), k_max=1e9)
    rp = c.r_peak
    rm = c.r_max
    assert all(a <= b for a, b in zip(rp, rp[1:]))
    assert all(a <= b for a, b in zip(rm, rm[1:]))
    assert all(m <= p * (1 + 1e-12) for p, m in c.samples)
    assert all(m <= c.asymptote_flops * (1 + 1e-12) for m in rm)


def test_curve_plateaus_at_amdahl_ceiling():
    alpha = AlphaValue(3.273e-8)
    c = virtual_scale(11.78e9, alpha, k_max=1e12)
    ceiling = p_max(11.78e9, alpha)
    assert c.asymptote_flops == pytest.approx(ceiling, rel=1e-12)
    assert c.r_max[-1] > 0.99 * ceiling


def test_perfectly_parallel_curve_tracks_rpeak_with_infinite_asymptote():
    c = virtual_scale(1e9, AlphaValue(0.0), k_max=1e6)
    assert c.asymptote_flops == math.inf
    assert all(m == p for p, m in c.samples)


def test_curve_closure_against_bundled_measurement():
    rs = bundled_dataset()
    (tai,) = [r for r in rs.benchmark("HPL") if r.name == "Sunway TaihuLight"]
    per_proc = tai.rpeak_gflops * 1e9 / tai.cores
    alpha = alpha_eff_from_efficiency(tai.efficiency, tai.cores)
    c = virtual_scale(per_proc, alpha, k_max=float(tai.cores))
    rpeak_end, rmax_end = c.samples[-1]
    assert rpeak_end == pytest.approx(tai.rpeak_gflops * 1e9, rel=1e-9)
    assert rmax_end == pytest.approx(tai.rmax_gflops * 1e9, rel=0.01)


def test_curve_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        virtual_scale(1e9, AlphaValue(1e-6), k_max=0.5)
    with pytest.raises(ValueError):
        virtual_scale(1e9, AlphaValue(1e-6), k_max=math.inf)
    with pytest.raises(ValueError):
        virtual_scale(-1e9, AlphaValue(1e-6), k_max=1e6)
    with pytest.raises(ValueError):
        ForecastCurve(source="s", samples=((2.0, 1.0), (1.0, 0.5)),
                      asymptote_flops=10.0)
    with pytest.raises(ValueError):
        ForecastCurve(source="s", samples=((1.0, 2.0),), asymptote_flops=10.0)
    with pytest.raises(ValueError):
        ForecastCurve(source="s", samples=(), asymptote_flops=10.0)


# ---- curves against a peak-performance axis -----------------------------------

def test_rmax_vs_rpeak_at_published_alpha_levels():
    # flagship-scale per-unit speed, measured distance from the easy benchmark
    k_max = 0.125452288e18 / 11.78e9
    c1 = virtual_scale(11.78e9, AlphaValue(2.44e-5), k_max=k_max)
    assert c1.samples[-1][0] == pytest.approx(0.125452288e18, rel=1e-12)
    assert c1.samples[-1][1] == pytest.approx(480936110063924.3, rel=1e-9)
    c2 = virtual_scale(11.78e9, AlphaValue(3e-4), k_max=k_max)
    assert c2.samples[-1][1] == pytest.approx(39254383699111.086, rel=1e-9)
    # the harder benchmark's distance costs about an order of magnitude
    assert 8.0 < c1.samples[-1][1] / c2.samples[-1][1] < 15.0


def test_rmax_vs_rpeak_starts_at_one_unit_by_default():
    c = virtual_scale(11.78e9, AlphaValue(1e-6), k_max=1e15 / 11.78e9)
    assert c.samples[0] == (11.78e9, 11.78e9)
    assert c.samples[-1][0] == pytest.approx(1e15, rel=1e-12)


# ---- trend projection -----------------------------------------------------------

def trend_fit():
    table = reference_table("trend-best-one-minus-alpha-1993-2017")
    pts = [(float(year), oma) for year, oma, label in table
           if label == "list-best"]
    return fit(pts, category="trend")


def test_trend_slope_is_minus_one_sixth_per_year():
    f = trend_fit()
    assert f.slope + 1.0 / 6.0 == pytest.approx(0.0, abs=1e-12)


def test_projection_reproduces_anchor_years():
    f = trend_fit()
    p2017 = project_trend(f, 2017.0)
    assert isinstance(p2017, TrendPoint)
    assert p2017.value == pytest.approx(1e-7, rel=1e-9)
    assert not p2017.extrapolated
    p1993 = project_trend(f, 1993.0)
    assert p1993.value == pytest.approx(1e-3, rel=1e-9)


def test_projection_flags_extrapolation():
    f = trend_fit()
    p2029 = project_trend(f, 2029.0)
    assert p2029.extrapolated
    assert p2029.value == pytest.approx(1e-9, rel=1e-6)


def test_projection_requires_log10_y_against_linear_x():
    # fit is always log10 y on x, so the projection undoes the log10
    f = fit([(2000.0, 1.0), (2010.0, 100.0)])
    assert project_trend(f, 2020.0).value == pytest.approx(1e4, rel=1e-12)


# ---- feasibility ------------------------------------------------------------------

def test_exaflops_with_measured_flagship_alpha_is_not_achievable():
    v = feasibility(target=1e18, per_processor_perf=11.78e9,
                    achieved=AlphaValue(3.273e-8))
    assert v.verdict == "not-achievable"
    assert v.required.one_minus_alpha == pytest.approx(1.178e-8, rel=1e-12)
    assert v.achieved.one_minus_alpha == 3.273e-8
    assert v.achieved_source == "measured"


def test_half_exaflops_nearby_is_marginal():
    v = feasibility(target=0.35e18, per_processor_perf=11.78e9,
                    achieved=AlphaValue(3.273e-8))
    # required 3.366e-8 sits within 2x of the achieved distance
    assert v.verdict == "achievable"
    v2 = feasibility(target=0.5e18, per_processor_perf=11.78e9,
                     achieved=AlphaValue(3.273e-8))
    assert v2.verdict == "marginal"


def test_feasibility_boundaries_are_inclusive():
    required = 1e-8
    target, perf = 1e18, 1e10
    assert feasibility(target, perf, AlphaValue(required)).verdict == \
        "achievable"
    assert feasibility(target, perf,
                       AlphaValue(2.0 * required)).verdict == "marginal"
    assert feasibility(target, perf,
                       AlphaValue(2.0 * required * (1 + 1e-9))).verdict == \
        "not-achievable"


@pytest.mark.parametrize("factor", [1.0, 3.0])
def test_feasibility_boundaries_move_with_marginal_factor(factor):
    def verdict(achieved):  # required = 1e10 / 1e18 = 1e-8 exactly
        return feasibility(1e18, 1e10, AlphaValue(achieved), marginal_factor=factor).verdict

    assert verdict(1e-8) == "achievable"
    assert verdict(factor * 1e-8) == ("achievable" if factor == 1.0 else "marginal")
    assert verdict(math.nextafter(factor * 1e-8, 1.0)) == "not-achievable"


def test_feasibility_marginal_factor_is_configurable():
    v = feasibility(1e18, 1e10, AlphaValue(3e-8), marginal_factor=5.0)
    assert v.verdict == "marginal"
    with pytest.raises(ValueError):
        feasibility(1e18, 1e10, AlphaValue(3e-8), marginal_factor=0.5)


def test_feasibility_trivial_target_is_a_distinct_signal():
    with pytest.raises(AlreadyAchievableError):
        feasibility(target=1e9, per_processor_perf=2e9,
                    achieved=AlphaValue(1e-7))


@pytest.mark.parametrize("target", [math.inf, np.float32(np.inf)])
def test_feasibility_rejects_infinite_target(target):
    with pytest.raises(ValueError, match="finite"):
        feasibility(target, 1e10, AlphaValue(1e-8))


def test_feasibility_carries_hypothesis_text():
    v = feasibility(1e18, 1e10, AlphaValue(5e-9), achieved_source="projected-2029")
    assert v.verdict == "achievable"
    assert v.hypothesis == "P=1e+10 flop/s"
    assert v.achieved_source == "projected-2029"
    assert isinstance(v, FeasibilityVerdict)
