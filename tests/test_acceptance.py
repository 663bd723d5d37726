"""End-to-end checks, one per promised behavior.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail
line per criterion.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from parlimits import (
    AlphaValue,
    RankPairing,
    TimelineScenario,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    bound_context_switch,
    bound_os_looping,
    bound_propagation,
    bound_start_stop,
    bundled_dataset,
    cross_benchmark_ratio,
    derive_points,
    fit,
    mpe_grouping_effect,
    p_max,
    rank_correlation,
    reference_table,
    required_one_minus_alpha,
    simulate,
    speedup,
    virtual_scale,
)


def test_criterion_01_alpha_extracted_from_flagship_hpl_efficiency():
    a = alpha_eff_from_efficiency(0.742, 10_649_600)
    assert a.one_minus_alpha == pytest.approx(3.273e-8, rel=0.01)


def test_criterion_02_alpha_extracted_from_flagship_hpcg_efficiency():
    a = alpha_eff_from_efficiency(0.0038, 10_649_600)
    assert a.one_minus_alpha == pytest.approx(2.44e-5, rel=0.03)


def test_criterion_03_required_distance_for_exaflops_is_exact():
    assert required_one_minus_alpha(50e9, 1e18).one_minus_alpha == 5e-8


def test_criterion_04_performance_ceiling_lands_in_stated_band():
    ceiling = p_max(11.8e9, AlphaValue(3.3e-8)) / 1e18
    assert 0.35 <= ceiling <= 0.40


def test_criterion_05_design_floors_from_hardware_numbers():
    assert bound_start_stop(2.0, 2e13).bound == 1e-13
    prop = bound_propagation(distance_m=5.0, clock_hz=1.1e9,
                             message_time_s=0.0, total_cycles=1e11).bound
    assert 1e-9 / 2 <= prop <= 1e-9 * 2
    ctx = bound_context_switch(1e4, 2e13).bound
    assert 1e-9 / 10 <= ctx <= 1e-9 * 10
    loop = bound_os_looping(10_000_000, 1.0, 2e13).bound
    assert 1e-6 / 10 <= loop <= 1e-6 * 10


def test_criterion_06_grouped_dispatch_tradeoff():
    g = mpe_grouping_effect(n_cores=10_649_600, cores_per_group=260,
                            mpe_per_group=4, cycles_per_dispatch=1.0,
                            total_cycles=2e13)
    assert g.reduction_factor == 260.0
    assert 0.015 <= g.capacity_loss <= 0.02


def test_criterion_07_best_machine_trend_decays_one_sixth_decade_per_year():
    table = reference_table("trend-best-one-minus-alpha-1993-2017")
    pts = [(float(year), oma) for year, oma, label in table
           if label == "list-best"]
    f = fit(pts)
    assert abs(f.slope - (-1.0 / 6.0)) <= 1e-12


def test_criterion_08_cross_benchmark_distance_ratio_is_two_to_three_decades():
    rs = bundled_dataset()
    hpl = {rec.name: pt.alpha_eff.one_minus_alpha
           for rec, pt in derive_points(rs.benchmark("HPL"))}
    hpcg = {rec.name: pt.alpha_eff.one_minus_alpha
            for rec, pt in derive_points(rs.benchmark("HPCG"))}
    pairs = [(hpl[name], hpcg[name]) for name in sorted(hpl) if name in hpcg]
    assert len(pairs) == 10
    summary = cross_benchmark_ratio(pairs)
    assert 1e2 <= summary.median <= 1e3
    assert summary.plausible


def test_criterion_09_rank_agreement_between_benchmarks_is_weak():
    table = reference_table("rank-pairs-hpl-hpcg-2017-06")
    pairing = RankPairing.from_raw(
        [(i, a, b) for i, (a, b) in enumerate(table)])
    rho = rank_correlation(pairing)
    assert abs(rho - 11.0 / 30.0) <= 1e-12
    assert abs(rho) < 0.5
    a = [e[1] for e in pairing.entries]
    b = [e[2] for e in pairing.entries]
    assert abs(rho - scipy.stats.spearmanr(a, b).statistic) <= 1e-12


def test_criterion_10a_extraction_inverts_prediction_to_1e_minus_9():
    rng = np.random.default_rng(1)
    ks = np.floor(10 ** rng.uniform(np.log10(2), 8, 10_000))
    omas = 10 ** rng.uniform(-12, 0, 10_000)
    worst = 0.0
    for k, oma in zip(ks, omas):
        s = speedup(AlphaValue(float(oma)), float(k))
        back = alpha_eff_from_speedup(s, float(k)).one_minus_alpha
        worst = max(worst, abs(back - float(oma)))
    assert worst <= 1e-9


def test_criterion_10b_timeline_alpha_matches_closed_form_to_1e_minus_9():
    cases = [
        (100, 1e5, 2.0),
        (1000, 3e4, 1.0),
        (10_000_000, 2e13, 1.0),
    ]
    for n, w, t in cases:
        out = simulate(TimelineScenario(n_units=n, payload_cycles=w,
                                        dispatch_cycles=t))
        closed = t * n / ((n - 1) * w)
        got = out.alpha_eff.one_minus_alpha
        assert abs(got - closed) <= 1e-9 * max(closed, 1e-300)
    # consistency the other way: the extracted alpha reproduces the
    # observed speedup through the forward model
    out = simulate(TimelineScenario(n_units=1000, payload_cycles=3e4,
                                    dispatch_cycles=1.0))
    s_observed = out.payload_cycles / out.total_cycles
    assert speedup(out.alpha_eff, 1000) == pytest.approx(s_observed,
                                                         rel=1e-9)


def test_criterion_10c_forecast_curves_are_monotone_and_dominated():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = 10 ** rng.uniform(8, 11)
        oma = 10 ** rng.uniform(-10, -2)
        k_max = 10 ** rng.uniform(1, 10)
        c = virtual_scale(p, AlphaValue(oma), k_max=k_max)
        rp, rm = c.r_peak, c.r_max
        assert all(x <= y for x, y in zip(rp, rp[1:]))
        assert all(x <= y for x, y in zip(rm, rm[1:]))
        assert all(m <= q * (1 + 1e-12) for q, m in c.samples)
        assert all(m <= c.asymptote_flops * (1 + 1e-12) for m in rm)
        assert c.samples[0][0] == pytest.approx(p, rel=1e-12)
        assert c.samples[-1][0] == pytest.approx(p * k_max, rel=1e-12)
        # ceiling agreement at the far end of a long sweep
        if k_max * oma >= 100.0:
            assert rm[-1] >= 0.99 * c.asymptote_flops
