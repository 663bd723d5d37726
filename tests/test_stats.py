"""Regression of log10 y on x, rank agreement, ratio summaries."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from parlimits import (
    RankPairing,
    cross_benchmark_ratio,
    fit,
    fit_by_category,
    is_weak_agreement,
    rank_correlation,
    reference_table,
)


# ---- axis handling ------------------------------------------------------------

def test_log_axis_excludes_nonpositive_points():
    f = fit([(0.0, 1.0), (1.0, 10.0), (2.0, -5.0), (3.0, 0.0)])
    assert f.n == 2
    assert f.n_excluded == 2
    assert f.slope == pytest.approx(1.0, abs=1e-12)


def test_too_few_usable_points_is_an_error():
    with pytest.raises(ValueError):
        fit([(1.0, 2.0)])
    with pytest.raises(ValueError):
        fit([(1.0, -1.0), (2.0, -2.0), (3.0, 5.0)])


def test_vertical_line_is_an_error():
    with pytest.raises(ValueError):
        fit([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])


# The linear x axis and the log10 y axis: the slot of the bad value, and its label.
@pytest.mark.parametrize("axes", [(0, "x"), (1, "y")])
@pytest.mark.parametrize("bad", ["1", math.nan, math.inf, -math.inf, 10**400])
def test_non_numbers_are_one_line_errors_on_either_axis_kind(bad, axes):
    slot, label = axes
    point = [1.0, 1.0]
    point[slot] = bad
    with pytest.raises(ValueError, match=f"^{label} must be a finite number") as info:
        fit([tuple(point), (2.0, 2.0), (3.0, 5.0)])
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("pts", [[(1e300, 1.0), (-1e300, 2.0)],
                                 [(5e-324, 1.0), (1e-323, 2.0)],
                                 [(1e306, 1e300), (-1e306, 1e-300)]])
def test_points_beyond_the_float_range_of_a_fit_are_an_error(pts):
    with pytest.raises(ValueError, match="no finite line"):
        fit(pts)


# ---- plain least squares --------------------------------------------------------

def test_exact_line_recovered_exactly():
    pts = [(x, 10.0 ** (2.0 * x + 1.0)) for x in (-3.0, -1.0, 0.0, 2.0, 5.0)]
    f = fit(pts)
    assert f.slope == pytest.approx(2.0, abs=1e-14)
    assert f.intercept == pytest.approx(1.0, abs=1e-14)
    assert f.rms_residual < 1e-12
    assert f.n == 5 and f.n_excluded == 0
    assert len(f.residuals) == 5


def test_flat_data_has_zero_slope():
    f = fit([(x, 7.0) for x in range(4)])
    assert f.slope == 0.0
    assert f.intercept == math.log10(7.0)


def test_predict_and_extrapolation_flag():
    f = fit([(0.0, 1.0), (10.0, 1e20)])
    assert f.predict(5.0) == pytest.approx(10.0, rel=1e-12)
    assert f.x_range == (0.0, 10.0)
    assert not f.extrapolates(10.0)
    assert f.extrapolates(10.5)
    assert f.extrapolates(-0.5)


def test_fit_is_invariant_to_point_order():
    rng = np.random.default_rng(31415)
    pts = [(float(x), float(y)) for x, y in
           zip(rng.uniform(-10, 10, 100), rng.uniform(1, 100, 100))]
    f1 = fit(pts)
    shuffled = list(pts)
    rng.shuffle(shuffled)
    f2 = fit(shuffled)
    assert f1.slope == f2.slope
    assert f1.intercept == f2.intercept
    assert f1.rms_residual == f2.rms_residual


def test_scaling_y_by_100_shifts_log_intercept_by_2():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0, 4.0, 8.0, 16.0]
    base = fit(list(zip(xs, ys)))
    scaled = fit([(x, 100.0 * y) for x, y in zip(xs, ys)])
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept - base.intercept == pytest.approx(2.0, abs=1e-12)


def test_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(777)
    xs = rng.uniform(0, 50, 60)
    ys = 10 ** (rng.uniform(-3, 3, 60))
    f = fit([(float(x), float(y)) for x, y in zip(xs, ys)])
    slope_np, icept_np = np.polyfit(xs, np.log10(ys), 1)
    assert f.slope == pytest.approx(slope_np, rel=1e-9)
    assert f.intercept == pytest.approx(icept_np, rel=1e-9)


# ---- grouped fits ------------------------------------------------------------------

def test_fit_by_category_splits_and_reports_unfittable():
    pts = [("a", 0.0, 10.0), ("a", 1.0, 1e3), ("a", 2.0, 1e5),
           ("b", 0.0, 2.0), ("b", 1.0, 2.0),
           ("lonely", 4.0, 4.0),
           ("same-x", 1.0, 1.0), ("same-x", 1.0, 2.0),
           ("too-wide", 1e300, 1.0), ("too-wide", 2.0, 1.0)]
    fits, unfit = fit_by_category(pts)
    assert sorted(fits) == ["a", "b"]
    assert fits["a"].slope == pytest.approx(2.0, abs=1e-12)
    assert fits["a"].category == "a"
    assert fits["b"].slope == 0.0
    assert unfit == {"lonely": (1, 0), "same-x": (2, 0), "too-wide": (2, 0)}


def test_fit_by_category_counts_points_the_log_axis_left_out():
    fits, unfit = fit_by_category([("a", 1.0, 0.0), ("a", 2.0, 1.0), ("b", 1.0, 0.0)])
    assert (fits, unfit) == ({}, {"a": (1, 1), "b": (0, 1)})


@pytest.mark.parametrize("bad", ["1", math.nan])
def test_fit_by_category_raises_for_a_malformed_point(bad):
    with pytest.raises(ValueError, match="^x must be a finite number"):
        fit_by_category([("a", bad, 1.0), ("a", 2.0, 2.0), ("a", 3.0, 3.0)])


def test_architecture_classes_decay_at_similar_rates():
    table = reference_table("one-minus-alpha-by-architecture-2016-11")
    pts = [(arch, float(rank), oma) for arch, rank, oma in table]
    fits, unfit = fit_by_category(pts)
    assert unfit == {}
    mpp, cluster = fits["MPP"].slope, fits["Cluster"].slope
    assert mpp == pytest.approx(0.018492402750309944, rel=1e-9)
    assert cluster == pytest.approx(0.021880924668130627, rel=1e-9)
    # same direction, and within 25% of each other (symmetric mean yardstick)
    assert mpp > 0 and cluster > 0
    assert abs(mpp - cluster) / ((mpp + cluster) / 2) < 0.25


def test_harder_benchmark_decays_faster_down_the_ranking():
    top50 = reference_table("top50-hpl-2017-06")
    top10 = reference_table("top10-hpcg-2017-06")
    f50 = fit([(float(rank), float(cores)) for rank, cores, _ in top50], category="hpl-cores")
    f10 = fit([(float(rank), float(cores)) for rank, cores, _ in top10], category="hpcg-cores")
    assert f50.slope == pytest.approx(-0.02422416708785183, rel=1e-9)
    assert f10.slope == pytest.approx(-0.1035876463764512, rel=1e-9)
    assert abs(f10.slope) > abs(f50.slope)


# ---- rank agreement -----------------------------------------------------------------

def test_from_raw_densifies_sparse_ranks():
    table = reference_table("rank-pairs-hpl-hpcg-2017-06")
    raw = [(i, a, b) for i, (a, b) in enumerate(table)]
    pairing = RankPairing(raw)
    assert [a for _, a, _ in pairing.entries] == list(range(1, 10))
    assert [b for _, _, b in pairing.entries] == [4, 2, 7, 6, 5, 3, 1, 9, 8]


def test_from_raw_rejects_duplicates():
    with pytest.raises(ValueError):
        RankPairing([("x", 1, 1), ("y", 1, 2), ("z", 3, 3)])
    with pytest.raises(ValueError):
        RankPairing([("x", 1, 1), ("x", 2, 2)])


@pytest.mark.parametrize("rank", [True, 3.0, 0, "3"])
def test_ranks_must_be_counts(rank):
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        RankPairing(entries=(("a", 1, 1), ("b", 2, 2), ("c", rank, 3)))
    with pytest.raises(ValueError, match="rank must be an integer >= 1"):
        RankPairing([("a", 10, 1), ("b", 20, 2), ("c", 30, rank)])


def test_direct_construction_stores_dense_permutations():
    pairing = RankPairing(entries=(("a", 1, 7), ("b", 3, 2)))
    assert pairing.entries == (("a", 1, 2), ("b", 2, 1))
    # A dense pairing is its own densified form.
    assert RankPairing(pairing.entries) == pairing


def test_rank_correlation_on_published_pairs_is_weak():
    table = reference_table("rank-pairs-hpl-hpcg-2017-06")
    pairing = RankPairing(
        [(i, a, b) for i, (a, b) in enumerate(table)])
    rho = rank_correlation(pairing)
    assert rho == pytest.approx(0.3666666666666667, abs=1e-15)
    assert rho == pytest.approx(11.0 / 30.0, abs=1e-12)
    assert is_weak_agreement(rho)
    a = [e[1] for e in pairing.entries]
    b = [e[2] for e in pairing.entries]
    assert rho == pytest.approx(scipy.stats.spearmanr(a, b).statistic, abs=1e-12)


def test_rank_correlation_extremes():
    same = RankPairing(entries=tuple((i, i, i) for i in range(1, 6)))
    assert rank_correlation(same) == 1.0
    reverse = RankPairing(entries=tuple((i, i, 6 - i) for i in range(1, 6)))
    assert rank_correlation(reverse) == -1.0


def test_rank_correlation_rounds_once():
    # Ranks 1-79 reversed give sum(d^2) = 164320; six swaps of i and i + t
    # among the ranks above add 2 * t^2 each, to 166652. Then rho is
    # -6/499950 exactly, and 1 - 6 * d2 / m would lose its last 5 digits.
    ranks_b = [*range(79, 0, -1), *range(80, 101)]
    for i, j in [(80, 100), (81, 99), (82, 98), (84, 95), (85, 93), (86, 87)]:
        ranks_b[i - 1], ranks_b[j - 1] = ranks_b[j - 1], ranks_b[i - 1]
    pairing = RankPairing(tuple((i, i, b) for i, b in enumerate(ranks_b, 1)))
    assert sum((a - b) ** 2 for a, b in zip(pairing.ranks_a, pairing.ranks_b)) == 166652
    assert rank_correlation(pairing) == -1.2001200120012002e-05


def test_rank_correlation_is_the_exact_value_rounded():
    rng = np.random.default_rng(2017)
    for _ in range(200):
        n = int(rng.integers(3, 60))
        perm = rng.permutation(n) + 1
        pairing = RankPairing(tuple((i, i + 1, int(perm[i])) for i in range(n)))
        d2 = sum((i + 1 - int(perm[i])) ** 2 for i in range(n))
        assert rank_correlation(pairing) == float(1 - Fraction(6 * d2, n * (n * n - 1)))


def test_rank_correlation_needs_three_pairs():
    with pytest.raises(ValueError):
        rank_correlation(RankPairing(entries=(("a", 1, 1), ("b", 2, 2))))


def test_rank_correlation_antisymmetry_identity():
    rng = np.random.default_rng(6174)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        perm = rng.permutation(n) + 1
        fwd = RankPairing(entries=tuple(
            (i, i + 1, int(perm[i])) for i in range(n)))
        rev = RankPairing(entries=tuple(
            (i, i + 1, n + 1 - int(perm[i])) for i in range(n)))
        assert rank_correlation(fwd) + rank_correlation(rev) == \
            pytest.approx(0.0, abs=1e-12)


def test_weak_agreement_is_below_one_half():
    assert is_weak_agreement(0.49)
    assert is_weak_agreement(-0.49)
    assert not is_weak_agreement(0.5)
    assert not is_weak_agreement(-0.5)
    assert is_weak_agreement(-0.9) is False
    with pytest.raises(TypeError):
        is_weak_agreement(0.7, threshold=0.8)


# ---- cross-benchmark ratios ----------------------------------------------------------

def test_equal_pairs_are_not_plausible_under_default_band():
    summary = cross_benchmark_ratio([(1e-7, 1e-7), (2e-6, 2e-6), (3e-5, 3e-5)])
    assert summary.median == 1.0
    assert not summary.plausible


def test_ratio_requires_positive_entries():
    with pytest.raises(ValueError):
        cross_benchmark_ratio([(0.0, 1e-5)])
    with pytest.raises(ValueError):
        cross_benchmark_ratio([])
