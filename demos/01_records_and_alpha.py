"""How close to perfectly parallel are the fastest machines on record?

Loads the packaged 2017 snapshot of top machines, extracts the effective
serial distance (1 - alpha) of each from its measured efficiency, and
compares the picture across the two standard benchmarks.
"""
from parlimits import (
    bundled_dataset,
    cross_benchmark_ratio,
    derive_points,
)

rs = bundled_dataset()
print(f"loaded {len(rs.records)} records from {rs.provenance.source}\n")

print("machine                 benchmark  cores      efficiency  1 - alpha")
points = {}
for rec, pt in derive_points(rs.records):
    points[(rec.name, rec.benchmark)] = pt
    print(f"{rec.name:<22}  {rec.benchmark:<9}  {rec.cores:<9}  "
          f"{pt.efficiency:<10.4f}  {pt.one_minus_alpha:.3e}")

print()
print("Even the best machine keeps a serial residue around 3e-8 on the")
print("dense-linear-algebra benchmark. Its amplification (1/(1-alpha))")
print("says how much that residue is magnified at scale:")
best = points[("Sunway TaihuLight", "HPL")]
print(f"  TaihuLight HPL amplification: {best.amplification:.3e}")

names = sorted({r.name for r in rs.benchmark("HPL")})
pairs = [(points[(n, "HPL")].one_minus_alpha,
          points[(n, "HPCG")].one_minus_alpha) for n in names]
summary = cross_benchmark_ratio(pairs)
print()
print("The memory-bound benchmark sees a much larger serial distance:")
print(f"  HPCG/HPL ratio median: {summary.median:.1f}"
      f"  (plausible band {summary.band[0]:g}..{summary.band[1]:g}:"
      f" {'yes' if summary.plausible else 'no'})")
