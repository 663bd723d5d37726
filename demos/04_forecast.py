"""What would an exaflops machine need? Ceilings and feasibility.

Turns a per-processor speed and a serial distance into a hard performance
ceiling, sweeps virtual machine sizes to draw the approach to that
ceiling, and issues a feasibility verdict for a target rate.
"""
from parlimits import (
    AlphaValue,
    feasibility,
    p_max,
    required_one_minus_alpha,
    virtual_scale,
)

PER_PROC = 11.78e9          # flop/s per processor, 2017 flagship
MEASURED = AlphaValue(3.273e-8)

ceiling = p_max(PER_PROC, MEASURED)
print(f"Per-processor speed {PER_PROC:.3g} flop/s with 1-alpha ="
      f" {MEASURED.one_minus_alpha:.3e}")
print(f"gives a hard ceiling of {ceiling / 1e15:.6g} Pflop/s no matter how many units you add.")

print()
need = required_one_minus_alpha(PER_PROC, 1e18)
print(f"Reaching 1e18 flop/s with those processors needs 1-alpha <="
      f" {need.one_minus_alpha:.3e},")
print(f"about {MEASURED.one_minus_alpha / need.one_minus_alpha:.1f}x"
      " beyond the measured value.")

print()
v = feasibility(target=1e18, per_processor_perf=PER_PROC, achieved=MEASURED)
print(f"verdict at the measured distance: {v.verdict}")
v2 = feasibility(target=1e18, per_processor_perf=PER_PROC,
                 achieved=AlphaValue(5e-9), achieved_source="hypothetical")
print(f"verdict if 1-alpha could reach 5e-9: {v2.verdict}")

print()
print("Sweep of virtual machine sizes at the measured distance")
print("(note the plateau: ceilings, not promises):")
curve = virtual_scale(PER_PROC, MEASURED, k_max=1e12)
print(f"  {len(curve.samples)} samples,"
      f" asymptote {curve.asymptote_flops:.3e} flop/s")
for frac in (0, len(curve.samples) // 3, 2 * len(curve.samples) // 3, -1):
    rpeak, rmax = curve.samples[frac]
    print(f"  rpeak {rpeak:10.3e} -> rmax {rmax:10.3e} flop/s")
print(f"caveat: {curve.caveat}")
