"""Where does the serial fraction come from? Count the cycles.

Builds explicit dispatch timelines (units started one after another by a
sequential loop) and shows that the extracted 1 - alpha never beats the
floor implied by the dispatch loop itself. Then prices a hardware
workaround: grouped dispatch through per-group management cores.
"""
from parlimits import (
    TimelineScenario,
    bound_os_looping,
    combined_limit,
    bound_start_stop,
    mpe_grouping_effect,
    simulate,
)

print("A small machine first: 8 units, 1000-cycle payloads, 5-cycle dispatch.")
out = simulate(TimelineScenario(n_units=8, payload_cycles=1000.0,
                                dispatch_cycles=5.0))
print(f"  total wall cycles: {out.total_cycles:g}")
print(f"  effective alpha:   {out.alpha_eff.alpha:.6f}")
print("  capacity shares:")
for name, share in out.shares.items():
    if share:
        print(f"    {name:<12} {share:8.4%}")

print()
print("The dispatch loop sets a floor on 1 - alpha no schedule can beat:")
measured = out.alpha_eff.one_minus_alpha
floor = bound_os_looping(8, 5.0, out.payload_cycles)
print(f"  measured 1-alpha: {measured:.4e}")
print(f"  {floor.describe()}")
assert measured >= floor.bound

print()
print("Scale the same story to ten million units:")
big = simulate(TimelineScenario(n_units=10_000_000, payload_cycles=2e6,
                                dispatch_cycles=1.0))
print(f"  effective 1-alpha: {big.alpha_eff.one_minus_alpha:.3e}")
print("  one cycle per unit dispatched against 2e6-cycle payloads pins")
print("  1-alpha at 5e-7, five times the best value on record.")

print()
print("Several floors can apply at once; the binding one wins:")
reports = [
    bound_start_stop(2e4, 2e13),
    bound_os_looping(10_000_000, 1.0, 2e13),
]
for r in reports:
    print(f"  {r.describe()}")
print(f"  binding: {combined_limit(reports).kind}")

print()
print("Grouped dispatch: one management core starts each group of 260.")
g = mpe_grouping_effect(n_cores=10_649_600, cores_per_group=260,
                        mpe_per_group=4, cycles_per_dispatch=1.0,
                        total_cycles=2e13)
print(f"  addressable units: {g.addressable_units}")
print(f"  dispatch loop shortened by: {g.reduction_factor:g}x")
print(f"  compute capacity ceded to management: {g.capacity_loss:.2%}")
print(f"  {g.bound.describe()}")
