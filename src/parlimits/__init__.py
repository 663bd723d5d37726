"""parlimits: how far parallelization can carry a machine.

The package answers four kinds of question about massively parallel
systems, all built on the same serial-fraction scaling law:

  * amdahl: speedups, efficiencies, effective parallel fractions, and
    the hard performance ceiling they imply, as a rate in flop/s.
  * timeline / bounds: where the serial fraction physically comes from,
    via a cycle-level dispatch timeline and design-number floors.
  * ingest / datasets / stats: published machine-list records, their
    derived scaling points, and trends across lists.
  * forecast: scaling sweeps, trend projections, and feasibility calls
    for machines that do not exist yet.

Each exported name is imported from its module on first access (PEP 562),
so that `import parlimits` loads no numpy: only timeline and forecast use
arrays, and importing numpy costs more than an analyze or bounds run.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in {
    "amdahl": ("AlphaValue", "AmdahlPoint", "alpha_eff_from_efficiency",
               "alpha_eff_from_speedup", "amplification", "efficiency", "p_max",
               "required_one_minus_alpha", "speedup"),
    "bounds": ("SIGNAL_SPEED", "BoundReport", "GroupingEffect", "bound_context_switch",
               "bound_os_looping", "bound_propagation", "bound_start_stop",
               "combined_limit", "mpe_grouping_effect"),
    "datasets": ("ReferenceTable", "available_tags", "reference_table"),
    "errors": ("AlreadyAchievableError", "DegenerateScenarioError",
               "InconsistentMeasurementError", "SchemaError"),
    "forecast": ("CONSTANT_ALPHA_CAVEAT", "FeasibilityVerdict", "ForecastCurve",
                 "TrendPoint", "feasibility", "project_trend", "virtual_scale"),
    "ingest": ("MachineRecord", "Provenance", "RecordSet", "RejectedRow", "bundled_dataset",
               "csv_text", "derive_points", "load_csv", "parse_csv", "write_csv"),
    "stats": ("RankPairing", "RatioSummary", "RegressionFit",
              "cross_benchmark_ratio", "fit", "fit_by_category", "is_weak_agreement",
              "rank_correlation"),
    "timeline": ("TimelineScenario", "TimingBreakdown", "linear_ramp", "load_scenario",
                 "parse_scenario", "simulate"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
