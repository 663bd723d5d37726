"""parlimits: how far parallelization can carry a machine.

The package answers four kinds of question about massively parallel
systems, all built on the same serial-fraction scaling law:

  * amdahl / units: speedups, efficiencies, effective parallel
    fractions, and the hard performance ceiling they imply.
  * timeline / bounds: where the serial fraction physically comes from,
    via a cycle-level dispatch timeline and design-number floors.
  * ingest / datasets / stats: published machine-list records, their
    derived scaling points, and trends across lists.
  * forecast: scaling sweeps, trend projections, and feasibility calls
    for machines that do not exist yet.
"""
from __future__ import annotations

from .amdahl import (
    AlphaValue,
    AmdahlPoint,
    alpha_eff_from_efficiency,
    alpha_eff_from_speedup,
    amplification,
    efficiency,
    p_max,
    required_one_minus_alpha,
    rmax_from_record,
    speedup,
)
from .bounds import (
    SIGNAL_SPEED,
    BoundReport,
    GroupingEffect,
    bound_context_switch,
    bound_os_looping,
    bound_propagation,
    bound_start_stop,
    combined_limit,
    mpe_grouping_effect,
)
from .datasets import ReferenceTable, available_tags, reference_table
from .errors import (
    AlreadyAchievableError,
    DegenerateScenarioError,
    InconsistentMeasurementError,
    SchemaError,
    UnboundedLimitError,
)
from .forecast import (
    CONSTANT_ALPHA_CAVEAT,
    FeasibilityVerdict,
    ForecastCurve,
    TrendPoint,
    feasibility,
    project_trend,
    virtual_scale,
)
from .ingest import (
    MachineRecord,
    Provenance,
    RecordSet,
    RejectedRow,
    bundled_dataset,
    csv_text,
    derive_points,
    load_csv,
    parse_csv,
    write_csv,
)
from .stats import (
    AxisSpec,
    RankPairing,
    RatioSummary,
    RegressionFit,
    cross_benchmark_ratio,
    fit,
    fit_by_category,
    is_weak_agreement,
    rank_correlation,
)
from .timeline import (
    TimelineScenario,
    TimingBreakdown,
    linear_ramp,
    load_scenario,
    parse_scenario,
    simulate,
)
from .units import PerformanceFigure

__version__ = "0.1.0"

__all__ = [
    "AlphaValue",
    "AlreadyAchievableError",
    "AmdahlPoint",
    "AxisSpec",
    "BoundReport",
    "CONSTANT_ALPHA_CAVEAT",
    "DegenerateScenarioError",
    "FeasibilityVerdict",
    "ForecastCurve",
    "GroupingEffect",
    "InconsistentMeasurementError",
    "MachineRecord",
    "PerformanceFigure",
    "Provenance",
    "RankPairing",
    "RatioSummary",
    "RecordSet",
    "ReferenceTable",
    "RegressionFit",
    "RejectedRow",
    "SIGNAL_SPEED",
    "SchemaError",
    "TimelineScenario",
    "TimingBreakdown",
    "TrendPoint",
    "UnboundedLimitError",
    "alpha_eff_from_efficiency",
    "alpha_eff_from_speedup",
    "amplification",
    "available_tags",
    "bound_context_switch",
    "bound_os_looping",
    "bound_propagation",
    "bound_start_stop",
    "bundled_dataset",
    "combined_limit",
    "cross_benchmark_ratio",
    "csv_text",
    "derive_points",
    "efficiency",
    "feasibility",
    "fit",
    "fit_by_category",
    "is_weak_agreement",
    "linear_ramp",
    "load_csv",
    "load_scenario",
    "mpe_grouping_effect",
    "p_max",
    "parse_csv",
    "parse_scenario",
    "project_trend",
    "rank_correlation",
    "reference_table",
    "required_one_minus_alpha",
    "rmax_from_record",
    "simulate",
    "speedup",
    "virtual_scale",
    "write_csv",
]
