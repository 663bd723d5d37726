"""Reference tables from published TOP500 and HPCG list data.

The tables hold published measurements only, with their published
rounding. A value that a law derives from other numbers, such as an
amplification 1 / (1 - alpha) from cores and efficiency, is computed with
parlimits.amdahl, not stored. Each table's comment names the test that
checks it against the packaged data/top500_2017.csv or against a law. A
content tag (what-plus-when) lets reports cite the table a number came from.

Sources: TOP500 list (June 1993 through November 2017 editions) and the
HPCG results list, plus processor counts and per-processor performance
derived from the same editions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class ReferenceTable:
    """An immutable named table: a tag, column names, and value rows."""

    tag: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(f"{self.tag}: row {row!r} does not match columns")

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


# Best (1 - alpha) achieved by any listed machine, by list year. The 2016
# entry is the standout single machine rather than a regression point.
# Checked by test_forecast.py's test_trend_slope_is_minus_one_sixth_per_year.
TREND_BEST_ONE_MINUS_ALPHA = ReferenceTable(
    tag="trend-best-one-minus-alpha-1993-2017",
    columns=("year", "one_minus_alpha", "label"),
    rows=(
        (1993, 1e-3, "list-best"),
        (2017, 1e-7, "list-best"),
        (2016, 3.3e-8, "Sunway TaihuLight"),
    ),
)

# June 2017 HPL list, first 50 entries: processor count and the effective
# (1 - alpha) implied by the published efficiency. Rows 1-10 are checked
# against data/top500_2017.csv (not derived from it) by test_ingest.py's
# test_bundle_agrees_with_reference_alpha_distances_within_3_percent.
TOP50_HPL_2017 = ReferenceTable(
    tag="top50-hpl-2017-06",
    columns=("rank", "cores", "one_minus_alpha"),
    rows=(
        (1, 10649600, 3.273e-8),
        (2, 3120000, 1.991e-7),
        (3, 361760, 8.094e-7),
        (4, 560640, 9.656e-7),
        (5, 1572864, 1.096e-7),
        (6, 622336, 1.590e-6),
        (7, 556104, 1.507e-6),
        (8, 705024, 1.040e-7),
        (9, 786432, 2.191e-7),
        (10, 301056, 1.221e-6),
        (11, 241920, 6.399e-7),
        (12, 241920, 3.636e-6),
        (13, 148716, 4.028e-6),
        (14, 241808, 3.064e-6),
        (15, 241108, 8.052e-7),
        (16, 231424, 2.748e-6),
        (17, 185088, 1.689e-6),
        (18, 185088, 1.560e-6),
        (19, 220800, 1.225e-6),
        (20, 522080, 1.642e-6),
        (21, 458752, 3.756e-7),
        (22, 144900, 7.842e-7),
        (23, 393216, 4.383e-7),
        (24, 145920, 2.250e-6),
        (25, 126468, 6.107e-7),
        (26, 126468, 6.107e-7),
        (27, 72800, 9.811e-6),
        (28, 72800, 9.811e-6),
        (29, 124200, 3.036e-6),
        (30, 72000, 6.173e-6),
        (31, 110160, 9.318e-7),
        (32, 225984, 2.446e-6),
        (33, 152692, 5.204e-6),
        (34, 92160, 1.246e-6),
        (35, 147456, 6.743e-7),
        (36, 86016, 3.160e-6),
        (37, 89856, 8.635e-7),
        (38, 89856, 8.635e-7),
        (39, 74520, 1.365e-5),
        (40, 186368, 4.464e-6),
        (41, 88992, 2.677e-6),
        (42, 194616, 1.718e-6),
        (43, 100064, 4.815e-6),
        (44, 69600, 2.997e-6),
        (45, 69600, 2.997e-6),
        (46, 82944, 1.243e-6),
        (47, 76032, 4.628e-6),
        (48, 72000, 2.347e-6),
        (49, 42688, 9.587e-6),
        (50, 174720, 2.772e-6),
    ),
)

# HPCG results of the June 2017 HPL top ten, keyed by HPL rank; checked by
# test_ingest.py's test_bundle_agrees_with_reference_alpha_distances_within_3_percent.
TOP10_HPCG_2017 = ReferenceTable(
    tag="top10-hpcg-2017-06",
    columns=("hpl_rank", "cores", "one_minus_alpha"),
    rows=(
        (1, 10649600, 2.44e-5),
        (2, 3120000, 3.00e-5),
        (3, 361760, 1.46e-4),
        (4, 560640, 1.48e-4),
        (5, 1572864, 3.81e-5),
        (6, 622336, 1.24e-4),
        (7, 556104, 1.14e-4),
        (8, 705024, 2.51e-5),
        (9, 786432, 7.54e-5),
        (10, 301056, 1.98e-4),
    ),
)

# Published efficiencies of the same ten machines under both benchmarks; checked
# by test_ingest.py's test_bundle_agrees_with_reference_efficiencies_within_3_percent.
EFFICIENCY_TOP10_2017 = ReferenceTable(
    tag="efficiency-top10-2017-06",
    columns=("cores", "efficiency_hpl", "efficiency_hpcg"),
    rows=(
        (10649600, 0.742, 0.0038),
        (3120000, 0.617, 0.0106),
        (361760, 0.774, 0.0186),
        (560640, 0.649, 0.0119),
        (1572864, 0.853, 0.0164),
        (622336, 0.503, 0.0127),
        (556104, 0.544, 0.0155),
        (705024, 0.932, 0.0534),
        (786432, 0.853, 0.0166),
        (301056, 0.731, 0.0165),
    ),
)

# (1 - alpha) by list rank, split by architecture class, November 2000 list.
# Checked by test_ingest.py's test_architecture_mix_shifted_between_2000_and_2016.
ARCHITECTURE_2000 = ReferenceTable(
    tag="one-minus-alpha-by-architecture-2000-11",
    columns=("architecture", "rank", "one_minus_alpha"),
    rows=(
        ("MPP", 1, 3.614e-5),
        ("MPP", 2, 1.375e-4),
        ("MPP", 3, 1.482e-4),
        ("MPP", 4, 3.103e-4),
        ("MPP", 5, 2.690e-3),
        ("MPP", 6, 3.117e-3),
        ("MPP", 7, 4.247e-4),
        ("MPP", 8, 4.247e-4),
        ("MPP", 9, 1.362e-3),
        ("MPP", 10, 3.493e-4),
        ("MPP", 11, 6.552e-4),
        ("MPP", 12, 2.355e-4),
        ("MPP", 13, 4.112e-4),
        ("MPP", 14, 5.575e-4),
        ("MPP", 15, 5.575e-4),
        ("MPP", 16, 5.811e-4),
        ("MPP", 17, 4.201e-3),
        ("MPP", 18, 4.894e-4),
        ("MPP", 19, 7.143e-4),
        ("MPP", 20, 7.102e-4),
        ("MPP", 21, 9.167e-4),
        ("MPP", 22, 9.167e-4),
        ("Cluster", 23, 6.749e-4),
        ("Cluster", 24, 6.749e-4),
        ("MPP", 25, 1.685e-3),
        ("MPP", 26, 7.362e-4),
        ("MPP", 27, 6.746e-4),
        ("MPP", 28, 2.227e-3),
        ("MPP", 29, 6.005e-4),
        ("MPP", 30, 8.343e-4),
        ("MPP", 31, 8.343e-4),
        ("MPP", 32, 8.343e-4),
        ("MPP", 33, 8.343e-4),
        ("MPP", 34, 5.828e-4),
        ("MPP", 35, 3.267e-4),
        ("MPP", 36, 4.592e-4),
        ("MPP", 37, 9.823e-4),
        ("MPP", 38, 1.551e-3),
        ("MPP", 39, 7.889e-4),
        ("MPP", 40, 7.889e-4),
        ("MPP", 41, 1.120e-3),
        ("MPP", 42, 1.136e-3),
        ("MPP", 43, 1.500e-3),
        ("MPP", 44, 1.282e-3),
        ("MPP", 45, 9.241e-4),
        ("MPP", 46, 1.352e-3),
        ("MPP", 47, 7.905e-4),
        ("MPP", 49, 1.369e-3),
        ("Cluster", 50, 1.063e-3),
    ),
)

# Same split for the November 2016 list (rank 1 not classified there); also
# checked by test_stats.py's test_architecture_classes_decay_at_similar_rates.
ARCHITECTURE_2016 = ReferenceTable(
    tag="one-minus-alpha-by-architecture-2016-11",
    columns=("architecture", "rank", "one_minus_alpha"),
    rows=(
        ("Cluster", 2, 1.991e-7),
        ("MPP", 3, 9.656e-7),
        ("MPP", 4, 1.096e-7),
        ("Cluster", 5, 1.040e-7),
        ("MPP", 6, 2.191e-7),
        ("MPP", 7, 1.221e-6),
        ("MPP", 8, 2.087e-6),
        ("MPP", 9, 1.689e-6),
        ("MPP", 10, 1.560e-6),
        ("Cluster", 11, 1.225e-6),
        ("Cluster", 12, 1.402e-6),
        ("MPP", 13, 3.756e-7),
        ("MPP", 14, 4.383e-7),
        ("Cluster", 15, 1.163e-6),
        ("MPP", 16, 2.250e-6),
        ("MPP", 17, 6.107e-7),
        ("MPP", 18, 6.107e-7),
        ("Cluster", 19, 9.811e-6),
        ("Cluster", 20, 9.811e-6),
        ("Cluster", 21, 3.036e-6),
        ("Cluster", 22, 6.173e-6),
        ("Cluster", 23, 9.318e-7),
        ("MPP", 24, 2.446e-6),
        ("Cluster", 25, 5.204e-6),
        ("Cluster", 26, 1.246e-6),
        ("Cluster", 27, 6.743e-7),
        ("Cluster", 28, 3.160e-6),
        ("MPP", 29, 8.635e-7),
        ("MPP", 30, 8.635e-7),
        ("Cluster", 31, 1.365e-5),
        ("MPP", 32, 4.464e-6),
        ("Cluster", 33, 2.677e-6),
        ("Cluster", 34, 1.718e-6),
        ("MPP", 35, 4.815e-6),
        ("MPP", 36, 2.997e-6),
        ("MPP", 37, 2.997e-6),
        ("Cluster", 38, 1.243e-6),
        ("Cluster", 39, 4.628e-6),
        ("Cluster", 40, 2.347e-6),
        ("Cluster", 41, 9.587e-6),
        ("Cluster", 42, 2.772e-6),
        ("Cluster", 43, 4.132e-6),
        ("Cluster", 44, 5.438e-6),
        ("MPP", 45, 1.052e-6),
        ("Cluster", 46, 2.976e-6),
        ("Cluster", 47, 6.123e-6),
        ("Cluster", 48, 7.291e-6),
        ("MPP", 49, 4.131e-6),
        ("MPP", 50, 4.682e-6),
    ),
)

# Rank under HPL vs rank under HPCG for the nine machines appearing in
# both top lists, June 2017. Checked by test_stats.py's
# test_rank_correlation_on_published_pairs_is_weak.
RANK_PAIRS_2017 = ReferenceTable(
    tag="rank-pairs-hpl-hpcg-2017-06",
    columns=("rank_hpl", "rank_hpcg"),
    rows=(
        (1, 4),
        (2, 2),
        (4, 7),
        (5, 6),
        (6, 5),
        (7, 3),
        (8, 1),
        (9, 10),
        (10, 8),
    ),
)

# (1 - alpha) under HPL vs under HPCG for the same nine machines, in the
# order of the rank pairs. Checked by test_ingest.py's
# test_alpha_pairs_reference_agrees_with_bundle.
ALPHA_PAIRS_2017 = ReferenceTable(
    tag="alpha-pairs-hpl-hpcg-2017-06",
    columns=("one_minus_alpha_hpl", "one_minus_alpha_hpcg"),
    rows=(
        (3.273e-8, 3.121e-5),
        (1.991e-7, 2.882e-5),
        (9.656e-7, 1.469e-4),
        (1.096e-7, 3.910e-5),
        (1.590e-6, 1.220e-4),
        (1.507e-6, 6.092e-5),
        (1.040e-7, 2.534e-5),
        (2.191e-7, 7.353e-5),
        (1.221e-6, 2.043e-4),
    ),
)

# Per-processor HPL performance by rank, November 2016 list, split by
# processor class as published: A = many-core accelerator chips,
# N = plain CPUs, G = GPU-accelerated. Ranks 1-10 are checked by test_ingest.py's
# test_per_processor_reference_agrees_with_bundle.
PER_PROCESSOR_PERF_2016 = ReferenceTable(
    tag="per-processor-gflops-by-rank-2016-11",
    columns=("processor_class", "rank", "gflops"),
    rows=(
        ("A", 2, 9.37), ("A", 42, 9.25), ("A", 50, 9.37),
        ("N", 1, 11.78), ("N", 5, 12.8), ("N", 6, 44.8), ("N", 7, 44.8),
        ("N", 8, 16.1), ("N", 9, 12.8), ("N", 10, 36.8), ("N", 11, 33.6),
        ("N", 12, 52.9), ("N", 13, 66.96), ("N", 14, 44.8), ("N", 15, 29.5),
        ("N", 16, 41.6), ("N", 17, 40.0), ("N", 18, 36.8), ("N", 19, 30.4),
        ("N", 20, 18.4), ("N", 21, 12.8), ("N", 22, 36.8), ("N", 23, 12.8),
        ("N", 24, 36.8), ("N", 25, 33.6), ("N", 26, 33.6), ("N", 29, 26.8),
        ("N", 31, 31.6), ("N", 32, 21.6), ("N", 34, 35.2), ("N", 35, 21.6),
        ("N", 36, 41.6), ("N", 37, 33.6), ("N", 38, 33.6), ("N", 41, 35.4),
        ("N", 43, 36.8), ("N", 44, 41.6), ("N", 45, 41.6), ("N", 46, 31.6),
        ("N", 47, 40.0), ("N", 48, 35.2),
        ("G", 3, 70.0), ("G", 5, 48.4), ("G", 27, 84.2), ("G", 28, 84.2),
        ("G", 30, 83.9), ("G", 33, 36.7), ("G", 39, 79.4), ("G", 40, 25.2),
        ("G", 49, 69.4),
    ),
)

# HPL efficiency by processor family, June 2017. Rows whose core count is in
# the CSV are checked by test_family_efficiency_reference_agrees_with_bundle.
EFFICIENCY_BY_FAMILY_2017 = ReferenceTable(
    tag="efficiency-by-family-2017-06",
    columns=("family", "cores", "efficiency"),
    rows=(
        ("Sunway", 12288000, 0.742),
        ("PEZY", 2462640, 0.679),
        ("Spark", 705024, 0.932),
        ("PowerPC", 1572864, 0.853),
        ("Intel", 979968, 0.322),
        ("Intel", 622336, 0.503),
        ("Intel", 556104, 0.544),
        ("Intel+NVIDIA", 361760, 0.774),
        ("Intel+NVIDIA", 560640, 0.649),
        ("Intel+NVIDIA", 62400, 0.583),
        ("Intel+NVIDIA", 72000, 0.692),
        ("Intel+NVIDIA", 27056, 0.557),
        ("Intel+NVIDIA", 74520, 0.496),
        ("Intel+NVIDIA", 186368, 0.546),
        ("Intel+NVIDIA", 42688, 0.710),
        ("Intel+Intel", 3120000, 0.617),
        ("Intel+Intel", 194616, 0.749),
    ),
)

# Achieved vs peak rate of the November 2017 top ten, in Eflop/s. Checked by
# test_ingest.py's test_rmax_vs_rpeak_reference_agrees_with_bundle.
RMAX_VS_RPEAK_2017 = ReferenceTable(
    tag="rmax-vs-rpeak-2017-11",
    columns=("name", "rpeak_eflops", "rmax_eflops"),
    rows=(
        ("Sunway TaihuLight", 0.1254, 0.09301),
        ("Tianhe-2", 0.0549, 0.033863),
        ("Piz Daint", 0.0253, 0.01960),
        ("Gyoukou", 0.0282, 0.01914),
        ("Titan", 0.0271, 0.01759),
        ("Sequoia", 0.0201, 0.01711),
        ("Trinity", 0.0439, 0.01414),
        ("Cori", 0.0279, 0.01401),
        ("Oakforest-PACS", 0.0249, 0.01355),
        ("K computer", 0.0113, 0.01051),
    ),
)

REFERENCE_TABLES: dict[str, ReferenceTable] = {t.tag: t for t in (
    TREND_BEST_ONE_MINUS_ALPHA,
    TOP50_HPL_2017,
    TOP10_HPCG_2017,
    EFFICIENCY_TOP10_2017,
    ARCHITECTURE_2000,
    ARCHITECTURE_2016,
    RANK_PAIRS_2017,
    ALPHA_PAIRS_2017,
    PER_PROCESSOR_PERF_2016,
    EFFICIENCY_BY_FAMILY_2017,
    RMAX_VS_RPEAK_2017,
)}


def reference_table(tag: str) -> ReferenceTable:
    """Look up a bundled table by its content tag."""
    try:
        return REFERENCE_TABLES[tag]
    except KeyError:
        raise KeyError(
            f"no table tagged {tag!r}; available: {sorted(REFERENCE_TABLES)}"
        ) from None


def available_tags() -> tuple[str, ...]:
    return tuple(sorted(REFERENCE_TABLES))
