"""CSV ingest, record validation, bundled dataset, reference tables."""
from __future__ import annotations

import math
import warnings

import pytest

from parlimits import (
    AmdahlPoint,
    MachineRecord,
    RecordSet,
    SchemaError,
    available_tags,
    bundled_dataset,
    csv_text,
    derive_points,
    efficiency,
    load_csv,
    parse_csv,
    reference_table,
    write_csv,
)


def record(**overrides) -> MachineRecord:
    base = dict(name="Testbox", year=2017, rank=1, benchmark="HPL",
                rmax_gflops=900.0, rpeak_gflops=1000.0, cores=1024,
                architecture="Cluster", accelerator="None")
    base.update(overrides)
    return MachineRecord(**base)


# ---- record validation --------------------------------------------------------

def test_record_derived_quantities():
    r = record()
    assert r.efficiency == 0.9
    assert r.per_processor_gflops == pytest.approx(1000.0 / 1024, rel=1e-12)


@pytest.mark.parametrize("overrides", [
    {"name": ""},
    {"name": "   "},
    {"year": 1949},
    {"year": 2017.5},
    {"rank": 0},
    {"benchmark": "LINPACK"},
    {"architecture": "Grid"},
    {"accelerator": "FPGA"},
    {"rmax_gflops": 0.0},
    {"rmax_gflops": -5.0},
    {"rpeak_gflops": 0.0},
    {"rmax_gflops": 1001.0},
    {"cores": 0},
    {"cores": 10.5},
    {"rpeak_gflops": math.inf},
    {"rmax_gflops": math.inf, "rpeak_gflops": math.inf},
])
def test_record_rejects_bad_fields(overrides):
    with pytest.raises((ValueError, TypeError)):
        record(**overrides)


def test_record_tolerates_hairline_efficiency_overshoot():
    r = record(rmax_gflops=1000.0 * (1.0 + 0.5e-9))
    assert r.efficiency > 1.0
    with pytest.raises(ValueError):
        record(rmax_gflops=1000.0 * (1.0 + 1e-8))


# ---- CSV parsing ----------------------------------------------------------------

HEADER = ("name,year,rank,benchmark,rmax_gflops,rpeak_gflops,"
          "cores,architecture,accelerator")
GOOD_ROW = "Testbox,2017,1,HPL,900.0,1000.0,1024,Cluster,None"


def test_parse_csv_round_trips_a_good_row():
    rs = parse_csv(HEADER + "\n" + GOOD_ROW + "\n", source="unit")
    assert len(rs.records) == 1
    assert rs.rejections == ()
    assert rs.provenance.source == "unit"
    assert rs.records[0] == record()


def test_parse_csv_quarantines_bad_rows_and_keeps_good_ones():
    bad = "Badbox,2017,2,HPL,not-a-number,1000.0,64,MPP,None"
    text = "\n".join([HEADER, GOOD_ROW, bad,
                      "Okbox,2017,3,HPL,10.0,20.0,64,MPP,GPU"]) + "\n"
    rs = parse_csv(text, source="unit")
    assert [r.name for r in rs.records] == ["Testbox", "Okbox"]
    assert len(rs.rejections) == 1
    rej = rs.rejections[0]
    assert rej.row_number == 3  # header is row 1
    assert "not-a-number" in rej.reason or "rmax" in rej.reason
    assert rej.raw["name"] == "Badbox"


def test_parse_csv_quarantines_duplicate_identity():
    dup = GOOD_ROW.replace("Testbox", "Clone")
    rs = parse_csv("\n".join([HEADER, GOOD_ROW, dup]) + "\n", source="unit")
    assert [r.name for r in rs.records] == ["Testbox"]
    assert len(rs.rejections) == 1
    assert "duplicate" in rs.rejections[0].reason.lower()


def test_parse_csv_missing_columns_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_csv("name,year,rank\nX,2017,1\n", source="unit")
    assert "benchmark" in str(err.value)


def test_parse_csv_empty_text_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_csv("", source="unit")


def test_parse_csv_applies_column_aliases():
    text = ("system,year,rank,benchmark,rmax_gflops,rpeak_gflops,"
            "cores,architecture,accelerator\n" + GOOD_ROW + "\n")
    rs = parse_csv(text, source="unit", aliases={"name": "system"})
    assert rs.records[0].name == "Testbox"


def test_two_columns_aliased_to_one_source_is_a_schema_error():
    text = HEADER + "\n" + GOOD_ROW + "\n"
    with pytest.raises(SchemaError) as err:
        parse_csv(text, source="unit", aliases={"rank": "year"})
    assert "year" in str(err.value)


def test_duplicate_identity_rejected_at_recordset_level():
    a, b = record(), record(name="Clone")
    with pytest.raises(ValueError):
        RecordSet(records=(a, b), provenance=parse_csv(
            HEADER + "\n" + GOOD_ROW + "\n", source="unit").provenance)


def test_benchmark_view_sorts_by_rank():
    rows = [GOOD_ROW,
            "Second,2017,3,HPL,5.0,10.0,8,MPP,None",
            "Third,2017,2,HPL,6.0,12.0,8,MPP,None"]
    rs = parse_csv(HEADER + "\n" + "\n".join(rows) + "\n", source="unit")
    assert [r.rank for r in rs.benchmark("HPL")] == [1, 2, 3]
    assert rs.benchmark("HPCG") == ()


# ---- round-trip fidelity ----------------------------------------------------------

def test_write_then_parse_is_bit_identical(tmp_path):
    gnarly = record(name="Gnarly", rank=77, rmax_gflops=0.1 + 0.2,
                    rpeak_gflops=1.0 / 3.0 + 1.0)
    records = list(bundled_dataset().records) + [gnarly]
    path = tmp_path / "out.csv"
    write_csv(records, str(path))
    back = load_csv(str(path))
    assert list(back.records) == records
    assert csv_text(records) == path.read_text(encoding="utf-8")


# ---- scaling-point derivation ------------------------------------------------------

def test_derive_points_skips_single_core_records_with_warning():
    solo = record(name="Solo", cores=1, rank=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pts = derive_points([record(), solo])
    assert [r.name for r, _ in pts] == ["Testbox"]
    assert any("Solo" in str(w.message) for w in caught)


def test_derive_points_handles_perfect_efficiency():
    perfect = record(rmax_gflops=1000.0)
    (_, pt), = derive_points([perfect])
    assert pt.alpha_eff.alpha == 1.0
    assert pt.amplification == math.inf


def test_derive_points_match_record_efficiency():
    for rec, pt in derive_points(bundled_dataset().records):
        assert isinstance(pt, AmdahlPoint)
        assert pt.k == rec.cores
        assert pt.efficiency == pytest.approx(rec.efficiency, rel=1e-12)


def test_high_efficiency_machine_amplification_from_bundle():
    rs = bundled_dataset()
    (k_rec,) = [r for r in rs.benchmark("HPL") if r.name == "K computer"]
    (_, pt), = derive_points([k_rec])
    assert pt.amplification == pytest.approx(9618109.72222223, rel=1e-9)
    assert pt.amplification == pytest.approx(0.961e7, rel=0.01)


# ---- bundled dataset ---------------------------------------------------------------

def test_bundle_shape():
    rs = bundled_dataset()
    assert len(rs.records) == 20
    assert rs.rejections == ()
    assert rs.provenance.source == "packaged:top500_2017.csv"
    for bench in ("HPL", "HPCG"):
        ranked = rs.benchmark(bench)
        assert [r.rank for r in ranked] == list(range(1, 11))


def test_bundle_agrees_with_reference_efficiencies_within_3_percent():
    rs = bundled_dataset()
    eff = reference_table("efficiency-top10-2017-06")
    hpl_by_cores = {r.cores: r for r in rs.benchmark("HPL")}
    hpcg_by_cores = {r.cores: r for r in rs.benchmark("HPCG")}
    assert len(eff) == 10
    for cores, e_hpl, e_hpcg in eff:
        assert hpl_by_cores[cores].efficiency == pytest.approx(e_hpl, rel=0.03)
        assert hpcg_by_cores[cores].efficiency == pytest.approx(e_hpcg, rel=0.03)


def test_bundle_agrees_with_reference_alpha_distances_within_3_percent():
    rs = bundled_dataset()
    points = {rec.cores: pt for rec, pt in derive_points(rs.benchmark("HPL"))}
    top50 = reference_table("top50-hpl-2017-06")
    for rank, cores, oma in list(top50)[:10]:
        assert points[cores].alpha_eff.one_minus_alpha == \
            pytest.approx(oma, rel=0.03)
    points_hpcg = {rec.cores: pt for rec, pt in
                   derive_points(rs.benchmark("HPCG"))}
    for _, cores, oma in reference_table("top10-hpcg-2017-06"):
        assert points_hpcg[cores].alpha_eff.one_minus_alpha == \
            pytest.approx(oma, rel=0.03)


# ---- reference tables ---------------------------------------------------------------

EXPECTED_COUNTS = {
    "trend-best-one-minus-alpha-1993-2017": 3,
    "top50-hpl-2017-06": 50,
    "top10-hpcg-2017-06": 10,
    "efficiency-top10-2017-06": 10,
    "one-minus-alpha-by-architecture-2000-11": 49,
    "one-minus-alpha-by-architecture-2016-11": 49,
    "rank-pairs-hpl-hpcg-2017-06": 9,
    "alpha-pairs-hpl-hpcg-2017-06": 9,
    "per-processor-gflops-by-rank-2016-11": 50,
    "amplification-by-rank-2016-11": 50,
    "amplification-by-family-2017-06": 17,
    "efficiency-by-family-2017-06": 17,
    "rmax-vs-rpeak-2017-11": 10,
    "scaling-overlay-2017-11": 4,
}


def test_all_reference_tables_present_with_expected_sizes():
    assert set(available_tags()) == set(EXPECTED_COUNTS)
    for tag, count in EXPECTED_COUNTS.items():
        assert len(reference_table(tag)) == count


def test_architecture_mix_shifted_between_2000_and_2016():
    t2000 = reference_table("one-minus-alpha-by-architecture-2000-11")
    t2016 = reference_table("one-minus-alpha-by-architecture-2016-11")
    assert len(t2000.rows_where(architecture="MPP")) == 46
    assert len(t2000.rows_where(architecture="Cluster")) == 3
    assert len(t2016.rows_where(architecture="MPP")) == 22
    assert len(t2016.rows_where(architecture="Cluster")) == 27


def test_table_column_access():
    t = reference_table("top50-hpl-2017-06")
    ranks = t.column("rank")
    assert ranks[0] == 1 and len(ranks) == 50
    with pytest.raises(KeyError):
        t.column("nope")


def test_unknown_tag_lists_alternatives():
    with pytest.raises(KeyError) as err:
        reference_table("no-such-table")
    assert "top50-hpl-2017-06" in str(err.value)


def test_reference_alpha_values_reproduce_reported_efficiencies():
    # the flagship row: 0.742 efficiency at 10.6M cores
    top50 = reference_table("top50-hpl-2017-06")
    rank, cores, oma = list(top50)[0]
    assert rank == 1 and cores == 10_649_600
    assert efficiency(1.0 - oma, cores) == pytest.approx(0.742, rel=1e-3)
