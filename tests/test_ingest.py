"""CSV ingest, record validation, bundled dataset, reference tables."""
from __future__ import annotations

import ast
import copy
import csv
import dataclasses
import hashlib
import io
import math
import pickle
import sys
import warnings
from pathlib import Path

import pytest

from parlimits import (
    AlphaValue,
    AmdahlPoint,
    MachineRecord,
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
from parlimits.ingest import CANONICAL_COLUMNS, bundled_csv_text

GOLDEN = Path(__file__).parent / "golden"
REPO = Path(__file__).parent.parent


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
    # No scaling point: the efficiency underflows or is subnormal, or the
    # core count is beyond the float range.
    {"rmax_gflops": 1e-300, "rpeak_gflops": 1e300},
    {"rmax_gflops": 1e-10, "rpeak_gflops": 1e300},
    {"cores": 10**400},
    {"rank": 10**400},
])
def test_record_rejects_bad_fields(overrides):
    with pytest.raises((ValueError, TypeError)):
        record(**overrides)


def test_record_admits_extremes_that_have_a_scaling_point():
    record(rmax_gflops=sys.float_info.min, rpeak_gflops=1.0)
    record(cores=int(sys.float_info.max))


def test_record_tolerates_hairline_efficiency_overshoot():
    r = record(rmax_gflops=1000.0 * (1.0 + 0.5e-9))
    assert r.efficiency > 1.0
    with pytest.raises(ValueError):
        record(rmax_gflops=1000.0 * (1.0 + 1e-8))


# ---- each record type has one constructor ----------------------------------------

# (a valid instance, a field change its constructor refuses, the message)
RECORD_TYPES = [
    (record(), {"rmax_gflops": 2000.0}, "rmax 2000.0 exceeds rpeak 1000.0"),
    (AmdahlPoint(1024, 0.9), {"efficiency": 2.0},
     "efficiency 2.0 exceeds 1; no alpha reproduces it"),
]


@pytest.mark.parametrize("obj, change, message", RECORD_TYPES,
                         ids=["MachineRecord", "AmdahlPoint"])
def test_replace_runs_the_constructors_checks(obj, change, message):
    assert dataclasses.replace(obj) == obj
    with pytest.raises(ValueError) as err:
        dataclasses.replace(obj, **change)
    assert str(err.value) == message


@pytest.mark.parametrize("obj", [t[0] for t in RECORD_TYPES],
                         ids=["MachineRecord", "AmdahlPoint"])
def test_copies_keep_equality_and_hash(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert twin == obj and hash(twin) == hash(obj) and repr(twin) == repr(obj)


@pytest.mark.parametrize("obj", [t[0] for t in RECORD_TYPES],
                         ids=["MachineRecord", "AmdahlPoint"])
def test_constructor_takes_keywords_and_match_takes_positions(obj):
    cls = type(obj)
    values = {f: getattr(obj, f) for f in cls.__match_args__}
    assert cls(**values) == obj
    match obj:
        case cls(first, second):
            assert (first, second) == tuple(values.values())[:2]
        case _:
            pytest.fail("no match on __match_args__")


@pytest.mark.parametrize("obj", [t[0] for t in RECORD_TYPES],
                         ids=["MachineRecord", "AmdahlPoint"])
def test_fields_cannot_be_set(obj):
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


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


def test_parses_of_the_same_text_compare_equal():
    text = HEADER + "\n" + GOOD_ROW + "\nBadbox,2017,2,HPL,oops,1.0,64,MPP,None\n"
    assert parse_csv(text, source="unit") == parse_csv(text, source="unit")
    assert bundled_dataset() == bundled_dataset()


def test_line_endings_give_the_same_rows():
    text = bundled_csv_text()
    parsed = [parse_csv(text.replace("\n", end), source="unit") for end in ("\n", "\r\n", "\r")]
    assert parsed[0].records == parsed[1].records == parsed[2].records
    assert len(parsed[0].records) == 20 and not any(p.rejections for p in parsed)


def test_parse_csv_digest_is_of_the_parsed_text():
    text = HEADER + "\r\n" + GOOD_ROW + "\r\n"
    rs = parse_csv(text, source="unit")
    assert rs.provenance.sha256 == hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_parse(text):
    """The csv.DictReader reader that parse_csv replaced, as (records,
    rejections as (row number, reason, raw) triples), or None where the
    header lacks a column. It reads with newline="", as the csv docs ask."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if not set(CANONICAL_COLUMNS) <= set(reader.fieldnames or ()):
        return None

    def parse_row(raw):
        def cell(column):
            value = raw.get(column)
            if value is None:
                raise ValueError(f"row is short a value for {column!r}")
            return value.strip()

        def as_int(column):
            text = cell(column)
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"{column}: {text!r} is not an integer") from None

        def as_float(column):
            text = cell(column)
            try:
                return float(text)
            except ValueError:
                raise ValueError(f"{column}: {text!r} is not a number") from None

        return MachineRecord(
            name=cell("name"), year=as_int("year"), rank=as_int("rank"),
            benchmark=cell("benchmark"), rmax_gflops=as_float("rmax_gflops"),
            rpeak_gflops=as_float("rpeak_gflops"), cores=as_int("cores"),
            architecture=cell("architecture"), accelerator=cell("accelerator"))

    records, rejections, seen = [], [], set()
    for row_number, raw in enumerate(reader, start=2):
        try:
            rec = parse_row(raw)
            key = (rec.year, rec.benchmark, rec.rank)
            if key in seen:
                raise ValueError(
                    f"duplicate rank {rec.rank} for year {rec.year} {rec.benchmark}")
            seen.add(key)
        except ValueError as exc:
            rejections.append((row_number, str(exc), dict(raw)))
            continue
        records.append(rec)
    return records, rejections


EDGE_TEXTS = {
    "golden-edge": (GOLDEN / "edge_records.csv").read_text(encoding="utf-8"),
    # A repeated canonical column: the last one wins, and a row too short
    # to reach it is short even though the first copy is present.
    "repeated-column": (
        "cores,name,year,rank,benchmark,rmax_gflops,rpeak_gflops,architecture,"
        "accelerator,cores\n"
        "1,A,2017,1,HPL,9.0,10.0,MPP,None,64\n"
        "64,B,2017,2,HPL,9.0,10.0,MPP,None\n"
        "64,C,2017,3,HPL,9.0,10.0,MPP,None,64,spare\n"),
    # Short rows whose earlier cells are bad: the first bad cell wins.
    "short-and-bad": (
        HEADER + "\n"
        "A,20x7,1,HPL\n"
        "B,2017,2,HPL,9.0,ten\n"
        "C,2017,3\n"
        "\n\n"
        " D ,\x1c2017\x1c, 4 ,HPL,\t9.0 ,10.0,64, MPP,None\n"
        "   \n"
        ",,,,,,,,\n"
        "E,2017,5,HPL,nan,10.0,64,MPP,None,\n"),
    "crlf-and-quotes": (
        HEADER + "\r\n"
        '"Multi\r\nline, ""quoted""",2017,1,HPL,9.0,10.0,64,MPP,None\r\n'
        "\u00dcber,2017,2,HPCG,1.0,10.0,64,Cluster,GPU\r\n"),
    "cr-only": HEADER + "\r" + GOOD_ROW + "\rB,2017,2,HPL,oops,10.0,64,MPP,None\r",
    # A lone CR in an unquoted cell ends the row there; the rest is the next row.
    "lone-cr": (
        HEADER + "\n"
        "Sun\rway,2017,1,HPL,9.0,10.0,64,MPP,None\n"
        '"Quoted\rcell",2017,2,HPL,9.0,10.0,64,MPP,None\n'),
    "header-only": HEADER + "\n",
    "blank-header": "\n" + HEADER + "\n" + GOOD_ROW + "\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_TEXTS))
def test_parse_csv_matches_dictreader_reference(name):
    text = EDGE_TEXTS[name]
    want = _reference_parse(text)
    if want is None:
        with pytest.raises(SchemaError):
            parse_csv(text, source="unit")
        return
    rs = parse_csv(text, source="unit")
    assert (list(rs.records), [(r.row_number, r.reason, r.raw) for r in rs.rejections]) == want


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
    "efficiency-by-family-2017-06": 17,
    "rmax-vs-rpeak-2017-11": 10,
}


def test_all_reference_tables_present_with_expected_sizes():
    assert set(available_tags()) == set(EXPECTED_COUNTS)
    for tag, count in EXPECTED_COUNTS.items():
        assert len(reference_table(tag)) == count


def test_every_reference_table_is_read_by_a_check():
    # A tag that only EXPECTED_COUNTS names is a table no test checks.
    read = set()
    for path in [*REPO.joinpath("tests").glob("*.py"), *REPO.joinpath("demos").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        tree.body = [node for node in tree.body if not (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "EXPECTED_COUNTS" for t in node.targets))]
        read.update(node.value for node in ast.walk(tree) if isinstance(node, ast.Constant))
    assert sorted(set(available_tags()) - read) == []


def test_architecture_mix_shifted_between_2000_and_2016():
    mix2000 = [arch for arch, _, _ in reference_table("one-minus-alpha-by-architecture-2000-11")]
    mix2016 = [arch for arch, _, _ in reference_table("one-minus-alpha-by-architecture-2016-11")]
    assert (mix2000.count("MPP"), mix2000.count("Cluster")) == (46, 3)
    assert (mix2016.count("MPP"), mix2016.count("Cluster")) == (22, 27)


def test_per_processor_reference_agrees_with_bundle():
    hpl = {r.rank: r for r in bundled_dataset().benchmark("HPL")}
    top10 = [row for row in reference_table("per-processor-gflops-by-rank-2016-11")
             if row[1] <= 10]
    assert len(top10) == 10
    for cls, rank, gflops in top10:
        if (cls, rank) == ("A", 2):
            # Tianhe-2 reads 9.37 against the CSV's rpeak / cores of 17.60.
            assert hpl[2].per_processor_gflops / gflops == pytest.approx(1.878, rel=1e-3)
        elif (cls, rank) == ("G", 5):
            # Titan's 48.36, and Titan is rank 4; rank 5 is Sequoia.
            assert (hpl[4].name, hpl[5].name) == ("Titan", "Sequoia")
            assert hpl[4].per_processor_gflops == pytest.approx(gflops, rel=0.01)
        else:
            assert hpl[rank].per_processor_gflops == pytest.approx(gflops, rel=0.01)


def test_family_efficiency_reference_agrees_with_bundle():
    hpl_by_cores = {r.cores: r for r in bundled_dataset().benchmark("HPL")}
    checked = 0
    for family, cores, e in reference_table("efficiency-by-family-2017-06"):
        if family == "Sunway":
            # Listed with 12,288,000 cores where the CSV has 10,649,600; the
            # efficiency is the CSV's 0.7415 at printed digits.
            assert (cores, hpl_by_cores[10_649_600].name) == (12_288_000, "Sunway TaihuLight")
            assert round(hpl_by_cores[10_649_600].efficiency, 3) == e
        elif cores in hpl_by_cores:
            assert hpl_by_cores[cores].efficiency == pytest.approx(e, abs=0.0005)
            checked += 1
    assert checked == 7


def test_rmax_vs_rpeak_reference_agrees_with_bundle():
    hpl = {r.name: r for r in bundled_dataset().benchmark("HPL")}
    table = {name: (rpeak, rmax) for name, rpeak, rmax in reference_table("rmax-vs-rpeak-2017-11")}
    # The November 2017 list differs from the June 2017 CSV in three rows.
    assert "Gyoukou" not in hpl  # new on the later list
    rpeak, _ = table.pop("Trinity")  # upgraded between the two lists
    assert (rpeak, round(hpl["Trinity"].rpeak_gflops / 1e9, 4)) == (0.0439, 0.0111)
    rpeak, rmax = table.pop("Sequoia")
    assert (rmax, round(hpl["Sequoia"].rmax_gflops / 1e9, 5)) == (0.01711, 0.01717)
    assert hpl["Sequoia"].rpeak_gflops / 1e9 == pytest.approx(rpeak, rel=0.005)
    del table["Gyoukou"]
    assert len(table) == 7
    for name, (rpeak, rmax) in table.items():
        assert hpl[name].rpeak_gflops / 1e9 == pytest.approx(rpeak, rel=0.005)
        assert hpl[name].rmax_gflops / 1e9 == pytest.approx(rmax, rel=0.005)


def test_alpha_pairs_reference_agrees_with_bundle():
    # Row i is the machine at the HPL rank of rank-pairs row i.
    rs = bundled_dataset()
    hpl_names = {rec.rank: rec.name for rec in rs.benchmark("HPL")}
    hpcg = {rec.name: pt for rec, pt in derive_points(rs.benchmark("HPCG"))}
    top50 = {rank: oma for rank, _, oma in reference_table("top50-hpl-2017-06")}
    # Four rows imply another HPCG rmax than the CSV's. Each carries the
    # table's HPCG 1 - alpha over the CSV's, and the implied rmax against
    # the CSV's; Sunway's 376 is the rmax the old scaling overlay printed.
    exceptions = {
        "Oakforest-PACS": 0.53,  # 714 Tflop/s against 385
        "Sunway TaihuLight": 1.28,  # 376 Tflop/s against 481
        "Tianhe-2": 0.96,  # 604 Tflop/s against 580
        "Trinity": 1.03,  # 177 Tflop/s against 183
    }
    pairs = reference_table("alpha-pairs-hpl-hpcg-2017-06")
    ranks = reference_table("rank-pairs-hpl-hpcg-2017-06")
    assert len(pairs) == len(ranks) == 9
    for (rank_hpl, _), (oma_hpl, oma_hpcg) in zip(ranks, pairs):
        assert oma_hpl == top50[rank_hpl]
        name = hpl_names[rank_hpl]
        factor = oma_hpcg / hpcg[name].alpha_eff.one_minus_alpha
        if name in exceptions:
            assert factor == pytest.approx(exceptions.pop(name), rel=0.005), name
        else:
            assert factor == pytest.approx(1.0, rel=0.03), name
    assert exceptions == {}


def test_unknown_tag_lists_alternatives():
    with pytest.raises(KeyError) as err:
        reference_table("no-such-table")
    assert "top50-hpl-2017-06" in str(err.value)


def test_reference_alpha_values_reproduce_reported_efficiencies():
    # the flagship row: 0.742 efficiency at 10.6M cores
    top50 = reference_table("top50-hpl-2017-06")
    rank, cores, oma = list(top50)[0]
    assert rank == 1 and cores == 10_649_600
    assert efficiency(AlphaValue(oma), cores) == pytest.approx(0.742, rel=1e-3)
