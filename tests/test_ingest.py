import collections
import csv
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrse import (
    AllExcluded,
    CleanedSample,
    DegenerateRange,
    DistrictRecord,
    HistogramSpec,
    ParseError,
    ZeroDenominator,
    build_histogram,
    clean,
    compute_returns,
    fiscal_summary,
    read_records,
)
from qrse import ingest
from qrse.ingest import fd_bin_count
from tests.conftest import CSV_HEADER


def record(**overrides) -> DistrictRecord:
    base = dict(
        district_id="d-1",
        year=2005,
        total_local_education_expenditures=24.0,
        total_local_taxes_and_charges=3.0,
        enrollment=2.0,
        population=6.0,
    )
    base.update(overrides)
    return DistrictRecord(**base)


class TestReadRecords:
    def test_reads_and_filters_years(self, district_csv):
        records, skipped = read_records(district_csv, (2000, 2016))
        assert len(records) == 9
        assert skipped == 1
        assert records[0].district_id == "d-001"
        assert records[0].year == 2005
        assert records[0].total_local_education_expenditures == 24.0

    def test_missing_field_becomes_nan(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        by_id = {r.district_id: r for r in records}
        assert np.isnan(by_id["d-005"].total_local_education_expenditures)

    def test_year_window_single_year(self, district_csv):
        records, skipped = read_records(district_csv, (2010, 2010))
        assert {r.year for r in records} == {2010}
        assert skipped == 4

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_records(path, (2000, 2016))

    def test_rejects_non_numeric_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            CSV_HEADER + "\nd-1,2005,abc,3.0,2,6\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="line 2"):
            read_records(path, (2000, 2016))

    def test_rejects_bad_year(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            CSV_HEADER + "\nd-1,20x5,24.0,3.0,2,6\n", encoding="utf-8"
        )
        with pytest.raises(ParseError):
            read_records(path, (2000, 2016))

    def test_accepts_utf8_byte_order_mark(self, district_csv, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a BOM.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + district_csv.read_bytes())
        records, skipped = read_records(path, (2000, 2016))
        expected, expected_skipped = read_records(district_csv, (2000, 2016))
        assert repr(list(records)) == repr(list(expected))
        assert skipped == expected_skipped

    def test_oversized_field_is_a_parse_error(self, tmp_path):
        path = tmp_path / "big.csv"
        big = "9" * (csv.field_size_limit() + 1)
        path.write_text(
            f"{CSV_HEADER}\nd-1,2005,24.0,3.0,2,6\nd-2,2005,{big},3.0,2,6\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="^line 3: field larger than field limit"):
            read_records(path, (2000, 2016))

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        # Far enough in that the text reader's block decode fails lines early.
        rows = [f"d-{i},2005,24.0,3.0,2,6" for i in range(400)]
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            "\n".join([CSV_HEADER, *rows[:300], "caf\xe9,2005,24.0,3.0,2,6", *rows[300:]])
            .encode("latin-1")
        )
        with pytest.raises(ParseError, match="^line 302: not valid UTF-8"):
            read_records(path, (2000, 2016))

    @pytest.mark.parametrize("field, message", [
        (b"abc", "column 'total_local_education_expenditures' is not numeric"),
        (b"caf\xe9", "not valid UTF-8"),
        (b"9" * (csv.field_size_limit() + 1), "field larger than field limit"),
    ])
    def test_errors_name_the_physical_line(self, tmp_path, field, message):
        # Record 3 starts on line 3 with a quoted id holding a newline and
        # ends on line 4, where every kind of error must point.
        path = tmp_path / "multiline.csv"
        path.write_bytes(
            CSV_HEADER.encode() + b"\nd-1,2005,24.0,3.0,2,6\n"
            + b'"d\n2",2005,' + field + b",3.0,2,6\nd-3,2005,24.0,3.0,2,6\n"
        )
        with pytest.raises(ParseError, match=f"^line 4: {message}"):
            read_records(path, (2000, 2016))

    def test_carriage_return_ends_a_line(self, tmp_path):
        # The csv reader ends a line at a bare carriage return, so this
        # file's line 2 holds one field, not six.
        path = tmp_path / "cr.csv"
        path.write_bytes(CSV_HEADER.encode() + b"\nd-1\rd-2,2005,24.0,3.0,2,6\n")
        with pytest.raises(ParseError, match="^line 2: expected 6 fields, got 1$"):
            read_records(path, (2000, 2016))

    def test_returns_a_read_only_sequence(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        rows = list(records)
        assert len(records) == len(rows) == 9
        assert records[-1] == rows[-1] == records[8]
        assert records[-9].district_id == "d-001"
        with pytest.raises(IndexError):
            records[9]
        with pytest.raises(IndexError):
            records[-10]
        tail = records[5:]
        assert type(tail) is type(records)
        assert list(tail) == rows[5:]
        assert repr(list(records[::-2])) == repr(rows[::-2])
        assert len(records[9:]) == 0
        with pytest.raises(ValueError):
            records.fields[0, 0] = 1.0
        with pytest.raises(ValueError):
            tail.fields[0, 0] = 1.0


class TestComputeReturns:
    def test_hand_value(self):
        # kappa = 24/2 = 12, tau = 3/6 = 0.5, x = 11.5
        assert compute_returns(record()) == 11.5

    def test_zero_enrollment(self):
        with pytest.raises(ZeroDenominator):
            compute_returns(record(enrollment=0.0))

    def test_zero_population(self):
        with pytest.raises(ZeroDenominator):
            compute_returns(record(population=0.0))


class TestClean:
    def test_exclusion_counts(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        cleaned = clean(records)
        # 9 in-window records: 4 clean, 3 missing-ish, 2 extreme.
        assert cleaned.values.size == 4
        assert cleaned.excluded_missing == 3
        assert cleaned.excluded_extreme == 2
        assert sorted(cleaned.values.tolist()) == [8.5, 11.5, 13.5, 16.0]

    def test_summary_statistics(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        cleaned = clean(records)
        xs = np.array([11.5, 13.5, 8.5, 16.0])
        assert cleaned.x_mean == pytest.approx(xs.mean())
        assert cleaned.x_sd == pytest.approx(xs.std(ddof=1))
        assert cleaned.x_min == 8.5
        assert cleaned.x_max == 16.0

    def test_bounds_inclusive(self):
        records = [
            record(total_local_education_expenditures=240.0, enrollment=2.0,
                   total_local_taxes_and_charges=0.0),  # x = 120 exactly
            record(total_local_education_expenditures=0.0,
                   total_local_taxes_and_charges=300.0, population=6.0),  # x = -50
        ]
        cleaned = clean(records)
        assert sorted(cleaned.values.tolist()) == [-50.0, 120.0]
        assert cleaned.excluded_extreme == 0

    def test_all_excluded(self):
        with pytest.raises(AllExcluded):
            clean([record(enrollment=0.0)])
        with pytest.raises(AllExcluded):
            clean([])

    def test_huge_cancelling_values_do_not_overflow(self):
        # kappa = tau = k * 1e300, so x = 0; the squared deviations of kappa
        # overflow float64 unless the sd is computed on a rescaled copy.
        records = [
            record(total_local_education_expenditures=float(k),
                   total_local_taxes_and_charges=float(k),
                   enrollment=1e-300, population=1e-300)
            for k in (1, 2, 3)
        ]
        fiscal = clean(records).fiscal
        assert fiscal["x"] == (0.0, 0.0, 0.0, 0.0)
        assert fiscal["kappa"][1] == 1e300
        assert fiscal["kappa"][0] == pytest.approx(2e300)
        assert fiscal["tau"] == fiscal["kappa"]
        # Near the top of the float64 range the plain sum overflows too.
        records = [
            record(total_local_education_expenditures=v, total_local_taxes_and_charges=v,
                   enrollment=1.0, population=1.0)
            for v in (1e308, 1.7e308)
        ]
        mean, sd, _, _ = clean(records).fiscal["kappa"]
        assert mean == pytest.approx(1.35e308)
        assert sd == pytest.approx(0.7e308 / math.sqrt(2.0))

    def test_single_record_sd_zero(self):
        cleaned = clean([record()])
        assert cleaned.x_sd == 0.0

    def test_json_round_trip(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        cleaned = clean(records)
        restored = CleanedSample.from_json(cleaned.to_json())
        np.testing.assert_array_equal(restored.values, cleaned.values)
        assert restored.excluded_missing == cleaned.excluded_missing
        assert restored.x_sd == cleaned.x_sd
        assert restored.fiscal is None  # the summary table is not serialized

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0], [3.0, 4.0]], 5.0],
                             ids=["empty", "2-d", "scalar"])
    def test_from_json_requires_a_nonempty_list(self, district_csv, values):
        records, _ = read_records(district_csv, (2000, 2016))
        payload = clean(records).to_json()
        payload["values"] = values
        with pytest.raises(ValueError, match="nonempty 1-d list"):
            CleanedSample.from_json(payload)


class TestFiscalSummary:
    def test_keys_and_consistency(self, district_csv):
        records, _ = read_records(district_csv, (2000, 2016))
        summary = fiscal_summary(records)
        assert set(summary) == {"x", "kappa", "tau"}
        cleaned = clean(records)
        mean, sd, low, high = summary["x"]
        assert mean == pytest.approx(cleaned.x_mean)
        assert sd == pytest.approx(cleaned.x_sd)
        assert (low, high) == (cleaned.x_min, cleaned.x_max)
        # kappa for the retained rows: 12, 15, 9, 20
        assert summary["kappa"][0] == pytest.approx(14.0)
        # The CLI prints the table clean built in its own pass.
        assert cleaned.fiscal == summary


class TestBuildHistogram:
    def test_fixed_bin_count(self):
        values = np.array([1.0, 2.0, 2.5, 3.0, 10.0])
        hist = build_histogram(values, 4)
        assert hist.frequencies.size == 4
        assert hist.n == 5
        assert float(hist.frequencies.sum()) == pytest.approx(1.0, abs=1e-15)
        assert hist.edges[0] == 1.0
        assert hist.edges[-1] == 10.0

    def test_fd_rule_matches_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(10.0, 2.0, size=500)
        hist = build_histogram(values, "fd")
        counts, edges = np.histogram(values, bins="fd")
        np.testing.assert_array_equal(hist.edges, edges)
        np.testing.assert_array_equal(hist.counts, counts.astype(float))

    @pytest.mark.parametrize("values", [
        [0.0, 1.0],  # n = 2
        [1.0, 0.0],
        [0.1, 0.7, 0.2],  # n = 3
        [0.0, 0.0, 5.0],
        [2.0] * 97 + [0.0, 1.0, 9.0],  # a constant run: IQR 0, one bin
        [3.0] * 50 + [4.0] * 50,  # two constant runs
        [0.1 * k for k in (1, 1, 2, 2, 2, 3, 7, 7, 8, 30)],  # ties
        np.random.default_rng(5).integers(0, 6, size=301).astype(float) / 3.0,
        np.random.default_rng(6).normal(8.66, 3.0, size=1000),
        np.random.default_rng(7).standard_cauchy(size=997),
    ], ids=lambda values: f"n={len(values)}")
    def test_fd_bin_count_matches_numpy(self, values):
        values = np.asarray(values, dtype=float)
        counts, edges = np.histogram(values, bins="fd")
        assert fd_bin_count(np.sort(values)) == counts.size
        hist = build_histogram(values, "fd")
        assert hist.edges.tobytes() == edges.tobytes()
        np.testing.assert_array_equal(hist.counts, counts.astype(float))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.integers(-400, 400), min_size=2, max_size=60))
    def test_fd_bin_count_matches_numpy_on_ties(self, quarters):
        # Quarters keep every quartile exact, so no bin count can be huge.
        values = np.array(quarters, dtype=float) / 4.0
        count = fd_bin_count(np.sort(values))
        assert count <= 20_000
        assert count == np.histogram(values, bins="fd")[0].size

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_quartiles_match_numpy_bit_for_bit(self, values):
        values = np.array(values)
        ordered = np.sort(values)
        q75, q25 = np.percentile(values, [75, 25])  # as numpy's FD rule takes them
        assert ingest._quantile(ordered, 0.75) == q75
        assert ingest._quantile(ordered, 0.25) == q25

    def test_fd_bin_count_leaves_non_finite_ranges_to_numpy(self):
        for bad in (math.nan, math.inf, -math.inf):
            values = np.array([0.0, 1.0, 2.0, bad])
            assert fd_bin_count(np.sort(values)) == 1
            with pytest.raises(ValueError, match="is not finite"):
                build_histogram(values, "fd")

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            build_histogram(np.full(10, 3.3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([]))

    def test_json_round_trip(self):
        rng = np.random.default_rng(4)
        hist = build_histogram(rng.normal(size=200), 12)
        restored = HistogramSpec.from_json(hist.to_json())
        np.testing.assert_array_equal(restored.edges, hist.edges)
        np.testing.assert_array_equal(restored.frequencies, hist.frequencies)
        assert restored.n == hist.n

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(
                edges=np.array([0.0, 1.0, 2.0]),
                frequencies=np.array([0.5, 0.6]),  # sums to 1.1
                counts=np.array([5.0, 6.0]),
            )
        with pytest.raises(ValueError):
            HistogramSpec(
                edges=np.array([0.0, 1.0]),
                frequencies=np.array([0.5, 0.5]),  # wrong length
                counts=np.array([1.0, 1.0]),
            )

    @pytest.mark.parametrize("frequencies, counts, message", [
        ([0.9, 0.1], [1.0, 1000.0], "frequencies must equal counts / their total"),
        ([0.25 + 2e-12, 0.75 - 2e-12], [1.0, 3.0], "frequencies must equal counts / their total"),
        ([0.5, 0.5], [0.0, 0.0], "counts must have a positive total"),
        ([0.25, 0.75], [0.1, 0.3], "counts must be whole numbers"),
    ], ids=["far-apart", "just-past-tolerance", "zero-counts", "fractional"])
    def test_counts_must_agree_with_frequencies(self, frequencies, counts, message):
        with pytest.raises(ValueError, match=message):
            HistogramSpec(edges=np.array([0.0, 1.0, 2.0]), frequencies=np.array(frequencies),
                          counts=np.array(counts))

    def test_counts_agree_within_tolerance(self):
        hist = HistogramSpec(edges=np.array([0.0, 1.0, 2.0]),
                             frequencies=np.array([0.25 + 5e-13, 0.75 - 5e-13]),
                             counts=np.array([1.0, 3.0]))
        assert hist.n == 4


def oracle_split(records, extreme_low=-50.0, extreme_high=120.0):
    """The per-record exclusion loop that the array pass replaced."""
    xs, kappas, taus = [], [], []
    n_missing = 0
    n_extreme = 0
    for rec in records:
        fields = (
            rec.total_local_education_expenditures,
            rec.total_local_taxes_and_charges,
            rec.enrollment,
            rec.population,
        )
        if any(not math.isfinite(f) or f < 0.0 for f in fields):
            n_missing += 1
            continue
        try:
            x = compute_returns(rec)
        except ZeroDenominator:
            n_missing += 1
            continue
        if not (extreme_low <= x <= extreme_high):
            n_extreme += 1
            continue
        xs.append(x)
        kappas.append(rec.total_local_education_expenditures / rec.enrollment)
        taus.append(rec.total_local_taxes_and_charges / rec.population)
    return np.asarray(xs), np.asarray(kappas), np.asarray(taus), n_missing, n_extreme


def oracle_fiscal(xs, kappas, taus):
    out = {}
    for name, arr in (("x", xs), ("kappa", kappas), ("tau", taus)):
        sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        out[name] = (float(np.mean(arr)), sd, float(np.min(arr)), float(np.max(arr)))
    return out


# Non-finite, negative, signed-zero and subnormal fields; a subnormal
# denominator overflows the quotient to inf, and two such give inf - inf.
SPECIAL_FIELDS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324)
fields = st.one_of(
    st.sampled_from(SPECIAL_FIELDS),
    st.integers(-3, 300).map(float),
    st.floats(0.01, 1000.0),
)
random_records = st.builds(
    record,
    total_local_education_expenditures=fields,
    total_local_taxes_and_charges=fields,
    enrollment=fields,
    population=fields,
)
# x exactly on each default bound, with both signs of a zero numerator.
boundary_records = st.sampled_from((
    record(total_local_education_expenditures=240.0, total_local_taxes_and_charges=0.0,
           enrollment=2.0, population=1.0),
    record(total_local_education_expenditures=240.0, total_local_taxes_and_charges=-0.0,
           enrollment=2.0, population=1.0),
    record(total_local_education_expenditures=0.0, total_local_taxes_and_charges=300.0,
           enrollment=1.0, population=6.0),
    record(total_local_education_expenditures=-0.0, total_local_taxes_and_charges=300.0,
           enrollment=1.0, population=6.0),
))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(random_records, boundary_records), max_size=40))
def test_array_pass_matches_per_record_loop(records):
    xs, kappas, taus, n_missing, n_extreme = oracle_split(records)
    if xs.size == 0:
        with pytest.raises(AllExcluded):
            clean(records)
        return
    cleaned = clean(records)
    np.testing.assert_array_equal(cleaned.values, xs)
    assert cleaned.values.tobytes() == xs.tobytes()  # signed zeros too
    assert (cleaned.excluded_missing, cleaned.excluded_extreme) == (n_missing, n_extreme)
    assert cleaned.fiscal == oracle_fiscal(xs, kappas, taus)
    assert fiscal_summary(records) == cleaned.fiscal


def oracle_read_records(path, years):
    """The per-row ``DistrictRecord`` loop that the column reader replaced."""

    def parse_number(field, line_no, column):
        if field.strip() == "":
            return math.nan
        try:
            return float(field)
        except ValueError:
            raise ParseError(
                f"line {line_no}: column {column!r} is not numeric: {field!r}"
            ) from None

    header = CSV_HEADER.split(",")
    records, skipped = [], 0
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            next(reader)
            for row in reader:
                line_no = reader.line_num
                if len(row) == 0:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
                try:
                    year = int(row[1])
                except ValueError:
                    raise ParseError(
                        f"line {line_no}: column 'year' is not an integer: {row[1]!r}"
                    ) from None
                if not (years[0] <= year <= years[1]):
                    skipped += 1
                    continue
                records.append(DistrictRecord(
                    row[0], year,
                    *(parse_number(f, line_no, c) for f, c in zip(row[2:], header[2:])),
                ))
        except csv.Error as err:
            raise ParseError(f"line {reader.line_num}: {err}") from None
    return records, skipped


# Blank, whitespace-only and Python-only spellings; "abc" and "20x5" raise,
# and so does a field one character over the csv module's limit.
NUMBER_SPELLINGS = (
    "", " ", " \t ", "nan", "-NaN", "inf", "-Infinity", "1_0", "1e3", " 2.5 ",
    "-0.0", "0", "5e-324", "1e400", "abc",
)
FIELD_LIMIT = csv.field_size_limit()
plausible_numbers = st.one_of(
    st.integers(1, 300).map(str), st.floats(0.5, 300.0).map(repr)
)
csv_numbers = st.one_of(
    st.sampled_from(NUMBER_SPELLINGS),
    st.integers(-5, 500).map(str),
    st.floats(allow_nan=False).map(repr),
)
long_numbers = st.sampled_from(("9" * FIELD_LIMIT, "9" * (FIELD_LIMIT + 1)))
csv_years = st.one_of(
    st.integers(1995, 2020).map(str), st.sampled_from((" 2005", "+2010", "2_016", "20x5"))
)
# Quoted ids holding commas, quotes and newlines come from csv.writer's
# quoting; a newline puts later records on later physical lines. Plain ids
# need no quoting, so a file of them is read a column at a time.
quoted_ids = st.text(alphabet='d-1, "\n', max_size=6)
plain_ids = st.text(alphabet="d-1 #\t\ufeff", max_size=6)


def csv_lines(ids):
    """Lines of six fields, plausible or in any spelling, and blank lines."""
    return st.one_of(
        st.tuples(ids, csv_years, *[plausible_numbers] * 4).map(list),
        st.tuples(ids, csv_years, *[csv_numbers] * 4).map(list),
        st.just([]),
    )


def bad_lines(ids):
    """A whitespace-only line; lines of 5 and 7 fields, whose total is
    right; or a number field at, or one past, the csv field limit."""
    plausible = st.tuples(ids, csv_years, *[plausible_numbers] * 4).map(list)
    return st.one_of(
        st.just([[" \t"]]),
        st.tuples(plausible, plausible).map(lambda pair: [pair[0][:5], pair[0][5:] + pair[1]]),
        st.tuples(ids, csv_years, long_numbers, *[plausible_numbers] * 3).map(lambda row: [list(row)]),
    )


def csv_files(ids):
    lines = st.lists(csv_lines(ids), max_size=12)
    return st.one_of(
        lines, st.tuples(lines, bad_lines(ids), lines).map(lambda p: p[0] + p[1] + p[2])
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    layout=st.one_of(
        # Half the files could be read a column at a time.
        st.tuples(csv_files(plain_ids), st.just(csv.QUOTE_MINIMAL), st.just("\n")),
        st.tuples(
            st.one_of(csv_files(quoted_ids), csv_files(plain_ids)),
            st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL)),
            st.sampled_from(("\n", "\r\n")),
        ),
    ),
    trailing_blank_lines=st.integers(0, 3),
    bom=st.booleans(),
)
def check_column_reader(layout, trailing_blank_lines, bom):
    rows, quoting, lineterminator = layout
    text = io.StringIO()
    text.write("\ufeff" * bom)
    writer = csv.writer(text, quoting=quoting, lineterminator=lineterminator)
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(rows)
    text.write(lineterminator * trailing_blank_lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "districts.csv"
        path.write_bytes(text.getvalue().encode("utf-8"))
        try:
            expected, expected_skipped = oracle_read_records(path, (2000, 2016))
        except ParseError as err:
            with pytest.raises(ParseError) as raised:
                read_records(path, (2000, 2016))
            assert str(raised.value) == str(err)
            return
        records, skipped = read_records(path, (2000, 2016))
    # repr compares NaN fields as equal and tells -0.0 from 0.0.
    assert repr(list(records)) == repr(expected)
    assert skipped == expected_skipped
    assert len(records) == len(expected)
    assert repr([records[i] for i in range(-len(records), 0)]) == repr(expected)
    assert repr(list(records[1::2])) == repr(expected[1::2])
    try:
        want = clean(expected)
    except AllExcluded as err:
        with pytest.raises(AllExcluded) as raised:
            clean(records)
        assert str(raised.value) == str(err)
        return
    got = clean(records)
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.excluded_missing, got.excluded_extreme) == (want.excluded_missing, want.excluded_extreme)
    assert got.fiscal == want.fiscal


def test_column_reader_matches_per_row_loop(monkeypatch):
    # Counts the files read a column at a time and those read by the csv
    # reader, so that both paths are shown to match the per-row loop.
    taken = collections.Counter()
    read_columns, read_rows = ingest._read_columns, ingest._read_rows

    def columns(*args):
        result = read_columns(*args)
        taken["columns"] += result is not None
        return result

    def rows(*args):
        taken["rows"] += 1
        return read_rows(*args)

    monkeypatch.setattr(ingest, "_read_columns", columns)
    monkeypatch.setattr(ingest, "_read_rows", rows)
    check_column_reader()
    assert taken["columns"] >= 40 and taken["rows"] >= 40, taken
