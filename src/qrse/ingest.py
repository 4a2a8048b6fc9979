"""District fiscal records to cleaned educational-returns samples.

The input is a CSV of district-year rows with local education expenditures,
local taxes and charges, enrollment, and population. The returns variable is

    x = expenditures / enrollment - taxes / population   (kappa - tau)

in thousands of dollars per pupil and per capita respectively. Cleaning drops
rows with missing or zero-denominator fields (counted as excluded_missing)
and rows whose x falls outside configurable extreme-value bounds (counted as
excluded_extreme), then summarizes the survivors.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .errors import AllExcluded, DegenerateRange, ParseError, ZeroDenominator

CSV_HEADER = [
    "district_id",
    "year",
    "total_local_education_expenditures",
    "total_local_taxes_and_charges",
    "enrollment",
    "population",
]

DEFAULT_YEARS = (2000, 2016)
# Bounds bracket every plausible district-level value; anything outside is a
# data-entry artifact, not a real return.
DEFAULT_EXTREME_LOW = -50.0
DEFAULT_EXTREME_HIGH = 120.0


@dataclass(frozen=True)
class DistrictRecord:
    """One district-year row. Monetary fields are in thousands of dollars.

    Missing numeric fields are carried as NaN and resolved by ``clean``.
    """

    district_id: str
    year: int
    total_local_education_expenditures: float
    total_local_taxes_and_charges: float
    enrollment: float
    population: float


@dataclass(frozen=True, eq=False)
class CleanedSample:
    """Retained returns values plus exclusion counts and summary statistics.

    ``values`` must be a nonempty 1-d array of finite numbers; ``clean``
    raises AllExcluded rather than build an empty one. ``fiscal`` holds the
    ``fiscal_summary`` table when ``clean`` built the sample. It is not part
    of the JSON form, so a sample read back from a file has ``fiscal=None``.
    """

    values: np.ndarray
    excluded_missing: int
    excluded_extreme: int
    kappa_mean: float
    tau_mean: float
    x_mean: float
    x_sd: float
    x_min: float
    x_max: float
    fiscal: dict[str, tuple[float, float, float, float]] | None = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("cleaned values must be a nonempty 1-d list")
        if not np.all(np.isfinite(values)):
            raise ValueError("cleaned values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def to_json(self) -> dict:
        return {
            "values": self.values.tolist(),
            "excluded_missing": self.excluded_missing,
            "excluded_extreme": self.excluded_extreme,
            "kappa_mean": self.kappa_mean,
            "tau_mean": self.tau_mean,
            "x_mean": self.x_mean,
            "x_sd": self.x_sd,
            "x_min": self.x_min,
            "x_max": self.x_max,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CleanedSample":
        return cls(
            values=np.asarray(payload["values"], dtype=float),
            excluded_missing=int(payload["excluded_missing"]),
            excluded_extreme=int(payload["excluded_extreme"]),
            kappa_mean=float(payload["kappa_mean"]),
            tau_mean=float(payload["tau_mean"]),
            x_mean=float(payload["x_mean"]),
            x_sd=float(payload["x_sd"]),
            x_min=float(payload["x_min"]),
            x_max=float(payload["x_max"]),
        )


@dataclass(frozen=True, eq=False)
class HistogramSpec:
    """Observed histogram: edges, relative frequencies, and raw counts.

    All three must be 1-d. Edges must be finite and strictly increasing,
    frequencies and counts finite and nonnegative, and the frequencies must
    sum to 1. The counts must be whole numbers with a positive total, ``n``,
    and each frequency lie within 1e-12 of its count over that total, as
    ``build_histogram`` writes.
    """

    edges: np.ndarray
    frequencies: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        arrays = {name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("edges", "frequencies", "counts")}
        for name, arr in arrays.items():
            if arr.ndim != 1:
                raise ValueError(f"histogram {name} must be a 1-d list, got shape {arr.shape}")
        edges, frequencies, counts = arrays.values()
        if len(frequencies) != len(edges) - 1 or len(counts) != len(frequencies):
            raise ValueError("histogram arrays have inconsistent lengths")
        if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0.0)):
            raise ValueError("histogram edges must be finite and strictly increasing")
        for name, arr in (("frequencies", frequencies), ("counts", counts)):
            if not np.all((arr >= 0.0) & (arr < math.inf)):
                raise ValueError(f"histogram {name} must be finite and nonnegative")
        if np.any(counts != np.floor(counts)):
            raise ValueError("histogram counts must be whole numbers")
        if abs(float(np.sum(frequencies)) - 1.0) > 1e-12:
            raise ValueError("frequencies must sum to 1")
        total = float(np.sum(counts))
        if not total > 0.0:
            raise ValueError("histogram counts must have a positive total")
        if np.any(np.abs(frequencies - counts / total) > 1e-12):
            raise ValueError("histogram frequencies must equal counts / their total")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return int(np.sum(self.counts))

    def to_json(self) -> dict:
        return {
            "edges": self.edges.tolist(),
            "frequencies": self.frequencies.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "HistogramSpec":
        return cls(
            edges=np.asarray(payload["edges"], dtype=float),
            frequencies=np.asarray(payload["frequencies"], dtype=float),
            counts=np.asarray(payload["counts"], dtype=float),
        )


def _parse_number(field: str, line_no: int, column: str) -> float:
    if field.strip() == "":
        return math.nan  # empty field = missing
    try:
        return float(field)
    except ValueError:
        raise ParseError(f"line {line_no}: column {column!r} is not numeric: {field!r}") from None


class DistrictColumns(Sequence):
    """District-year rows held as read-only columns.

    ``ids`` and ``years`` are tuples; ``fields`` is an (n, 4) read-only float
    array of expenditures, taxes, enrollment and population, in CSV column
    order. Indexing or iterating builds a ``DistrictRecord`` per row on
    access, and a slice is another ``DistrictColumns``. ``clean`` reads
    ``fields`` directly.
    """

    __slots__ = ("ids", "years", "fields")

    def __init__(self, ids: tuple[str, ...], years: tuple[int, ...], fields: np.ndarray):
        fields.setflags(write=False)
        self.ids = ids
        self.years = years
        self.fields = fields

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DistrictColumns(self.ids[index], self.years[index], self.fields[index])
        district_id = self.ids[index]
        return DistrictRecord(district_id, self.years[index], *self.fields[index].tolist())

    def __iter__(self):
        for district_id, year, row in zip(self.ids, self.years, self.fields.tolist()):
            yield DistrictRecord(district_id, year, *row)


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` that is not valid UTF-8.

    The text reader decodes in blocks, so its line count at the error can lie
    well before the bad byte. A newline byte never occurs inside a UTF-8
    sequence, so each line can be decoded on its own.
    """
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return line_no


def _read_columns(text: str, years: tuple[int, int]):
    """``read_records``' columns parsed a column at a time, or None when
    ``text`` needs the csv reader.

    Text with no quote, carriage return or NUL, whose header passes and
    whose every non-blank line holds exactly six fields, none longer than
    the csv field limit, splits on newlines and commas exactly as the csv
    reader splits it. Each column is then parsed by one C pass: ``int`` over
    the years and ``float`` over each number column, with blank or
    whitespace fields as NaN where a column holds any. A field that does
    not parse, even in a row outside the year window, which the csv loop
    skips, also gives None.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, *lines = text.split("\n")
    lines = list(filter(None, lines))  # blank lines are skipped
    width = len(CSV_HEADER)
    if (
        [h.strip() for h in header.split(",")] != CSV_HEADER
        or max(map(len, lines), default=0) > csv.field_size_limit()
        or set(map(str.count, lines, repeat(","))) - {width - 1}
    ):
        return None
    cells = ",".join(lines).split(",")
    try:
        record_years = list(map(int, cells[1::width]))
        columns = []
        for texts in (cells[column::width] for column in range(2, width)):
            try:
                columns.append(np.array(texts, dtype=float))
            except ValueError:
                # Blank fields are missing (NaN); anything else raises.
                columns.append(np.array([t if t.strip() else "nan" for t in texts], dtype=float))
    except ValueError:
        return None
    year_array = np.array(record_years)
    keep = (year_array >= years[0]) & (year_array <= years[1])
    fields = np.stack(columns, axis=1)[keep]
    return (
        list(compress(cells[::width], keep)),
        list(compress(record_years, keep)),
        fields,
        len(lines) - len(fields),
    )


def _read_rows(text: str, years: tuple[int, int]):
    """``read_records``' columns from ``text`` through the csv reader, row
    by row. Every ``ParseError`` for a malformed line comes from here."""
    year_low, year_high = years
    ids: list[str] = []
    record_years: list[int] = []
    values: list[tuple[float, float, float, float]] = []
    skipped_years = 0
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: file is empty, expected a header row") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(
                f"line 1: header must be {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        for row in reader:
            # A quoted field may hold newlines, so records and physical
            # lines can differ; the errors name the physical line on
            # which the record ends, as the csv module's own errors do.
            line_no = reader.line_num
            if len(row) != len(CSV_HEADER):
                if len(row) == 0:
                    continue  # tolerate trailing blank lines
                raise ParseError(
                    f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            try:
                year = int(row[1])
            except ValueError:
                raise ParseError(f"line {line_no}: column 'year' is not an integer: {row[1]!r}") from None
            if not (year_low <= year <= year_high):
                skipped_years += 1
                continue
            ids.append(row[0])
            record_years.append(year)
            try:
                values.append((float(row[2]), float(row[3]), float(row[4]), float(row[5])))
            except ValueError:
                # Blank fields are missing (NaN); anything else raises.
                values.append(tuple(
                    _parse_number(cell, line_no, column)
                    for cell, column in zip(row[2:], CSV_HEADER[2:])
                ))
    except csv.Error as err:
        raise ParseError(f"line {reader.line_num}: {err}") from None
    return ids, record_years, np.array(values, dtype=float).reshape(-1, 4), skipped_years


def read_records(path, years: tuple[int, int] = DEFAULT_YEARS) -> tuple[DistrictColumns, int]:
    """Parse a district CSV into a ``DistrictColumns`` sequence.

    The file is UTF-8, with or without a byte-order mark. Rows whose year
    falls outside ``years`` are skipped and counted; the count is returned
    alongside the records. The records are held as columns, and a
    ``DistrictRecord`` is built only when one is indexed or iterated.
    Structural problems (bad header, wrong field count, non-numeric values,
    a malformed or oversized CSV field, bytes that are not UTF-8) raise
    ParseError with the offending physical line number; for a record whose
    quoted field spans lines, that is the line on which the record ends.

    The file is read and decoded once. Plain text, with no quoting, is
    parsed a column at a time (``_read_columns``); any other text, and any
    text with a field that does not parse, goes through the csv reader row
    by row (``_read_rows``). Both give the same records.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as err:
        raise ParseError(
            f"line {_undecodable_line(path)}: not valid UTF-8 ({err.reason})"
        ) from None
    ids, record_years, fields, skipped_years = (
        _read_columns(text, years) or _read_rows(text, years)
    )
    return DistrictColumns(tuple(ids), tuple(record_years), fields), skipped_years


def compute_returns(record: DistrictRecord) -> float:
    """Educational returns x = kappa - tau for one record.

    kappa is per-pupil expenditures, tau per-capita taxes and charges.

    Raises
    ------
    ZeroDenominator
        If enrollment or population is exactly zero. Cleaning routes such
        records to excluded_missing.
    """
    if record.enrollment == 0.0 or record.population == 0.0:
        raise ZeroDenominator(
            f"district {record.district_id!r} year {record.year}: "
            f"enrollment={record.enrollment!r} population={record.population!r}"
        )
    kappa = record.total_local_education_expenditures / record.enrollment
    tau = record.total_local_taxes_and_charges / record.population
    return kappa - tau


def _split(records, extreme_low: float, extreme_high: float):
    """Retained x, kappa and tau columns, plus the two exclusion counts.

    The exclusion rules are row masks over one (n, 4) array of expenditures,
    taxes, enrollment and population: ``DistrictColumns.fields`` as read, or
    an array built from any other sequence of records. Only
    rows that pass the missing mask are divided, so no row divides by zero.
    """
    if isinstance(records, DistrictColumns):
        fields = records.fields
    else:
        fields = np.array(
            [(r.total_local_education_expenditures, r.total_local_taxes_and_charges,
              r.enrollment, r.population) for r in records],
            dtype=float,
        ).reshape(-1, 4)
    # A non-finite field is missing; negative money or counts are recording
    # errors, grouped with missing, and so is a zero (or -0.0) denominator.
    usable = (
        np.isfinite(fields).all(axis=1)
        & (fields[:, :2] >= 0.0).all(axis=1)
        & (fields[:, 2:] > 0.0).all(axis=1)
    )
    rows = fields[usable]
    # A finite quotient can still overflow to inf, and inf - inf is NaN:
    # both fail the bounds test below, as they do in compute_returns.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = rows[:, 0] / rows[:, 2]
        tau = rows[:, 1] / rows[:, 3]
        x = kappa - tau
    in_range = (extreme_low <= x) & (x <= extreme_high)
    n_missing = len(fields) - len(rows)
    n_extreme = len(rows) - int(np.count_nonzero(in_range))
    return x[in_range], kappa[in_range], tau[in_range], n_missing, n_extreme


def mean_and_sd(values: np.ndarray) -> tuple[float, float]:
    """Mean and sample sd (0 for one value) of a finite, nonempty array.

    Both are taken on a copy scaled down by a power of two (exact), so huge
    values cannot overflow the sum of squares; |values| < 1 stay as is.
    """
    exponent = max(math.frexp(float(np.max(np.abs(values))))[1], 0)
    unit = np.ldexp(values, -exponent)
    sd = math.ldexp(float(np.std(unit, ddof=1)), exponent) if values.size > 1 else 0.0
    return math.ldexp(float(np.mean(unit)), exponent), sd


def clean(
    records,
    extreme_low: float = DEFAULT_EXTREME_LOW,
    extreme_high: float = DEFAULT_EXTREME_HIGH,
) -> CleanedSample:
    """Apply the exclusion rules and summarize the retained sample.

    The summary of x, kappa and tau (mean, sd, min, max) is kept as
    ``CleanedSample.fiscal``.

    Raises
    ------
    AllExcluded
        If no record survives.
    """
    if len(records) == 0:
        raise AllExcluded("no input records")
    xs, kappas, taus, n_missing, n_extreme = _split(records, extreme_low, extreme_high)
    if xs.size == 0:
        raise AllExcluded(
            f"all {len(records)} records excluded "
            f"({n_missing} missing, {n_extreme} extreme)"
        )
    fiscal = {}
    for name, arr in (("x", xs), ("kappa", kappas), ("tau", taus)):
        # Huge kappa and tau can cancel in x; mean_and_sd does not overflow.
        fiscal[name] = (*mean_and_sd(arr), float(np.min(arr)), float(np.max(arr)))
    x_mean, x_sd, x_min, x_max = fiscal["x"]
    return CleanedSample(
        values=xs,
        excluded_missing=n_missing,
        excluded_extreme=n_extreme,
        kappa_mean=fiscal["kappa"][0],
        tau_mean=fiscal["tau"][0],
        x_mean=x_mean,
        x_sd=x_sd,
        x_min=x_min,
        x_max=x_max,
        fiscal=fiscal,
    )


def fiscal_summary(
    records,
    extreme_low: float = DEFAULT_EXTREME_LOW,
    extreme_high: float = DEFAULT_EXTREME_HIGH,
) -> dict[str, tuple[float, float, float, float]]:
    """Mean, sd, min, max of x, kappa, tau over the retained records.

    This is ``clean(records, extreme_low, extreme_high).fiscal``.
    """
    return clean(records, extreme_low, extreme_high).fiscal


def _quantile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, 100 * q)`` of ascending ``ordered``: numpy's
    linear interpolation at (n - 1) q, with the two branches of its
    ``_lerp``, so the bits match."""
    position = (ordered.size - 1) * q
    below = math.floor(position)
    a = float(ordered[below])
    b = float(ordered[min(below + 1, ordered.size - 1)])
    t = position - below
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def fd_bin_count(ordered: np.ndarray) -> int:
    """``np.histogram(values, bins="fd")``'s bin count, from ``ordered``,
    the values sorted ascending.

    The width is 2 IQR n^(-1/3) and the count ceil(range / width), or 1 for
    a zero width, as numpy takes them; the quartiles come from ``ordered``
    rather than ``np.percentile``, which imports ``numpy.ma``. A range with
    NaN or infinity gives 1, and ``np.histogram`` then rejects the range as
    it would with ``bins="fd"``.
    """
    low, high = float(ordered[0]), float(ordered[-1])
    if not (math.isfinite(low) and math.isfinite(high)):
        return 1
    iqr = _quantile(ordered, 0.75) - _quantile(ordered, 0.25)
    width = 2.0 * iqr * ordered.size ** (-1.0 / 3.0)
    return math.ceil((high - low) / width) if width else 1


def build_histogram(values, bins: int | str = "fd") -> HistogramSpec:
    """Bin a sample into a relative-frequency histogram.

    ``bins`` is either a fixed bin count or "fd" for the Freedman-Diaconis
    rule (``fd_bin_count``). Edges span exactly [min(values), max(values)].

    Raises
    ------
    DegenerateRange
        If all values are identical.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot bin an empty sample")
    if float(np.min(values)) == float(np.max(values)):
        raise DegenerateRange(f"all {values.size} values equal {float(values[0])!r}")
    if bins == "fd":
        bins = fd_bin_count(np.sort(values))
    counts, edges = np.histogram(values, bins=bins)
    return HistogramSpec(
        edges=edges,
        frequencies=counts / counts.sum(),
        counts=counts.astype(float),
    )
