"""Monthly panel data model: series ingestion, calendar alignment, lag shifting.

All values live on an exact monthly calendar grid. Interior gaps are kept as
explicit ``None`` markers; downstream stages decide how to handle them
(correlations pairwise-delete, risk composition skips the month).
"""

from __future__ import annotations

import csv
import functools
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import AlignmentError, IngestionError, ParameterError

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


@dataclass(frozen=True, order=True)
class MonthIndex:
    """A calendar month. Ordering and arithmetic are exact (no day semantics)."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ParameterError(f"month must be in 1..12, got {self.month}")

    @property
    def ordinal(self) -> int:
        return self.year * 12 + (self.month - 1)

    @classmethod
    @functools.lru_cache(maxsize=4096)  # frozen, so one instance serves every caller
    def from_ordinal(cls, n: int) -> "MonthIndex":
        return cls(n // 12, n % 12 + 1)

    @classmethod
    def parse(cls, text: str) -> "MonthIndex":
        m = _DATE_RE.match(text.strip())
        if m is None:
            raise IngestionError(f"malformed date {text!r}, expected YYYY-MM")
        try:
            return cls(int(m.group(1)), int(m.group(2)))
        except ParameterError as exc:  # month outside 1..12: an input fault
            raise IngestionError(str(exc)) from None

    def __add__(self, months: int) -> "MonthIndex":
        return MonthIndex.from_ordinal(self.ordinal + int(months))

    def __sub__(self, other):
        if isinstance(other, MonthIndex):
            return self.ordinal - other.ordinal
        return MonthIndex.from_ordinal(self.ordinal - int(other))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


class Variable(str, Enum):
    RAINFALL = "rainfall_mm"
    TEMPERATURE = "temperature_c"
    HUMIDITY = "humidity_pct"
    INCIDENCE = "incidence_count"
    SUSCEPTIBLE = "susceptible_count"
    POPULATION = "population_count"


_NONNEGATIVE = {Variable.INCIDENCE, Variable.SUSCEPTIBLE, Variable.POPULATION}


@dataclass(frozen=True)
class MonthlySeries:
    """One variable for one region on a gap-free monthly grid.

    ``values[i]`` belongs to month ``start + i``; ``None`` marks a missing
    month. Present values are finite, and count-like variables are >= 0.
    """

    region: str
    variable: Variable
    start: MonthIndex
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        try:
            arr = np.array(self.values, dtype=float)  # None becomes NaN
            if np.count_nonzero(~np.isfinite(arr)) == self.values.count(None) and not (
                self.variable in _NONNEGATIVE and (arr < 0).any()
            ):
                return
        except (TypeError, ValueError, OverflowError):
            pass
        for i, v in enumerate(self.values):  # the first bad value, for the message
            if v is None:
                continue
            if not math.isfinite(v):
                raise ParameterError(
                    f"non-finite value at {self.start + i} in {self.region}/{self.variable.value}"
                )
            if self.variable in _NONNEGATIVE and v < 0:
                raise ParameterError(
                    f"negative {self.variable.value} at {self.start + i} in {self.region}"
                )

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> MonthIndex:
        """Last month covered (inclusive)."""
        return self.start + (len(self.values) - 1)

    def to_array(self) -> np.ndarray:
        """float array with NaN for missing months."""
        return np.array(self.values, dtype=float)

    def slice(self, start: MonthIndex, end: MonthIndex) -> "MonthlySeries":
        """The months start..end; the series itself when that is its span."""
        i, j = start - self.start, end - self.start
        if i < 0 or j >= len(self.values):
            raise AlignmentError(
                f"slice [{start}..{end}] exceeds span [{self.start}..{self.end}]"
            )
        if i == 0 and j == len(self.values) - 1:
            return self
        return replace(self, start=start, values=self.values[i : j + 1])


@dataclass(frozen=True)
class MobilityMatrix:
    """Inter-regional interaction weights; unlisted pairs are zero."""

    regions: tuple
    weights: tuple  # row-major, weights[i][j] = interaction from region i to j

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(
            self, "weights", tuple(tuple(row) for row in self.weights)
        )
        n = len(self.regions)
        if len(self.weights) != n or any(len(r) != n for r in self.weights):
            raise ParameterError("mobility weight matrix must be square")
        w = np.array(self.weights, dtype=float)
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ParameterError("mobility weights must be finite and >= 0")

    @classmethod
    def from_pairs(cls, pairs: Mapping) -> "MobilityMatrix":
        """W from ``{(from, to): weight}``; regions sorted, W filled in one scatter."""
        regions = sorted({r for key in pairs for r in key})
        idx = {r: k for k, r in enumerate(regions)}
        mat = np.zeros((len(regions), len(regions)))
        if pairs:
            rows, cols = zip(*[(idx[i], idx[j]) for i, j in pairs])
            mat[rows, cols] = [float(w) for w in pairs.values()]
        return cls(tuple(regions), tuple(map(tuple, mat.tolist())))


@dataclass(frozen=True)
class Panel:
    """All series keyed by (region, variable), plus the mobility matrix.

    ``span`` is set once :func:`align` has put every series on a common grid.
    """

    series: Mapping
    mobility: Optional[MobilityMatrix] = None
    span: Optional[tuple] = None  # (start, end) after alignment

    def get(self, region: str, variable: Variable) -> Optional[MonthlySeries]:
        return self.series.get((region, variable))

    def require(self, region: str, variable: Variable) -> MonthlySeries:
        s = self.get(region, variable)
        if s is None:
            raise MissingSeriesError(region, variable)
        return s

    @property
    def regions(self) -> tuple:
        return tuple(sorted({r for (r, _) in self.series}))


class MissingSeriesError(IngestionError):
    def __init__(self, region, variable):
        super().__init__(f"panel has no series for ({region}, {variable.value})")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

SERIES_HEADER = ["region", "date", "value"]
MOBILITY_HEADER = ["from", "to", "weight"]


def csv_rows(path):
    """Yield ``(line, fields)`` for every row of a CSV file, the header at
    line 1; lines count rows. A missing, empty, non-UTF-8 or unparseable file
    raises a one-line error naming it."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if path.is_dir():
        raise FileNotFoundError(f"not a file: {path}")
    lineno = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                yield lineno, row
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}: line {lineno + 1}: {exc}") from None
    if lineno == 0:
        raise IngestionError(f"{path}: no data rows")


def _data_rows(path, header: list, empty_ok: bool = False):
    """Yield ``(line, stripped fields)`` for every non-blank row after the
    ``header`` row; nothing after the header is an error unless ``empty_ok``."""
    rows = csv_rows(path)
    if [c.strip().lower() for c in next(rows)[1]] != header:
        raise IngestionError(f"{path}: line 1: expected header {','.join(header)!r}")
    lineno = 1
    for lineno, row in rows:
        fields = list(map(str.strip, row))
        if any(fields):
            yield lineno, fields
    if lineno == 1 and not empty_ok:
        raise IngestionError(f"{path}: no data rows")


def load_series_table(path, variable: Variable) -> dict:
    """Parse a series CSV into per-region gap-free series.

    Schema: header ``region,date,value``; date ``YYYY-MM``; empty value field
    marks a missing month; rows need not be sorted. One pass, checking rows
    in file order; months are keyed by ordinal.
    """
    ordinals = {}  # date text -> month ordinal, so each date is parsed once
    per_region = {}  # region -> {ordinal: value or None}
    for lineno, fields in _data_rows(path, SERIES_HEADER):
        if len(fields) != 3:
            raise IngestionError(f"{path}: line {lineno}: expected 3 fields")
        region, date_text, value_text = fields
        t = ordinals.get(date_text)
        if t is None:
            try:
                t = ordinals[date_text] = MonthIndex.parse(date_text).ordinal
            except IngestionError as exc:
                raise IngestionError(f"{path}: line {lineno}: {exc}") from None
        if value_text == "":
            value = None
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise IngestionError(
                    f"{path}: line {lineno}: non-numeric value {value_text!r}"
                ) from None
            if not math.isfinite(value):
                raise IngestionError(
                    f"{path}: line {lineno}: non-finite value {value_text!r}"
                )
        bucket = per_region.get(region)
        if bucket is None:
            bucket = per_region[region] = {}
        if t in bucket:
            raise IngestionError(
                f"{path}: line {lineno}: duplicate row for "
                f"({region}, {MonthIndex.from_ordinal(t)})"
            )
        bucket[t] = value

    out = {}
    for region, bucket in per_region.items():
        lo, hi = min(bucket), max(bucket)
        values = tuple(map(bucket.get, range(lo, hi + 1)))
        try:
            out[region] = MonthlySeries(region, variable, MonthIndex.from_ordinal(lo), values)
        except ParameterError as exc:
            raise IngestionError(f"{path}: {exc}") from None
    return out


def write_series(series_list, path) -> None:
    """Emit series CSV, header + rows sorted by (region, month)."""
    if isinstance(series_list, MonthlySeries):
        series_list = [series_list]
    rows = []
    for s in series_list:
        for i, v in enumerate(s.values):
            rows.append((s.region, str(s.start + i), "" if v is None else format(v, ".12g")))
    rows.sort(key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        writer.writerows(rows)


def load_mobility(path) -> MobilityMatrix:
    """Parse a mobility CSV (``from,to,weight``); unlisted pairs default to 0."""
    pairs = {}
    for lineno, fields in _data_rows(path, MOBILITY_HEADER, empty_ok=True):
        if len(fields) != 3:
            raise IngestionError(f"{path}: line {lineno}: expected 3 fields")
        i, j, w_text = fields
        try:
            w = float(w_text)
        except ValueError:
            raise IngestionError(
                f"{path}: line {lineno}: non-numeric weight {w_text!r}"
            ) from None
        if not math.isfinite(w) or w < 0:
            raise IngestionError(f"{path}: line {lineno}: weight must be finite and >= 0")
        if (i, j) in pairs:
            raise IngestionError(f"{path}: line {lineno}: duplicate pair ({i}, {j})")
        pairs[(i, j)] = w
    return MobilityMatrix.from_pairs(pairs)


def write_mobility(mobility: MobilityMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MOBILITY_HEADER)
        for a, i in enumerate(mobility.regions):
            for b, j in enumerate(mobility.regions):
                w = mobility.weights[a][b]
                if w != 0.0:
                    writer.writerow([i, j, format(w, ".12g")])


# ---------------------------------------------------------------------------
# Alignment and lag shifting
# ---------------------------------------------------------------------------


def align(panel: Panel) -> Panel:
    """Truncate every series to the intersection of their spans.

    Idempotent. Raises :class:`AlignmentError` (listing per-series spans)
    when the intersection is empty.
    """
    if not panel.series:
        raise AlignmentError("panel has no series")
    start = max(s.start for s in panel.series.values())
    end = min(s.end for s in panel.series.values())
    if end < start:
        spans = "; ".join(
            f"{r}/{v.value}: {s.start}..{s.end}"
            for (r, v), s in sorted(panel.series.items(), key=lambda kv: (kv[0][0], kv[0][1].value))
        )
        raise AlignmentError(f"series spans have empty intersection ({spans})")
    series = {key: s.slice(start, end) for key, s in panel.series.items()}
    return Panel(series=series, mobility=panel.mobility, span=(start, end))


def lag_shift(series: MonthlySeries, k: int) -> MonthlySeries:
    """Shift values forward by k months; the first k months become missing.

    The result keeps the original span: result[t] = series[t - k].
    """
    if k < 0:
        raise ParameterError(f"lag must be >= 0, got {k}")
    n = len(series.values)
    if k == 0:
        return series
    shifted = (None,) * min(k, n) + series.values[: max(n - k, 0)]
    return replace(series, values=shifted)
