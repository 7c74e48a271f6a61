"""Monthly panel data model: series ingestion, calendar alignment, lag shifting.

All values live on an exact monthly calendar grid: each series is one
read-only float64 array, and W one read-only (n, n) array. A missing month is
NaN; downstream stages decide how to handle it (correlations pairwise-delete,
risk composition skips the month). Each input CSV is read once and parsed
column by column, into one array per file of which every series is a view.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
from dataclasses import dataclass, field, replace
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


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float64 array (None is NaN): itself if it is
    one already, such as a view of a loader's array, else a private copy."""
    if not isinstance(values, np.ndarray) or values.dtype != float or values.flags.writeable:
        values = np.array(values, dtype=float)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class MonthlySeries:
    """One variable for one region on a gap-free monthly grid.

    ``values[i]`` belongs to month ``start + i``, in a read-only float64
    array; NaN (None on input) marks a missing month. Present values are
    finite, and count-like variables are >= 0.
    """

    region: str
    variable: Variable
    start: MonthIndex
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        bad = np.isinf(values) | (self.variable in _NONNEGATIVE) & (values < 0)
        if bad.any():  # name the first bad value
            i = int(bad.argmax())
            t, name = self.start + i, self.variable.value
            raise ParameterError(
                f"non-finite value at {t} in {self.region}/{name}" if np.isinf(values[i])
                else f"negative {name} at {t} in {self.region}"
            )
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        return isinstance(other, MonthlySeries) and (self.region, self.variable, self.start) == (
            other.region, other.variable, other.start
        ) and np.array_equal(self.values, other.values, equal_nan=True)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> MonthIndex:
        """Last month covered (inclusive)."""
        return self.start + (len(self.values) - 1)

    def slice(self, start: MonthIndex, end: MonthIndex) -> "MonthlySeries":
        """The months start..end, a view; the series itself when that is its span."""
        i, j = start - self.start, end - self.start
        if i < 0 or j >= len(self.values):
            raise AlignmentError(
                f"slice [{start}..{end}] exceeds span [{self.start}..{self.end}]"
            )
        if i == 0 and j == len(self.values) - 1:
            return self
        # Built without __post_init__: the values were checked when self was.
        view = object.__new__(MonthlySeries)
        view.__dict__.update(vars(self), start=start, values=self.values[i : j + 1])
        return view


@dataclass(frozen=True, eq=False)
class MobilityMatrix:
    """Inter-regional interaction weights; unlisted pairs are zero."""

    regions: tuple
    weights: np.ndarray  # read-only; weights[i, j] = interaction from region i to j

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        n = len(self.regions)
        if len(self.weights) != n or any(len(row) != n for row in self.weights):
            raise ParameterError("mobility weight matrix must be square")
        w = _frozen(self.weights).reshape(n, n)
        if not (np.isfinite(w) & (w >= 0)).all():
            raise ParameterError("mobility weights must be finite and >= 0")
        object.__setattr__(self, "weights", w)

    def __eq__(self, other):
        return isinstance(other, MobilityMatrix) and self.regions == other.regions and (
            np.array_equal(self.weights, other.weights)
        )

    @classmethod
    def from_pairs(cls, pairs: Mapping) -> "MobilityMatrix":
        """W from ``{(from, to): weight}``; regions sorted."""
        sources, targets = zip(*pairs) if pairs else ((), ())
        return cls._scatter(*_pair_keys(sources, targets), list(pairs.values()))

    @classmethod
    def _scatter(cls, regions: list, keys: np.ndarray, weights) -> "MobilityMatrix":
        """W holding ``weights`` at the flat positions ``keys``, zero elsewhere."""
        w = np.zeros(len(regions) ** 2)
        w[keys] = weights
        return cls(tuple(regions), w.reshape(len(regions), len(regions)))


def _codes(names, index: dict) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, names), np.intp, len(names))


def _pair_keys(sources, targets):
    """Sorted region names, and ``i * n + j`` for each pair's W row and column."""
    regions = sorted({*sources, *targets})
    index = {r: k for k, r in enumerate(regions)}
    return regions, _codes(sources, index) * len(regions) + _codes(targets, index)


@dataclass(frozen=True)
class Panel:
    """All series keyed by (region, variable), plus the mobility matrix.

    ``span`` is set once :func:`align` has put every series on a common grid.
    """

    series: Mapping
    mobility: Optional[MobilityMatrix] = None
    span: Optional[tuple] = None  # (start, end) after alignment
    # region -> its risk.TargetColumns, built once for every stage that shares the panel
    columns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def get(self, region: str, variable: Variable) -> Optional[MonthlySeries]:
        return self.series.get((region, variable))

    def require(self, region: str, variable: Variable) -> MonthlySeries:
        s = self.get(region, variable)
        if s is None:
            raise MissingSeriesError(region, variable)
        return s


class MissingSeriesError(IngestionError):
    def __init__(self, region, variable):
        super().__init__(f"panel has no series for ({region}, {variable.value})")


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

SERIES_HEADER = ["region", "date", "value"]
MOBILITY_HEADER = ["from", "to", "weight"]
# Rows are read in blocks, not all at once: fewer live row lists for the
# garbage collector to scan, and a lower peak RSS on large files.
_BLOCK_ROWS = 4096


def read_csv(path):
    """Yield a CSV file's rows in blocks, the header first; lines count rows
    from 1. A missing or empty file, or a read fault (bytes that are not
    UTF-8, a row the CSV reader rejects), raises a one-line error naming the
    file, after the rows read before the fault."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if path.is_dir():
        raise FileNotFoundError(f"not a file: {path}")
    count, block = 0, range(_BLOCK_ROWS)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        while len(block) == _BLOCK_ROWS:
            block, fault = [], None
            try:
                # extend() keeps the rows read before a fault
                block.extend(itertools.islice(reader, _BLOCK_ROWS))
            except UnicodeDecodeError as exc:
                fault = f"not UTF-8 text ({exc.reason})"
            except csv.Error as exc:
                fault = f"line {count + len(block) + 1}: {exc}"
            count += len(block)
            if block:
                yield block
            if fault or not count:
                raise IngestionError(f"{path}: {fault or 'no data rows'}")


def write_csv(path, header: list, rows) -> None:
    """Write an artifact CSV: UTF-8, the ``header`` row, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _columns(path, header: list, empty_ok: bool = False):
    """The stripped fields of the non-blank rows after the ``header`` row, as
    three columns; each row's line number; and the error for the row they end
    before, the first not of three fields or a read fault. Nothing after the
    header is an error unless ``empty_ok``."""
    blocks = read_csv(path)
    rows = next(blocks)
    if [c.strip().lower() for c in rows[0]] != header:
        raise IngestionError(f"{path}: line 1: expected header {','.join(header)!r}")
    columns, error, taken = [[], [], []], None, 0
    try:
        for rows in itertools.chain([rows[1:]], blocks):
            for k in np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != 3):
                if any(map(str.strip, rows[k])):
                    error = IngestionError(f"{path}: line {taken + k + 2}: expected 3 fields")
                    del rows[k:]
                    break
                rows[k] = ("", "", "")  # blank, so dropped below
            for i, column in enumerate(columns):
                column.extend([row[i].strip() for row in rows])
            taken += len(rows)
            if error:
                break
    except IngestionError as exc:  # a read fault
        error = exc
    if not (taken or error or empty_ok):
        raise IngestionError(f"{path}: no data rows")
    keep = np.ones(taken, bool)
    if "" in columns[0]:  # a blank row has an empty first field
        keep[:] = [any(fields) for fields in zip(*columns)]
        columns = [list(itertools.compress(c, keep)) for c in columns]
    return np.flatnonzero(keep) + 2, columns, error


def _parsed(texts, parse, failed, dtype=float) -> np.ndarray:
    """``parse(text)`` of each distinct text, or ``failed`` where it raises."""
    table = dict.fromkeys(texts, failed)
    for text in table:
        try:
            table[text] = parse(text)
        except (ValueError, IngestionError):
            pass
    return np.fromiter(map(table.__getitem__, texts), dtype, len(texts))


def _floats(texts) -> np.ndarray:
    """``float(text)`` of each text; NaN where float() rejects it."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return _parsed(texts, float, math.nan)


def _check_rows(path, lines, columns, error, n, keys, word) -> None:
    """Raise for the first bad row: row ``n``, the first that fails its own
    checks, or an earlier one whose key in ``keys`` repeats an earlier row's;
    ``word(*fields)`` words it. Else raise ``error``, if any."""
    seen = set()
    for k in np.flatnonzero(np.bincount(keys)[keys] > 1).tolist():
        if keys[k] in seen:
            n = k
            break
        seen.add(keys[k])
    if n < len(lines):
        raise IngestionError(f"{path}: line {lines[n]}: {word(*(c[n] for c in columns))}")
    if error is not None:
        raise error


def _series_row_error(region: str, date_text: str, value_text: str) -> str:
    """The row checks on a bad series row: its date, its value, else a repeat."""
    try:
        t = MonthIndex.parse(date_text)
        if not math.isfinite(float(value_text or 0)):  # empty: a missing month
            return f"non-finite value {value_text!r}"
    except IngestionError as exc:
        return str(exc)
    except ValueError:
        return f"non-numeric value {value_text!r}"
    return f"duplicate row for ({region}, {t})"


def load_series_table(path, variable: Variable) -> dict:
    """Parse a series CSV into per-region gap-free series.

    Schema: header ``region,date,value``; date ``YYYY-MM``; empty value field
    marks a missing month; rows need not be sorted. Parsed column by column;
    a bad file reports its first bad row in file order. The series, in order
    of first appearance, are views of one array.
    """
    lines, columns, error = _columns(path, SERIES_HEADER)
    regions, dates, texts = columns
    t = _parsed(dates, lambda text: MonthIndex.parse(text).ordinal, -1, np.intp)
    values = _floats([text or "nan" for text in texts])  # empty: a missing month
    bad = (t < 0) | np.isinf(values)
    for k in np.flatnonzero(np.isnan(values)).tolist():
        bad[k] |= texts[k] != ""
    n = int(bad.argmax()) if bad.any() else len(bad)
    index = {r: k for k, r in enumerate(dict.fromkeys(regions[:n]))}
    rid, t = _codes(regions[:n], index), t[:n]
    lo, hi = np.full(len(index), t.max(initial=0)), np.full(len(index), -1)
    np.minimum.at(lo, rid, t)
    np.maximum.at(hi, rid, t)
    offsets = np.concatenate(([0], np.cumsum(hi - lo + 1)))  # region k: months lo..hi
    keys = offsets[rid] + t - lo[rid]
    _check_rows(path, lines, columns, error, n, keys, _series_row_error)
    flat = np.full(offsets[-1], np.nan)
    flat[keys] = values
    flat.flags.writeable = False
    try:
        return {
            region: MonthlySeries(region, variable, MonthIndex.from_ordinal(int(lo[k])),
                                  flat[offsets[k] : offsets[k + 1]])
            for k, region in enumerate(index)
        }
    except ParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from None


def write_series(series_list, path) -> None:
    """Emit series CSV, header + rows sorted by (region, month)."""
    rows = [
        (s.region, str(s.start + i), "" if math.isnan(v) else format(v, ".12g"))
        for s in series_list
        for i, v in enumerate(s.values.tolist())
    ]
    write_csv(path, SERIES_HEADER, sorted(rows, key=lambda r: r[:2]))


def _mobility_row_error(source: str, target: str, weight_text: str) -> str:
    """The row checks on a bad mobility row: its weight, else a repeat."""
    try:
        w = float(weight_text)
    except ValueError:
        return f"non-numeric weight {weight_text!r}"
    if not (math.isfinite(w) and w >= 0):
        return "weight must be finite and >= 0"
    return f"duplicate pair ({source}, {target})"


def load_mobility(path) -> MobilityMatrix:
    """Parse a mobility CSV (``from,to,weight``); unlisted pairs default to 0."""
    lines, columns, error = _columns(path, MOBILITY_HEADER, empty_ok=True)
    sources, targets, texts = columns
    weights = _floats(texts)
    bad = ~(np.isfinite(weights) & (weights >= 0))
    n = int(bad.argmax()) if bad.any() else len(bad)
    regions, keys = _pair_keys(sources[:n], targets[:n])
    _check_rows(path, lines, columns, error, n, keys, _mobility_row_error)
    return MobilityMatrix._scatter(regions, keys, weights)


def write_mobility(mobility: MobilityMatrix, path) -> None:
    rows = (
        (i, j, format(w, ".12g"))
        for i, row in zip(mobility.regions, mobility.weights.tolist())
        for j, w in zip(mobility.regions, row)
        if w != 0.0
    )
    write_csv(path, MOBILITY_HEADER, rows)


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


def shift(column: np.ndarray, lag: int, fill: float = np.nan) -> np.ndarray:
    """``column`` at month t - lag for every month t of its span; the first
    ``lag`` months, whose source precedes the span, are ``fill``."""
    out = np.full(column.size, fill)
    out[lag:] = column[: max(column.size - lag, 0)]
    return out


def lag_shift(series: MonthlySeries, k: int) -> MonthlySeries:
    """Shift values forward by k months; the first k months become missing.

    The result keeps the original span: result[t] = series[t - k].
    """
    if k < 0:
        raise ParameterError(f"lag must be >= 0, got {k}")
    if k == 0:
        return series
    return replace(series, values=shift(series.values, k))
