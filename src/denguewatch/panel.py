"""Monthly panel data model: series ingestion, calendar alignment, lag shifting.

All values live on an exact monthly calendar grid: each series is one
read-only float64 array, and W one read-only (n, n) array. A missing month is
NaN; downstream stages decide how to handle it (correlations pairwise-delete,
risk composition skips the month). Each input CSV is read once and parsed
column by column, into one array per file of which every series is a view.

A plain file (printable ASCII without ``"``, LF or CRLF line ends, lines
within the csv module's field limit and even enough that fixed-width columns
stay within a few times the file's size) is split into columns by numpy over
its bytes. Any other file, with quoted fields, non-ASCII text, tabs or other
control bytes, is read row by row by the csv module. One set of column
checks follows either, so a file's values and error messages do not depend
on which it took.

A file of at least ``CACHE_MIN_BYTES`` that loads is cached under
``$XDG_CACHE_HOME/denguewatch`` (``~/.cache/denguewatch`` when that is unset
or not absolute): the arrays of its parse, beside its bytes, in one entry per
loader, which the next file that loader stores replaces. A later load of the
same bytes by the same loader, parser and numpy version reads them back in
place of the parse; any other load parses, and a cache that cannot be read or
written changes nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import re
import zlib
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .errors import AlignmentError, IngestionError, ParameterError, UsageError

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
        return _checked(MonthlySeries, vars(self), start=start, values=self.values[i : j + 1])


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
        keys = _pair_keys(np.array(sources, dtype=object), np.array(targets, dtype=object))
        return cls._scatter(*keys, list(pairs.values()))

    @classmethod
    def _scatter(cls, regions: list, keys: np.ndarray, weights) -> "MobilityMatrix":
        """W holding ``weights`` at the flat positions ``keys``, zero elsewhere."""
        w = np.zeros(len(regions) ** 2)
        w[keys] = weights
        return cls(tuple(regions), w.reshape(len(regions), len(regions)))


def _checked(cls, *fields, **more):
    """An instance of ``cls`` holding ``fields`` and ``more``, built without
    ``__post_init__``: for values checked already, as a view of a checked
    series or a cached parse of a file that passed every check."""
    instance = object.__new__(cls)
    instance.__dict__.update(*fields, **more)
    return instance


def _unique(column, **kwargs):
    """``np.unique(column, **kwargs)``; fields of up to 8 bytes sort, several
    times faster, as the big-endian integers they spell when zero-padded."""
    if column.dtype.kind == "S" and column.dtype.itemsize <= 8:
        distinct, *rest = np.unique(column.astype("S8").view(">u8"), **kwargs)
        return (distinct.view("S8"), *rest)
    return np.unique(column, **kwargs)


def _pair_keys(sources, targets):
    """Sorted region names, and ``i * n + j`` for each pair's W row and column."""
    regions, inverse = _unique(np.concatenate((sources, targets)), return_inverse=True)
    n = len(sources)
    return _texts(regions), inverse[:n] * len(regions) + inverse[n:]


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
# The bytes of a plain file: printable ASCII except the quote, and line ends.
_PLAIN_BYTES = bytes(range(32, 127)).replace(b'"', b"") + b"\r\n"


def read_file(path) -> bytes:
    """The bytes of the file at ``path``, read once. A path with no file
    behind it, or a directory, raises :class:`FileNotFoundError`; any other
    OS error, such as a symlink loop or a name too long, a one-line
    :class:`UsageError`."""
    path = Path(path)
    try:
        return path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        fault = "no such file"
    except IsADirectoryError:
        fault = "not a file"
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    raise FileNotFoundError(f"{fault}: {path}")


def read_csv(path, raw: Optional[bytes] = None):
    """Yield the rows of a CSV file, or of ``raw``, the bytes read from it, the
    header first; lines count rows from 1. A missing or empty file, or a read
    fault (bytes that are not UTF-8, a row the CSV reader rejects), raises a
    one-line error naming the file, after the rows read before the fault. One
    leading UTF-8 byte-order mark is skipped."""
    raw = read_file(path) if raw is None else raw
    count = 0
    try:
        for count, row in enumerate(csv.reader(_lines(raw)), 1):
            yield row
    except UnicodeDecodeError as exc:
        fault = f"not UTF-8 text ({exc.reason})"
    except csv.Error as exc:
        fault = f"line {count + 1}: {exc}"
    else:
        fault = None if count else "no data rows"
    if fault:
        raise IngestionError(f"{Path(path)}: {fault}")


def _lines(raw: bytes):
    """The lines of ``raw`` as text, decoded as they are read, one leading
    byte-order mark skipped. Bytes that are not UTF-8 raise after the whole
    lines before them, so a row the csv reader has not finished there is
    never yielded."""
    raw = raw.removeprefix(b"\xef\xbb\xbf")
    try:
        raw.decode()  # only to find the first fault: a stream fails a whole chunk
    except UnicodeDecodeError as exc:
        cut = max(raw.rfind(b"\n", 0, exc.start), raw.rfind(b"\r", 0, exc.start)) + 1
        yield from io.TextIOWrapper(io.BytesIO(raw[:cut]), encoding="utf-8", newline="")
        raise
    yield from io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")


@contextlib.contextmanager
def open_artifact(path):
    """``path`` opened to write an artifact, as UTF-8 text with each newline
    as written. An OS error opening or writing it, such as a directory in
    the way, raises a one-line :class:`UsageError`."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def write_csv(path, header: list, rows) -> None:
    """Write an artifact CSV: UTF-8, the ``header`` row, then ``rows``."""
    with open_artifact(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _check_header(path, fields, header: list) -> None:
    if [f.strip().lower() for f in fields] != header:
        raise IngestionError(f"{path}: line 1: expected header {','.join(header)!r}")


def _csv_tokens(path, raw: bytes, header: list):
    """The rows after the ``header`` row, by the csv module: each row's line
    number, its stripped fields as three columns of str, and the error for
    the row they end before, the first not of three fields or a read fault.
    A blank row of other than three fields is three empty ones."""
    rows = read_csv(path, raw)
    _check_header(path, next(rows), header)
    kept, error = [], None
    try:
        for line, row in enumerate(rows, 2):
            if len(row) != 3:
                if any(map(str.strip, row)):
                    error = IngestionError(f"{path}: line {line}: expected 3 fields")
                    break
                row = ("", "", "")  # blank, so dropped by _columns
            kept.append(row)
    except IngestionError as exc:  # a read fault
        error = exc
    columns = [np.array([row[i].strip() for row in kept], dtype=object) for i in range(3)]
    return np.arange(2, len(kept) + 2), columns, error


def _plain_tokens(path, raw: bytes, header: list):
    """:func:`_csv_tokens` of a plain file, by numpy over its bytes, with
    columns of bytes; None for any other file. A plain file is printable
    ASCII without ``"``, its lines end in LF or CRLF and none is longer than
    the csv module's field limit, and its fields padded to one width per
    column take at most 4 times its size (or 1 MiB)."""
    if not raw or raw.translate(None, _PLAIN_BYTES):
        return None
    buf = np.frombuffer(raw, np.uint8)
    lf = np.flatnonzero(buf == 10)
    crlf = buf[np.maximum(lf, 1) - 1] == 13  # a LF at 0 reads itself, not a CR
    if raw.count(b"\r") != np.count_nonzero(crlf):  # a CR not before a LF
        return None
    starts, ends = np.append(0, lf + 1), np.append(lf - crlf, len(buf))
    if starts[-1] == len(buf):  # nothing after the last line end
        starts, ends = starts[:-1], ends[:-1]
    widest = int((ends - starts).max())
    if widest > csv.field_size_limit() or len(ends) * widest > max(4 * len(raw), 1 << 20):
        return None
    _check_header(path, raw[: ends[0]].decode().split(","), header)
    starts, ends = starts[1:], ends[1:]
    commas = np.append(np.flatnonzero(buf == 44), [0, 0])  # padded for a line without
    first = np.searchsorted(commas[:-2], starts)
    three = np.searchsorted(commas[:-2], ends) - first == 2
    error = None
    for k in np.flatnonzero(~three).tolist():
        if raw[starts[k] : ends[k]].strip(b" ,"):  # a field not blank
            error = IngestionError(f"{path}: line {k + 2}: expected 3 fields")
            starts, ends, first, three = starts[:k], ends[:k], first[:k], three[:k]
            break
    one, two = commas[first], commas[first + 1]
    windows = np.lib.stride_tricks.as_strided(
        np.concatenate((buf, np.zeros(widest, np.uint8))), (len(buf) + 1, widest), (1, 1),
        writeable=False,
    )
    columns = [
        _fixed(windows, lo, np.where(three, hi, lo))  # blank rows: three empty fields
        for lo, hi in ((starts, one), (one + 1, two), (two + 1, ends))
    ]
    if b" " in raw:
        columns = [np.char.strip(column) for column in columns]
    return np.arange(2, len(starts) + 2), columns, error


def _fixed(windows, lo, hi) -> np.ndarray:
    """The bytes ``lo[i]:hi[i]`` of each row ``i`` as one fixed-width array,
    from ``windows``, whose row ``k`` holds the bytes from ``k`` on."""
    width = max(int((hi - lo).max(initial=0)), 1)
    chars = windows[lo, :width]
    chars[np.arange(width) >= (hi - lo)[:, None]] = 0  # the padding numpy strips
    return chars.view(f"S{width}").ravel()


def _empty(column) -> np.ndarray:
    return column == (b"" if column.dtype.kind == "S" else "")


def _texts(column) -> list:
    """The fields of a column of bytes or of str, as str."""
    return (column.astype("U") if column.dtype.kind == "S" else column).tolist()


def _columns(path, raw: bytes, header: list, empty_ok: bool = False):
    """The stripped fields of the non-blank rows after the ``header`` row of
    ``raw``, the bytes of ``path``, as three columns; each row's line number;
    and the error for the row they end before, the first not of three fields
    or a read fault. Nothing after the header is an error unless
    ``empty_ok``. A plain file's columns hold bytes, any other file's str."""
    lines, columns, error = _plain_tokens(path, raw, header) or _csv_tokens(path, raw, header)
    if not (len(lines) or error or empty_ok):
        raise IngestionError(f"{path}: no data rows")
    keep = ~(_empty(columns[0]) & _empty(columns[1]) & _empty(columns[2]))
    return lines[keep], [column[keep] for column in columns], error


def _parsed(column, parse, failed, dtype=float) -> np.ndarray:
    """``parse(text)`` of each text of ``column``, called once per distinct
    text, or ``failed`` where it raises."""
    distinct, inverse = _unique(column, return_inverse=True)
    table = []
    for text in _texts(distinct):
        try:
            table.append(parse(text))
        except (ValueError, IngestionError):
            table.append(failed)
    return np.array(table, dtype)[inverse]


def _floats(column) -> np.ndarray:
    """``float(text)`` of each text of ``column``; NaN where float() rejects it."""
    try:
        return column.astype(float)
    except ValueError:
        return _parsed(column, float, math.nan)


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
        raise IngestionError(f"{path}: line {lines[n]}: {word(*(_texts(c[n : n + 1])[0] for c in columns))}")
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
    raw = read_file(path)
    entry = _CacheEntry(raw, variable.value)
    cached = entry.load(lambda flat, names, starts, offsets: {
        region: _checked(MonthlySeries, region=region, variable=variable,
                         start=MonthIndex.from_ordinal(start), values=flat[lo:hi])
        for region, start, lo, hi in zip(
            names, starts.tolist(), offsets[:-1].tolist(), offsets[1:].tolist(), strict=True
        )
    })
    if cached is not None:
        return cached
    lines, columns, error = _columns(path, raw, SERIES_HEADER)
    regions, dates, texts = columns
    t = _parsed(dates, lambda text: MonthIndex.parse(text).ordinal, -1, np.intp)
    given = ~_empty(texts)  # an empty value is a missing month
    values = np.full(len(texts), np.nan)
    values[given] = _floats(texts[given])
    bad = (t < 0) | np.isinf(values) | given & np.isnan(values)
    n = int(bad.argmax()) if bad.any() else len(bad)
    distinct, first, rid = _unique(regions[:n], return_index=True, return_inverse=True)
    order = first.argsort()  # the regions in order of first appearance
    names = _texts(distinct[order])
    rid, t = order.argsort()[rid], t[:n]
    lo, hi = np.full(len(names), t.max(initial=0)), np.full(len(names), -1)
    np.minimum.at(lo, rid, t)
    np.maximum.at(hi, rid, t)
    offsets = np.concatenate(([0], np.cumsum(hi - lo + 1)))  # region k: months lo..hi
    keys = offsets[rid] + t - lo[rid]
    _check_rows(path, lines, columns, error, n, keys, _series_row_error)
    flat = np.full(offsets[-1], np.nan)
    flat[keys] = values
    flat.flags.writeable = False
    try:
        series = {
            region: MonthlySeries(region, variable, MonthIndex.from_ordinal(int(lo[k])),
                                  flat[offsets[k] : offsets[k + 1]])
            for k, region in enumerate(names)
        }
    except ParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from None
    entry.store(names, flat=flat, starts=lo, offsets=offsets)
    return series


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
    raw = read_file(path)
    entry = _CacheEntry(raw, "mobility")
    cached = entry.load(lambda weights, names: _checked(
        MobilityMatrix, regions=tuple(names), weights=weights.reshape(len(names), len(names))
    ))
    if cached is not None:
        return cached
    lines, columns, error = _columns(path, raw, MOBILITY_HEADER, empty_ok=True)
    sources, targets, texts = columns
    weights = _floats(texts)
    bad = ~(np.isfinite(weights) & (weights >= 0))
    n = int(bad.argmax()) if bad.any() else len(bad)
    regions, keys = _pair_keys(sources[:n], targets[:n])
    _check_rows(path, lines, columns, error, n, keys, _mobility_row_error)
    mobility = MobilityMatrix._scatter(regions, keys, weights)
    entry.store(mobility.regions, weights=mobility.weights)
    return mobility


def write_mobility(mobility: MobilityMatrix, path) -> None:
    rows = (
        (i, j, format(w, ".12g"))
        for i, row in zip(mobility.regions, mobility.weights.tolist())
        for j, w in zip(mobility.regions, row)
        if w != 0.0
    )
    write_csv(path, MOBILITY_HEADER, rows)


# ---------------------------------------------------------------------------
# Parse cache
# ---------------------------------------------------------------------------

# Smaller files are parsed every time: below about 30 KB (series) and 60 KB
# (mobility) reading an entry takes longer than the parse it replaces.
CACHE_MIN_BYTES = 64 * 1024


@functools.cache
def _parser_identity() -> str:
    """What a parse depends on besides its input: this module's source and
    numpy's version."""
    source = Path(__file__).read_bytes()
    return f"panel.py {zlib.crc32(source):08x} {len(source)}, numpy {np.__version__}"


class _CacheEntry:
    """The cached parse of an input file's bytes ``raw`` by ``loader``: an
    ``.npz`` named by the loader alone, holding the parse's arrays, the
    region names, the bytes and the parser's identity. So the cache holds one
    entry per loader, and storing another file's parse replaces it. Only an
    entry whose bytes and identity equal these is read, so a hit gives what
    the parse gave. A file below ``CACHE_MIN_BYTES`` or a cache directory
    that cannot be used has no entry."""

    def __init__(self, raw: bytes, loader: str):
        self.raw, self.path = raw, None
        if len(raw) < CACHE_MIN_BYTES:
            return
        try:
            self.identity = f"{loader}: {_parser_identity()}"
            home = os.environ.get("XDG_CACHE_HOME", "")
            base = Path(home) if os.path.isabs(home) else Path.home() / ".cache"
        except (OSError, RuntimeError):  # no source to name the parser, or no home directory
            return
        self.path = base / "denguewatch" / f"{loader}.npz"

    def load(self, build):
        """``build(**arrays)`` of the entry's arrays, read-only, or None when
        there is no entry for these bytes and this parser."""
        if self.path is None:
            return None
        try:
            # np.load leaves a file it opened itself open when its archive is unreadable
            with open(self.path, "rb") as fh, np.load(fh, allow_pickle=False) as entry:
                if entry["identity"].item() != self.identity or entry["raw"].tobytes() != self.raw:
                    return None
                arrays = {key: entry[key] for key in entry.files if key not in ("identity", "raw")}
            for values in arrays.values():
                values.flags.writeable = False
            arrays["names"] = arrays["names"].tolist()
            return build(**arrays)
        except Exception:  # no entry, or one that does not load as it was stored: parse
            return None

    def store(self, names, **arrays) -> None:
        """Write the entry for the parse that gave ``names`` and ``arrays``:
        whole, through a temporary file, or not at all."""
        stored = np.array(names, dtype=str)
        if self.path is None or stored.tolist() != list(names):  # numpy drops a trailing NUL
            return
        temporary = self.path.with_name(f".{self.path.name}.{os.getpid()}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(temporary, "wb") as fh:
                np.savez(fh, identity=self.identity, raw=np.frombuffer(self.raw, np.uint8),
                         names=stored, **arrays)
            os.replace(temporary, self.path)
        except OSError:  # a cache that cannot be written is left as it is
            with contextlib.suppress(OSError):
                temporary.unlink()


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
