"""Helpers that only the tests use, and the per-row loaders kept as oracles.

``reference_load_series_table`` and ``reference_load_mobility`` are the
loaders as they were before ingest became one streaming pass per file: read
every row into a list, parse each row into ``MonthIndex`` keys, build the
series month by month and validate every value in Python. The streaming
loaders in ``denguewatch.panel`` must return the same result, or raise the
same exception with the same message, on any file these accept or reject.

``reference_pearson`` is the scalar Pearson r as it was before the lag
search correlated all factors in one pass: the row pass in
``denguewatch.calibrate`` must give bit-identical r, or the same error.

``table2_fixture`` holds the published comparison rows the acceptance and
evaluation tests score.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from denguewatch.errors import CorrelationUndefinedError, IngestionError, ParameterError
from denguewatch.evaluation import OutbreakCalendar
from denguewatch.panel import (
    MOBILITY_HEADER,
    SERIES_HEADER,
    MobilityMatrix,
    MonthIndex,
    MonthlySeries,
    Variable,
    load_series_table,
)
from denguewatch.pareto import rank_points

_NONNEGATIVE = {Variable.INCIDENCE, Variable.SUSCEPTIBLE, Variable.POPULATION}


def load_series(path, variable: Variable, region: Optional[str] = None) -> MonthlySeries:
    """Load a single region's series; errors if the file mixes regions."""
    table = load_series_table(path, variable)
    if region is not None:
        if region not in table:
            raise IngestionError(f"{path}: no rows for region {region!r}")
        return table[region]
    if len(table) != 1:
        raise IngestionError(
            f"{path}: file contains {len(table)} regions "
            f"({', '.join(sorted(table))}); pass region= to pick one"
        )
    return next(iter(table.values()))


def values_of(series: MonthlySeries) -> tuple:
    """The series' values as Python floats, with None for a missing month."""
    return tuple(None if math.isnan(v) else v for v in series.values.tolist())


def as_tuple(series: MonthlySeries) -> tuple:
    """``(region, variable, start, values)``, the values as in :func:`values_of`,
    for exact comparison."""
    return series.region, series.variable, series.start, values_of(series)


def value_at(series: MonthlySeries, t: MonthIndex):
    """The series' value for month t, or None outside its span or at a gap."""
    i = t - series.start
    if 0 <= i < len(series.values) and not math.isnan(series.values[i]):
        return float(series.values[i])
    return None


class Point(NamedTuple):
    """A month's place in objective space, with its dominator count once ranked."""

    t: MonthIndex
    d1: float
    d2: float
    rank: int = -1  # -1 = not yet ranked


def with_ranks(points) -> list:
    """``points`` with the ranks ``rank_points`` gives them."""
    points = list(points)
    counts = rank_points([p.d1 for p in points], [p.d2 for p in points])
    return [p._replace(rank=int(c)) for p, c in zip(points, counts)]


def pareto_front(points) -> list:
    """The rank-0 (non-dominated) points, sorted by month."""
    return sorted((p for p in with_ranks(points) if p.rank == 0), key=lambda p: p.t)


def _read_rows(path) -> list:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return rows


def _check_series(region, variable, start, values) -> None:
    for i, v in enumerate(values):
        if v is None:
            continue
        if not math.isfinite(v):
            raise ParameterError(f"non-finite value at {start + i} in {region}/{variable.value}")
        if variable in _NONNEGATIVE and v < 0:
            raise ParameterError(f"negative {variable.value} at {start + i} in {region}")


def reference_load_series_table(path, variable: Variable) -> dict:
    rows = _read_rows(path)
    header = [c.strip().lower() for c in rows[0]]
    if header != SERIES_HEADER:
        raise IngestionError(f"{path}: line 1: expected header {','.join(SERIES_HEADER)!r}")
    if len(rows) == 1:
        raise IngestionError(f"{path}: no data rows")

    per_region: dict = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise IngestionError(f"{path}: line {lineno}: expected 3 fields")
        region, date_text, value_text = (c.strip() for c in row)
        try:
            t = MonthIndex.parse(date_text)
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
                raise IngestionError(f"{path}: line {lineno}: non-finite value {value_text!r}")
        bucket = per_region.setdefault(region, {})
        if t in bucket:
            raise IngestionError(f"{path}: line {lineno}: duplicate row for ({region}, {t})")
        bucket[t] = value

    out = {}
    for region, by_month in per_region.items():
        months = sorted(by_month)
        start, end = months[0], months[-1]
        values = tuple(by_month.get(start + i) for i in range(end - start + 1))
        try:
            _check_series(region, variable, start, values)
        except ParameterError as exc:
            raise IngestionError(f"{path}: {exc}") from None
        out[region] = MonthlySeries(region, variable, start, values)
    return out


def reference_load_mobility(path) -> MobilityMatrix:
    rows = _read_rows(path)
    header = [c.strip().lower() for c in rows[0]]
    if header != MOBILITY_HEADER:
        raise IngestionError(f"{path}: line 1: expected header {','.join(MOBILITY_HEADER)!r}")
    pairs: dict = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise IngestionError(f"{path}: line {lineno}: expected 3 fields")
        i, j, w_text = (c.strip() for c in row)
        try:
            w = float(w_text)
        except ValueError:
            raise IngestionError(f"{path}: line {lineno}: non-numeric weight {w_text!r}") from None
        if not math.isfinite(w) or w < 0:
            raise IngestionError(f"{path}: line {lineno}: weight must be finite and >= 0")
        if (i, j) in pairs:
            raise IngestionError(f"{path}: line {lineno}: duplicate pair ({i}, {j})")
        pairs[(i, j)] = w
    regions = sorted({r for key in pairs for r in key})
    idx = {r: k for k, r in enumerate(regions)}
    mat = [[0.0] * len(regions) for _ in regions]
    for (i, j), w in pairs.items():
        mat[idx[i]][idx[j]] = float(w)
    return MobilityMatrix(tuple(regions), tuple(tuple(r) for r in mat))


def reference_pearson(x, y) -> float:
    """Pearson r of one pair of vectors, with pairwise deletion."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ParameterError(f"length mismatch: {xa.size} vs {ya.size}")
    keep = ~(np.isnan(xa) | np.isnan(ya))
    xa, ya = xa[keep], ya[keep]
    if xa.size < 3:
        raise CorrelationUndefinedError(f"need >= 3 paired observations, got {xa.size}")
    xc = np.ldexp(xa - xa.mean(), -math.frexp(np.abs(xa - xa.mean()).max())[1])
    yc = np.ldexp(ya - ya.mean(), -math.frexp(np.abs(ya - ya.mean()).max())[1])
    ex, ey, n = float(xc.sum()), float(yc.sum()), xa.size
    sx = math.sqrt(max(float((xc * xc).sum()) - ex * ex / n, 0.0))
    sy = math.sqrt(max(float((yc * yc).sum()) - ey * ey / n, 0.0))
    if sx == 0.0 or sy == 0.0:
        raise CorrelationUndefinedError("zero variance in at least one argument")
    r = (float((xc * yc).sum()) - ex * ey / n) / (sx * sy)
    return max(-1.0, min(1.0, r))


def _months(*pairs):
    return tuple(MonthIndex(y, m) for y, m in pairs)


def table2_fixture():
    """Published comparison rows: actual outbreaks and both methods' flags.

    Dashes in the source table are omitted; the duplicated multi-criteria
    month (July 2013 appears against two actual rows) collapses in the set.
    """
    actual = OutbreakCalendar(
        _months(
            (2010, 7),
            (2011, 7),
            (2011, 12),
            (2012, 6),
            (2012, 7),
            (2012, 8),
            (2012, 11),
            (2013, 7),
            (2013, 8),
            (2014, 1),
            (2014, 6),
            (2014, 11),
            (2015, 1),
            (2016, 1),
            (2016, 7),
            (2017, 1),
            (2017, 5),
            (2017, 6),
            (2017, 7),
            (2017, 8),
            (2017, 12),
            (2018, 7),
            (2018, 11),
        )
    )
    multicriteria = set(
        _months(
            (2010, 7),
            (2011, 7),
            (2011, 12),
            (2012, 7),
            (2013, 7),
            (2014, 6),
            (2015, 1),
            (2016, 1),
            (2016, 7),
            (2017, 1),
            (2017, 5),
            (2017, 6),
            (2017, 7),
            (2017, 8),
            (2018, 1),
            (2018, 7),
            (2018, 11),
        )
    )
    regression = set(
        _months(
            (2010, 8),
            (2011, 8),
            (2012, 1),
            (2012, 7),
            (2012, 11),
            (2013, 7),
            (2013, 8),
            (2013, 12),
            (2014, 7),
            (2014, 11),
            (2015, 1),
            (2016, 2),
            (2016, 8),
            (2017, 1),
            (2017, 6),
            (2017, 7),
            (2017, 8),
            (2017, 12),
            (2018, 8),
        )
    )
    return actual, multicriteria, regression
