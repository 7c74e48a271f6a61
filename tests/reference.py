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

``reference_pearson_rows``, ``reference_objective_space`` and
``reference_predict_and_extract`` are those functions as they were before
the per-origin path was cut down to fewer numpy calls: y in its own pass
beside the rows, R as a per-month ``math.prod`` of powers of numpy scalars
with each month from ``MonthIndex`` arithmetic, and the spike scan over
numpy scalars. The package must give equal results, bit for bit, and the
same errors. ``reference_best_lags`` is the lag search as it was before every
lag went into one masked pass: one ``reference_pearson_rows`` call per lag.

``table2_fixture`` holds the published comparison rows the acceptance and
evaluation tests score.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from denguewatch.baseline import _quantile
from denguewatch.calibrate import LagResult
from denguewatch.errors import (
    CorrelationUndefinedError,
    IngestionError,
    ParameterError,
    PipelineError,
)
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
from denguewatch.risk import RiskMonth, RiskSeries, incidence_peak, target_columns

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


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    peak = np.abs(v).max(axis=-1, keepdims=True)
    return np.ldexp(v, -np.frexp(peak)[1])


def reference_pearson_rows(xs: np.ndarray, y: np.ndarray) -> list:
    """Pearson r of each row of ``xs`` against ``y``, or the error pearson
    raises for it: rows grouped by mask, y centred in a pass of its own."""
    keep = ~(np.isnan(xs) | np.isnan(y))
    groups = {}
    for i, row in enumerate(keep):
        groups.setdefault(row.tobytes(), []).append(i)
    out = [None] * len(xs)
    for rows in groups.values():
        mask = keep[rows[0]]
        n = int(np.count_nonzero(mask))
        if n < 3:
            for i in rows:
                out[i] = CorrelationUndefinedError(f"need >= 3 paired observations, got {n}")
            continue
        x = np.ascontiguousarray(xs[rows][:, mask])
        ya = y[mask]
        xc = _unit_scaled(x - (x.sum(axis=1) / n)[:, None])
        yc = _unit_scaled(ya - ya.sum() / n)
        ey = float(yc.sum())
        sy = math.sqrt(max(float((yc * yc).sum()) - ey * ey / n, 0.0))
        sums = zip(
            xc.sum(axis=1).tolist(),
            (xc * xc).sum(axis=1).tolist(),
            (xc * yc).sum(axis=1).tolist(),
        )
        for i, (ex, exx, exy) in zip(rows, sums):
            sx = math.sqrt(max(exx - ex * ex / n, 0.0))
            if sx == 0.0 or sy == 0.0:
                out[i] = CorrelationUndefinedError("zero variance in at least one argument")
            else:
                r = (exy - ex * ey / n) / (sx * sy)
                out[i] = max(-1.0, min(1.0, r))
    return out


def reference_best_lags(factors, incidence, max_lag: int) -> list:
    """Each factor's best lag as a LagResult, or the error of its last lag,
    from one reference row pass per lag; ties within 1e-12 keep the smaller
    lag."""
    inc = np.asarray(incidence, dtype=float)
    stack = np.array([np.asarray(f, dtype=float) for f in factors]).reshape(len(factors), inc.size)
    n = inc.size
    best = [None] * len(stack)
    for k in range(min(max_lag, n) + 1):
        for i, r in enumerate(reference_pearson_rows(stack[:, : n - k], inc[k:])):
            found = isinstance(best[i], LagResult)
            if isinstance(r, CorrelationUndefinedError):
                if not found:
                    best[i] = r
            elif not found or abs(r) > abs(best[i].correlation) + 1e-12:
                best[i] = LagResult(k, r)
    return best


def reference_objective_space(
    panel, calibration, region: str, r_ideal=1.0, l_ideal=1.0
) -> RiskSeries:
    """The objective space with R as a product over each month's row of
    membership degrees, and each month's record from MonthIndex arithmetic."""
    cols = target_columns(
        panel, region, Variable.INCIDENCE, Variable.SUSCEPTIBLE, Variable.POPULATION
    )
    start, end = panel.span
    i_peak = incidence_peak(cols.infected, region)
    inputs = cols.inputs(calibration.lags)
    rain, temp, humid, r_mob, infected, susceptible, population = inputs
    zero_pop = np.flatnonzero(~np.isnan(infected) & ~np.isnan(susceptible) & (population == 0.0))
    if zero_pop.size:
        raise ParameterError(
            f"region {region} has zero population at {start + (int(zero_pop[0]) - 1)}"
        )
    ok = ~np.isnan(np.column_stack(inputs)).any(axis=1)
    mfs = calibration.membership
    degrees = zip(
        mfs.rain.evaluate(rain[ok]),
        mfs.temp.evaluate(temp[ok]),
        mfs.humid.evaluate(humid[ok]),
        mfs.mobility.evaluate(r_mob[ok]),
    )
    r = np.clip(
        [math.prod(float(m) ** c for m, c in zip(row, calibration.exponents)) for row in degrees],
        0.0,
        1.0,
    )
    l = np.clip(susceptible[ok] / population[ok], 0.0, 1.0) * np.clip(
        infected[ok] / i_peak, 0.0, 1.0
    )
    d1 = np.clip(1.0 - r / r_ideal, 0.0, 1.0)
    d2 = np.clip(1.0 - l / l_ideal, 0.0, 1.0)
    months = tuple(
        RiskMonth(start + int(k), *row)
        for k, row in zip(np.flatnonzero(ok), np.column_stack((r, l, d1, d2)).tolist())
    )
    if not months:
        raise PipelineError(f"no admissible months for region {region} in span {start}..{end}")
    skipped = tuple(start + int(k) for k in np.flatnonzero(~ok))
    return RiskSeries(region=region, months=months, skipped=skipped)


def reference_predict_and_extract(fitted, months, threshold_quantile) -> list:
    """The months whose fitted value is over the quantile and a local peak,
    scanned over numpy scalars."""
    d = np.asarray(fitted, dtype=float)
    threshold = _quantile(d, threshold_quantile)
    predicted = []
    for i, t in enumerate(months):
        if d[i] <= threshold:
            continue
        left = d[i - 1] if i > 0 else -np.inf
        right = d[i + 1] if i < len(d) - 1 else -np.inf
        if d[i] >= left and d[i] >= right and (d[i] > left or d[i] > right):
            predicted.append(t)
    return predicted


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
