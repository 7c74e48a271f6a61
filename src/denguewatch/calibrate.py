"""Correlation-based calibration: lags, rainfall cutoffs, risk exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CorrelationUndefinedError, ParameterError

#: Lags (months) used when calibration is skipped: rainfall, temperature,
#: humidity, mobility.
DEFAULT_LAGS = {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}

#: Longest factor-to-incidence delay searched; the vector life cycle plus
#: incubation keeps plausible delays well under this.
DEFAULT_MAX_LAG = 6

#: |r| floor applied before exponent normalization so every exponent stays > 0.
CORRELATION_FLOOR = 0.05

_TIE_EPS = 1e-12

#: Closed-form band scores within this of the next higher one, chained down
#: from the best, are re-scored exactly (see :func:`rainfall_cutoffs`).
_CLUSTER_GAP = 1e-9

#: Most grid points :func:`rainfall_cutoffs` scores. The pair broadcast peaks
#: at about 72 bytes per (r_min, r_max) pair (tracemalloc, 120 months), so
#: 2,700 points, 3.6 million pairs, keep its temporaries under 256 MiB.
_MAX_GRID_POINTS = 2700


@dataclass(frozen=True)
class LagResult:
    lag_months: int
    correlation: float


@dataclass(frozen=True)
class CutoffResult:
    r_min: float
    r_max: float
    correlation: float


def pearson(x, y) -> float:
    """Sample Pearson r with pairwise deletion of missing entries.

    Accepts sequences that may contain None/NaN; requires >= 3 surviving
    pairs and nonzero variance on both sides.
    """
    xa = np.asarray(x, dtype=float)  # None becomes NaN
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ParameterError(f"length mismatch: {xa.size} vs {ya.size}")
    (r,) = _pearson_rows(xa.reshape(1, -1), ya.reshape(-1))
    if isinstance(r, CorrelationUndefinedError):
        raise r
    return r


def _pearson_rows(xs: np.ndarray, y: np.ndarray) -> list:
    """:func:`pearson` of each row of the float array ``xs`` against ``y``;
    where it would raise, the entry is the error it would raise.

    Rows that keep the same months (both sides present) share one pass over
    a C-contiguous ``[rows + 1, n]`` array whose last row is ``y``, so one
    set of row reductions gives every row's sums and y's as well. Each row
    is reduced with the same elementwise steps as a lone vector, so every r
    is bit-identical to one computed alone.
    """
    keep = ~(np.isnan(xs) | np.isnan(y))
    if keep.all():  # every row keeps every month: one group, nothing to select
        groups = [(range(len(xs)), xs, y)] if len(xs) else []
    else:
        by_mask = {}
        for i, row in enumerate(keep):
            by_mask.setdefault(row.tobytes(), []).append(i)
        groups = [
            (rows, xs[rows][:, keep[rows[0]]], y[keep[rows[0]]]) for rows in by_mask.values()
        ]
    out = [None] * len(xs)
    for rows, x, ya in groups:
        n = ya.size
        if n < 3:
            for i in rows:
                out[i] = CorrelationUndefinedError(
                    f"need >= 3 paired observations, got {n}"
                )
            continue
        # Filled in place: boolean column indexing alone gives an F-ordered
        # array, whose row sums round differently from a lone vector's.
        z = np.empty((len(rows) + 1, n))
        z[:-1], z[-1] = x, ya
        c = _unit_scaled(z - z.sum(axis=1, keepdims=True) / n)
        e = c.sum(axis=1).tolist()
        ee = (c * c).sum(axis=1).tolist()
        exys = (c * c[-1]).sum(axis=1).tolist()
        # Corrected two-pass sums (Chan, Golub & LeVeque 1983): the subtracted
        # terms take out the rounding error of each mean, which dominates when
        # the spread is a few ulps of the mean; elsewhere they are below half
        # an ulp of the sum and change nothing.
        ey = e[-1]
        sy = math.sqrt(max(ee[-1] - ey * ey / n, 0.0))
        for i, ex, exx, exy in zip(rows, e, ee, exys):  # stops before y's row
            sx = math.sqrt(max(exx - ex * ex / n, 0.0))
            if sx == 0.0 or sy == 0.0:
                out[i] = CorrelationUndefinedError(
                    "zero variance in at least one argument"
                )
            else:
                r = (exy - ex * ey / n) / (sx * sy)
                out[i] = max(-1.0, min(1.0, r))
    return out


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its max-abs into [0.5, 1), each
    row on its own when v is 2-D.

    Squaring then neither underflows nor overflows, so r stays affine
    invariant near zero variance; a power-of-two scale is exact, so r is
    unchanged wherever the squares were already in range.
    """
    peak = np.abs(v).max(axis=-1, keepdims=True)
    return np.ldexp(v, -np.frexp(peak)[1])


def lagged_pair(factor, incidence, k: int):
    """The factor at month t - k beside incidence at month t, for every month
    t of the span the two equal-length columns cover: a lag is a slice offset.
    """
    fa = np.asarray(factor, dtype=float)
    ia = np.asarray(incidence, dtype=float)
    if fa.shape != ia.shape:
        raise ParameterError(f"length mismatch: {fa.size} vs {ia.size}")
    if k < 0:
        raise ParameterError(f"lag must be >= 0, got {k}")
    return fa[: max(ia.size - k, 0)], ia[k:]


def band_indicator(rain, r_min: float, r_max: float) -> np.ndarray:
    """1.0 where r_min <= rain <= r_max, else 0.0; NaN where rain is NaN."""
    rain = np.asarray(rain, dtype=float)
    inside = ((rain >= r_min) & (rain <= r_max)).astype(float)
    return np.where(np.isnan(rain), np.nan, inside)


def best_lags(factors, incidence, max_lag: int = DEFAULT_MAX_LAG) -> list:
    """For each factor, the lag in [0, max_lag] whose cross-correlation
    magnitude is largest, or the error that lag search ends in.

    ``factors`` and ``incidence`` are NaN-marked columns over the same span.
    The factor at t - k is correlated with incidence at t; |r| is maximized
    (rainfall-style factors may act through a negative association). Ties
    break toward the smaller lag. The signed r at the chosen lag is reported.
    A factor with no defined correlation at any lag gets the
    :class:`CorrelationUndefinedError` of the last lag tried. Each lag
    correlates every factor in one :func:`_pearson_rows` pass.
    """
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    inc = np.asarray(incidence, dtype=float)
    columns = [np.asarray(f, dtype=float) for f in factors]
    for fa in columns:
        if fa.shape != inc.shape:
            raise ParameterError(f"length mismatch: {fa.size} vs {inc.size}")
    n = inc.size
    stack = np.array(columns).reshape(len(columns), n)
    best = [None] * len(columns)  # a LagResult, or the last error until one is found
    for k in range(min(max_lag, n) + 1):  # lags past n pair no months, as lag n
        for i, r in enumerate(_pearson_rows(stack[:, : n - k], inc[k:])):
            found = isinstance(best[i], LagResult)
            if isinstance(r, CorrelationUndefinedError):
                if not found:
                    best[i] = r
            elif not found or abs(r) > abs(best[i].correlation) + _TIE_EPS:
                best[i] = LagResult(k, r)
    return best


def best_lag(factor, incidence, max_lag: int = DEFAULT_MAX_LAG) -> LagResult:
    """:func:`best_lags` of one factor; raises its error."""
    (result,) = best_lags([factor], incidence, max_lag)
    if isinstance(result, CorrelationUndefinedError):
        raise result
    return result


def rainfall_cutoffs(rain, incidence, lag: int, grid_step: float = 10.0) -> CutoffResult:
    """Grid-search the rainfall plateau maximizing correlation with incidence.

    ``rain`` and ``incidence`` are NaN-marked columns over the same span.
    Candidate cutoffs are the multiples of ``grid_step`` inside the observed
    range of the lagged rainfall. For each pair r_min < r_max the lagged
    rainfall is turned into the plateau indicator (1 inside the band, 0
    outside) and correlated with incidence; the trapezoid shoulders are a
    property of the final membership function, not of the search objective,
    so they are left out here (including them biases the optimum toward a
    narrower plateau). Pairs are taken r_min first, then r_max, ascending;
    a pair replaces the best so far when its r is higher by more than 1e-12,
    or within 1e-12 and its band is wider, or as wide with a smaller r_min.

    Closed form. Over the n paired months, with c the centred incidence as
    :func:`pearson` computes it and ey = sum(c), a band holding k months
    whose c sum to C has

        r = (C - k*ey/n) / (sqrt(k*(n - k)/n) * sqrt(sum(c*c) - ey**2/n)).

    With the months sorted by rainfall once, k and C of every pair come
    from ``searchsorted`` on the grid and a cumulative sum of c, so all
    G*(G-1)/2 pairs are scored in one broadcast, O(n log n + G**2). A pair
    is undefined exactly where :func:`pearson` raises: n < 3, constant
    incidence, or k in {0, n}.

    Same pair as the exhaustive loop. The closed form sums in another
    order, so it is trusted only to rank. The pairs reached from the best
    closed-form score through gaps of at most ``_CLUSTER_GAP`` (1e-9) are
    re-scored with :func:`pearson`, in pair order, under the rule above.
    The two differ by rounding only (under 1e-13 on panels of up to 12,000
    months, incidence like 1e8 + 1e-7*j included), far below the gap, so
    every pair outside the cluster has an r below every pair inside by
    more than 1e-12. It can then neither tie with nor replace a pair of
    the cluster, and the first cluster pair replaces any best found before
    it: the exhaustive loop and the re-scored cluster end on the same pair.
    Pairs with equal search indices share one indicator, so each such band
    is re-scored once.
    """
    if grid_step <= 0:
        raise ParameterError(f"grid_step must be > 0, got {grid_step}")
    ra, ia = lagged_pair(rain, incidence, lag)
    present = ra[~np.isnan(ra)]
    if present.size == 0:
        raise CalibrationError("rain series has no present values after lagging")
    lo, hi = float(present.min()), float(present.max())
    if lo == hi:
        raise CalibrationError("rainfall series is constant; cutoffs undefined")
    first, last = np.ceil(lo / grid_step), np.floor(hi / grid_step)
    points = last - first + 1  # a float, as int() of an overflowed bound would raise
    if not points <= _MAX_GRID_POINTS:
        raise CalibrationError(
            f"calibration.grid_step {grid_step} is too fine: {points:.0f} grid points "
            f"in [{lo}, {hi}], at most {_MAX_GRID_POINTS} are searched"
        )
    grid = [k * grid_step for k in range(int(first), int(last) + 1)]
    if len(grid) < 2:
        raise CalibrationError(
            f"empty grid: step {grid_step} leaves {len(grid)} point(s) in [{lo}, {hi}]"
        )

    keep = ~(np.isnan(ra) | np.isnan(ia))
    x, y = ra[keep], ia[keep]
    lows, highs = np.triu_indices(len(grid), 1)  # the pairs in loop order
    order = np.argsort(x)
    sorted_rain, cuts = x[order], np.array(grid, dtype=float)
    band_lo = np.searchsorted(sorted_rain, cuts, "left")[lows]  # first month >= r_min
    band_hi = np.searchsorted(sorted_rain, cuts, "right")[highs]  # past the last <= r_max
    score = _band_scores(y, order, band_lo, band_hi)
    defined = score[score > -np.inf]
    if defined.size == 0:
        raise CalibrationError("no cutoff pair produced a defined correlation")
    top = np.sort(defined)[::-1]
    gaps = np.flatnonzero(top[:-1] - top[1:] > _CLUSTER_GAP)
    floor = top[gaps[0]] if gaps.size else top[-1]

    best: CutoffResult | None = None
    exact = {}
    p = np.flatnonzero(score >= floor)
    bands = zip(band_lo[p].tolist(), band_hi[p].tolist())
    for i, j, band in zip(lows[p].tolist(), highs[p].tolist(), bands):
        a, b = grid[i], grid[j]
        if band not in exact:
            exact[band] = pearson(band_indicator(x, a, b), y)
        r = exact[band]
        if best is None or r > best.correlation + _TIE_EPS:
            best = CutoffResult(a, b, r)
        elif abs(r - best.correlation) <= _TIE_EPS:
            width, best_width = b - a, best.r_max - best.r_min
            if width > best_width + _TIE_EPS or (
                abs(width - best_width) <= _TIE_EPS and a < best.r_min
            ):
                best = CutoffResult(a, b, r)
    return best


def _band_scores(y: np.ndarray, order: np.ndarray, band_lo, band_hi) -> np.ndarray:
    """Closed-form r of each band [band_lo, band_hi) of the months sorted by
    ``order``, against y; -inf where :func:`pearson` would raise."""
    n = y.size
    score = np.full(band_lo.size, -np.inf)
    if n < 3:
        return score
    c = _unit_scaled(y - y.mean())
    ey = float(c.sum())
    sy = math.sqrt(max(float((c * c).sum()) - ey * ey / n, 0.0))
    if sy == 0.0:
        return score
    k = band_hi - band_lo
    ok = (k > 0) & (k < n)
    inside = np.concatenate(([0.0], np.cumsum(c[order])))
    k = k[ok]
    score[ok] = (inside[band_hi[ok]] - inside[band_lo[ok]] - k * ey / n) / (
        np.sqrt(k * (n - k) / n) * sy
    )
    return score


def exponents_from_correlations(correlations) -> tuple:
    """Exponents proportional to |r|, normalized to sum to 4.

    Each |r| is floored at CORRELATION_FLOOR so no exponent collapses to
    zero; errors out if every correlation sits below the floor.
    """
    mags = [abs(float(r)) for r in correlations]
    if len(mags) != 4:
        raise ParameterError(f"expected 4 correlations, got {len(mags)}")
    if all(m < CORRELATION_FLOOR for m in mags):
        raise CalibrationError(
            "all factor correlations fall below the floor; exponents undefined"
        )
    floored = [max(m, CORRELATION_FLOOR) for m in mags]
    total = sum(floored)
    return tuple(4.0 * m / total for m in floored)


def estimate_exponents(factors, incidence, max_lag: int = DEFAULT_MAX_LAG) -> tuple:
    """Risk exponents from each factor's best-lag correlation magnitude.

    Each factor is a NaN-marked column over the span of ``incidence``. A
    factor whose correlation is undefined counts as |r| = 0.
    """
    factors = list(factors)
    if len(factors) != 4:
        raise ParameterError(f"expected 4 factor series, got {len(factors)}")
    return exponents_from_correlations(
        0.0 if isinstance(r, CorrelationUndefinedError) else abs(r.correlation)
        for r in best_lags(factors, incidence, max_lag)
    )
