"""Correlation-based calibration: lags, rainfall cutoffs, risk exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CorrelationUndefinedError, ParameterError

#: Longest factor-to-incidence delay searched; the vector life cycle plus
#: incubation keeps plausible delays well under this.
DEFAULT_MAX_LAG = 6

#: |r| floor applied before exponent normalization so every exponent stays > 0.
CORRELATION_FLOOR = 0.05

_TIE_EPS = 1e-12

#: Closed-form band scores within this of the next higher one, chained down
#: from the best, are re-scored exactly (see :func:`rainfall_cutoffs`).
_CLUSTER_GAP = 1e-9

#: Most grid points :func:`rainfall_cutoffs` searches. Its work is bounded by
#: the distinct bands, at most (n + 1)**2 over n months, so the cap bounds
#: only the list of grid points itself.
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
    """Sample Pearson r with pairwise deletion of missing entries: the r of
    :func:`best_lag` at lag 0.

    Accepts sequences that may contain None/NaN; requires >= 3 surviving
    pairs and nonzero variance on both sides.
    """
    xa = np.asarray(x, dtype=float)  # None becomes NaN
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ParameterError(f"length mismatch: {xa.size} vs {ya.size}")
    return best_lag(xa.ravel(), ya.ravel(), 0).correlation


def _undefined(count: int) -> CorrelationUndefinedError:
    """The error :func:`pearson` raises for an undefined r over ``count`` pairs."""
    if count < 3:
        return CorrelationUndefinedError(f"need >= 3 paired observations, got {count}")
    return CorrelationUndefinedError("zero variance in at least one argument")


def _lagged_pearson(xs: np.ndarray, y: np.ndarray, lags: int):
    """r of each row of ``xs`` at month t - k against ``y`` at t, as
    :func:`pearson` gives it, for each lag k below ``lags``, and the count of
    paired months: two ``[lags, rows]`` arrays, r NaN where undefined.

    Each (lag, row) pair with at least 3 paired months is one slab of a
    C-contiguous ``[pairs, 2, months]`` array: its row, then the incidence,
    each holding the months both have, in order, left-aligned. Each sum is
    one reduction with a prefix mask: numpy hands a pair's one run of months
    to the pairwise sum a lone vector gets (zero padding would regroup it),
    so every r is bit-identical to one computed alone."""
    m, n = xs.shape
    padded = np.append(y, np.full(lags, np.nan))  # at lag k, month t pairs with padded[t + k]
    missing = np.isnan(padded)[np.arange(lags)[:, None] + np.arange(n)]
    keep = ~(np.isnan(xs) | missing[:, None])
    count = keep.sum(axis=-1)
    r = np.full((lags, m), np.nan)
    defined = np.flatnonzero(count >= 3)
    if not defined.size:
        return r, count
    size = count.ravel()[defined]
    lag, row = np.divmod(defined, m)
    # each pair's kept months first, in order: a stable sort of ~keep
    at = np.argsort(~keep.reshape(-1, n)[defined], axis=-1, kind="stable")[:, : size.max()]
    z = np.empty((defined.size, 2, at.shape[1]))
    z[:, 0], z[:, 1] = xs.ravel().take(row[:, None] * n + at), padded.take(lag[:, None] + at)
    pairs, months = size[:, None], z.shape[-1]
    mask = True if size.min() == months else np.arange(months) < pairs[:, :, None]
    mean = z.sum(axis=-1, keepdims=True, where=mask) / pairs[:, None]
    c = _unit_scaled(np.subtract(z, mean, out=np.zeros_like(z), where=mask))
    e = c.sum(axis=-1, where=mask)
    cc = c * c
    ee = cc.sum(axis=-1, where=mask)
    exy = np.multiply(c[:, :1], c[:, 1:], out=cc[:, :1]).sum(axis=-1, where=mask)[:, 0]
    # Corrected two-pass sums (Chan, Golub & LeVeque 1983): the subtracted
    # terms take out the rounding error of each mean, which dominates when
    # the spread is a few ulps of the mean; elsewhere they are below half
    # an ulp of the sum and change nothing.
    s = np.sqrt(np.maximum(ee - e * e / pairs, 0.0))
    sxy = s[:, 0] * s[:, 1]  # 0 only where a factor is: sqrt(2**-1074)**2 is 2**-1074
    rb = np.full(sxy.shape, np.nan)
    np.divide(exy - e[:, 0] * e[:, 1] / size, sxy, out=rb, where=sxy != 0.0)
    r.flat[defined] = np.minimum(np.maximum(rb, -1.0, out=rb), 1.0, out=rb)
    return r, count


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v, scaled in place by the power of two that brings its max-abs into
    [0.5, 1), each row on its own when v has more than one axis.

    Squaring then neither underflows nor overflows, so r stays affine
    invariant near zero variance; a power-of-two scale is exact, so r is
    unchanged wherever the squares were already in range.
    """
    peak = np.abs(v).max(axis=-1, keepdims=True)
    return np.ldexp(v, -np.frexp(peak)[1], out=v)


def best_lags(factors, incidence, max_lag: int = DEFAULT_MAX_LAG) -> list:
    """For each factor, the lag in [0, max_lag] whose cross-correlation
    magnitude is largest, or the error that lag search ends in.

    ``factors`` and ``incidence`` are NaN-marked columns over the same span.
    The factor at t - k is correlated with incidence at t; |r| is maximized
    (rainfall-style factors may act through a negative association). Ties
    break toward the smaller lag. The signed r at the chosen lag is reported.
    A factor with no defined correlation at any lag gets the
    :class:`CorrelationUndefinedError` of the last lag tried. Every lag of
    every factor is correlated in one :func:`_lagged_pearson` pass.
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
    r, count = _lagged_pearson(stack, inc, min(max_lag, n) + 1)  # lags past n: as n
    best = [None] * len(columns)  # (lag, r) once one is defined
    for k, row in enumerate(r.tolist()):
        for i, v in enumerate(row):
            if v == v and (best[i] is None or abs(v) > abs(best[i][1]) + _TIE_EPS):
                best[i] = (k, v)
    return [_undefined(c) if b is None else LagResult(*b) for b, c in zip(best, count[-1].tolist())]


def best_lag(factor, incidence, max_lag: int = DEFAULT_MAX_LAG) -> LagResult:
    """:func:`best_lags` of one factor; raises its error."""
    (result,) = best_lags([factor], incidence, max_lag)
    if isinstance(result, CorrelationUndefinedError):
        raise result
    return result


def rainfall_cutoffs(rain, incidence, grid_step: float = 10.0) -> CutoffResult:
    """Grid-search the rainfall plateau maximizing correlation with incidence.

    ``rain`` and ``incidence`` are NaN-marked columns over the same span,
    rain lagged as R applies it. Candidate cutoffs are the multiples of
    ``grid_step`` inside its observed range. For each pair r_min < r_max it
    is turned into the plateau indicator (1 inside the band, 0 outside) and
    correlated with incidence; the trapezoid shoulders are a property of the
    final membership function, not of the search objective, so they are left
    out here (including them biases the optimum toward a narrower plateau).
    Pairs are taken r_min first, then r_max, ascending; a pair replaces the
    best so far when its r is higher by more than 1e-12, or within 1e-12 and
    its band is wider by more than 1e-12. So a tie goes to the wider band,
    and between bands of equal width to the first one found.

    Closed form. Over the n paired months, with c the centred incidence as
    :func:`pearson` computes it and ey = sum(c), a band holding k months
    whose c sum to C has

        r = (C - k*ey/n) / (sqrt(k*(n - k)/n) * sqrt(sum(c*c) - ey**2/n)).

    With the months sorted by rainfall once, k and C of a band come from
    ``searchsorted`` on the G grid points and a cumulative sum of c. Points
    with equal search indices give one band, so each distinct band is scored
    once, in one broadcast: O(n log n + min(G, n + 1)**2). A band is
    undefined exactly where :func:`pearson` raises: n < 3, constant
    incidence, or k in {0, n}.

    Same pair as the exhaustive loop. The closed form sums in another
    order, so it is trusted only to rank. The bands reached from the best
    closed-form score through gaps of at most ``_CLUSTER_GAP`` (1e-9) are
    re-scored by the kernel behind :func:`pearson` (a band's closed-form
    score is defined, so its r is), and their pairs replayed in pair order
    under the rule above. The two differ by rounding only (under 1e-13 on
    panels of up to 12,000 months, incidence like 1e8 + 1e-7*j included),
    far below the gap, so every pair outside the cluster has an r below
    every pair inside by more than 1e-12. It can then neither tie with nor
    replace a pair of the cluster, and the first cluster pair replaces any
    best found before it: the exhaustive loop and the replayed cluster end
    on the same pair.
    """
    if grid_step <= 0:
        raise ParameterError(f"grid_step must be > 0, got {grid_step}")
    ra = np.asarray(rain, dtype=float)
    ia = np.asarray(incidence, dtype=float)
    if ra.shape != ia.shape:
        raise ParameterError(f"length mismatch: {ra.size} vs {ia.size}")
    present = ra[~np.isnan(ra)]
    if present.size == 0:
        raise CalibrationError("rain series has no present values after lagging")
    lo, hi = float(present.min()), float(present.max())
    if lo == hi:
        raise CalibrationError("rainfall series is constant; cutoffs undefined")
    first, last = float(np.ceil(lo / grid_step)), float(np.floor(hi / grid_step))
    # A float, as int() of an overflowed bound would raise; inf once one has.
    points = math.inf if math.isinf(first) or math.isinf(last) else last - first + 1
    if not points <= _MAX_GRID_POINTS:
        raise CalibrationError(
            f"calibration.grid_step {grid_step} is too fine: {points:.16g} grid points "
            f"in [{lo}, {hi}], at most {_MAX_GRID_POINTS} are searched"
        )
    grid = [k * grid_step for k in range(int(first), int(last) + 1)]
    if len(grid) < 2:
        raise CalibrationError(
            f"empty grid: step {grid_step} leaves {len(grid)} point(s) in [{lo}, {hi}]"
        )

    keep = ~(np.isnan(ra) | np.isnan(ia))
    x, y = ra[keep], ia[keep]
    order = np.argsort(x)
    sorted_rain, cuts = x[order], np.array(grid, dtype=float)
    band_lo = np.searchsorted(sorted_rain, cuts, "left")  # first month >= r_min
    band_hi = np.searchsorted(sorted_rain, cuts, "right")  # past the last <= r_max
    # Neither decreases along the grid, so each run of equal values is one
    # band edge: r_min runs from lo_first to lo_last, r_max likewise.
    lo_last = np.append(np.flatnonzero(band_lo[1:] != band_lo[:-1]), len(grid) - 1)
    hi_last = np.append(np.flatnonzero(band_hi[1:] != band_hi[:-1]), len(grid) - 1)
    lo_first, hi_first = np.append(0, lo_last[:-1] + 1), np.append(0, hi_last[:-1] + 1)
    score = _band_scores(y, order, band_lo[lo_first][:, None], band_hi[hi_last])
    score[lo_first[:, None] >= hi_last] = -np.inf  # no pair r_min < r_max gives the band
    defined = score[score > -np.inf]
    if defined.size == 0:
        raise CalibrationError("no cutoff pair produced a defined correlation")
    top = np.sort(defined)[::-1]
    gaps = np.flatnonzero(top[:-1] - top[1:] > _CLUSTER_GAP)
    floor = top[gaps[0]] if gaps.size else top[-1]

    runs, bands = np.nonzero(score >= floor)
    inside = (x >= cuts[lo_first[runs], None]) & (x <= cuts[hi_last[bands], None])
    exact = _lagged_pearson(inside.astype(float), y, 1)[0][0].tolist()
    # For one r_min a band's pairs come in a row, each a grid step wider. With
    # steps well over the tie width and the rounding of a width, once one of
    # them replaces the best the rest do too: the widest alone ends the same.
    if grid_step > 4 * _TIE_EPS + 5 * math.ulp(2 * max(abs(grid[0]), abs(grid[-1]))):
        hi_first = hi_last
    edges = (lo_first[runs], lo_last[runs], hi_first[bands], hi_last[bands])
    pairs = sorted(
        (i, j, r)
        for i0, i1, j0, j1, r in zip(*(a.tolist() for a in edges), exact)
        for i in range(i0, i1 + 1)
        for j in range(max(j0, i + 1), j1 + 1)
    )
    best: CutoffResult | None = None
    for i, j, r in pairs:
        a, b = grid[i], grid[j]
        if best is None or r > best.correlation + _TIE_EPS:
            best = CutoffResult(a, b, r)
        elif abs(r - best.correlation) <= _TIE_EPS and (
            b - a > best.r_max - best.r_min + _TIE_EPS
        ):
            best = CutoffResult(a, b, r)
    return best


def _band_scores(y: np.ndarray, order: np.ndarray, band_lo, band_hi) -> np.ndarray:
    """Closed-form r of each band [band_lo, band_hi), bounds broadcast, of the
    months sorted by ``order``, against y; -inf where :func:`pearson` raises."""
    n = y.size
    k = band_hi - band_lo
    score = np.full(k.shape, -np.inf)
    if n < 3:
        return score
    c = _unit_scaled(y - y.sum() / n)  # y.mean(), without its Python wrapper
    ey = float(c.sum())
    sy = math.sqrt(max(float((c * c).sum()) - ey * ey / n, 0.0))
    if sy == 0.0:
        return score
    ok = (k > 0) & (k < n)
    inside = np.concatenate(([0.0], np.cumsum(c[order])))
    k = k[ok]
    score[ok] = ((inside[band_hi] - inside[band_lo])[ok] - k * ey / n) / (
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


def estimate_exponents(factors, incidence) -> tuple:
    """Risk exponents from each factor's correlation magnitude with
    incidence at lag 0. Each factor is a NaN-marked column over the span of
    ``incidence``, already lagged as R applies it; an undefined correlation
    counts as |r| = 0.
    """
    factors = list(factors)
    if len(factors) != 4:
        raise ParameterError(f"expected 4 factor series, got {len(factors)}")
    return exponents_from_correlations(
        0.0 if isinstance(r, CorrelationUndefinedError) else abs(r.correlation)
        for r in best_lags(factors, incidence, 0)
    )
