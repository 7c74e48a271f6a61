"""Correlation-based calibration: lags, rainfall cutoffs, risk exponents."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CorrelationUndefinedError, ParameterError
from .panel import MonthlySeries, align, lag_shift, Panel

#: Lags (months) used when calibration is skipped: rainfall, temperature,
#: humidity, mobility.
DEFAULT_LAGS = {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}

#: Longest factor-to-incidence delay searched; the vector life cycle plus
#: incubation keeps plausible delays well under this.
DEFAULT_MAX_LAG = 6

#: |r| floor applied before exponent normalization so every exponent stays > 0.
CORRELATION_FLOOR = 0.05

_TIE_EPS = 1e-12


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
    keep = ~(np.isnan(xa) | np.isnan(ya))
    xa, ya = xa[keep], ya[keep]
    if xa.size < 3:
        raise CorrelationUndefinedError(
            f"need >= 3 paired observations, got {xa.size}"
        )
    xc = _unit_scaled(xa - xa.mean())
    yc = _unit_scaled(ya - ya.mean())
    # Corrected two-pass sums (Chan, Golub & LeVeque 1983): the subtracted
    # terms take out the rounding error of each mean, which dominates when
    # the spread is a few ulps of the mean; elsewhere they are below half an
    # ulp of the sum and change nothing.
    ex, ey, n = float(xc.sum()), float(yc.sum()), xa.size
    sx = math.sqrt(max(float((xc * xc).sum()) - ex * ex / n, 0.0))
    sy = math.sqrt(max(float((yc * yc).sum()) - ey * ey / n, 0.0))
    if sx == 0.0 or sy == 0.0:
        raise CorrelationUndefinedError("zero variance in at least one argument")
    r = (float((xc * yc).sum()) - ex * ey / n) / (sx * sy)
    return max(-1.0, min(1.0, r))


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v times the power of two that brings its max-abs into [0.5, 1).

    Squaring then neither underflows nor overflows, so r stays affine
    invariant near zero variance; a power-of-two scale is exact, so r is
    unchanged wherever the squares were already in range.
    """
    return np.ldexp(v, -math.frexp(np.abs(v).max())[1])


def _paired_arrays(a: MonthlySeries, b: MonthlySeries):
    """Overlap two series on their common span, as NaN-marked arrays."""
    p = align(Panel(series={("a", a.variable): a, ("b", b.variable): b}))
    return (
        p.series[("a", a.variable)].to_array(),
        p.series[("b", b.variable)].to_array(),
    )


def best_lag(
    factor: MonthlySeries, incidence: MonthlySeries, max_lag: int = DEFAULT_MAX_LAG
) -> LagResult:
    """Lag in [0, max_lag] whose cross-correlation magnitude is largest.

    The factor is shifted forward k months and correlated with incidence;
    |r| is maximized (rainfall-style factors may act through a negative
    association). Ties break toward the smaller lag. The signed r at the
    chosen lag is reported.
    """
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    best: LagResult | None = None
    last_error: CorrelationUndefinedError | None = None
    for k in range(max_lag + 1):
        try:
            fa, ia = _paired_arrays(lag_shift(factor, k), incidence)
            r = pearson(fa, ia)
        except CorrelationUndefinedError as exc:
            last_error = exc
            continue
        if best is None or abs(r) > abs(best.correlation) + _TIE_EPS:
            best = LagResult(k, r)
    if best is None:
        raise last_error if last_error is not None else CorrelationUndefinedError(
            "no lag produced a defined correlation"
        )
    return best


def rainfall_cutoffs(
    rain: MonthlySeries,
    incidence: MonthlySeries,
    lag: int,
    grid_step: float = 10.0,
) -> CutoffResult:
    """Grid-search the rainfall plateau maximizing correlation with incidence.

    Candidate cutoffs are the multiples of ``grid_step`` inside the observed
    rainfall range. For each pair (r_min, r_max) the lagged rainfall is turned
    into the plateau indicator (1 inside the band, 0 outside) and correlated
    with incidence; the trapezoid shoulders are a property of the final
    membership function, not of the search objective, so they are left out
    here (including them biases the optimum toward a narrower plateau).
    Ties break toward the widest plateau, then the smallest r_min.
    """
    if grid_step <= 0:
        raise ParameterError(f"grid_step must be > 0, got {grid_step}")
    ra, ia = _paired_arrays(lag_shift(rain, lag), incidence)
    present = ra[~np.isnan(ra)]
    if present.size == 0:
        raise CalibrationError("rain series has no present values after lagging")
    lo, hi = float(present.min()), float(present.max())
    if lo == hi:
        raise CalibrationError("rainfall series is constant; cutoffs undefined")
    first = int(np.ceil(lo / grid_step))
    last = int(np.floor(hi / grid_step))
    grid = [k * grid_step for k in range(first, last + 1)]
    if len(grid) < 2:
        raise CalibrationError(
            f"empty grid: step {grid_step} leaves {len(grid)} point(s) in [{lo}, {hi}]"
        )

    best: CutoffResult | None = None
    for ai, a in enumerate(grid):
        for b in grid[ai + 1 :]:
            z = ((ra >= a) & (ra <= b)).astype(float)
            z[np.isnan(ra)] = np.nan
            try:
                r = pearson(z, ia)
            except CorrelationUndefinedError:
                continue
            if best is None:
                best = CutoffResult(a, b, r)
                continue
            if r > best.correlation + _TIE_EPS:
                best = CutoffResult(a, b, r)
            elif abs(r - best.correlation) <= _TIE_EPS:
                width, best_width = b - a, best.r_max - best.r_min
                if width > best_width + _TIE_EPS or (
                    abs(width - best_width) <= _TIE_EPS and a < best.r_min
                ):
                    best = CutoffResult(a, b, r)
    if best is None:
        raise CalibrationError("no cutoff pair produced a defined correlation")
    return best


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


def estimate_exponents(
    factors, incidence: MonthlySeries, max_lag: int = DEFAULT_MAX_LAG
) -> tuple:
    """Risk exponents from each factor's best-lag correlation magnitude.

    A factor whose correlation is undefined counts as |r| = 0.
    """
    factors = list(factors)
    if len(factors) != 4:
        raise ParameterError(f"expected 4 factor series, got {len(factors)}")
    mags = []
    for f in factors:
        try:
            mags.append(abs(best_lag(f, incidence, max_lag).correlation))
        except CorrelationUndefinedError:
            mags.append(0.0)
    return exponents_from_correlations(mags)
