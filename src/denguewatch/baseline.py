"""Identity-link linear-regression baseline and outbreak month extraction.

Incidence is regressed on an intercept plus six lagged regressors (rainfall,
temperature, humidity, mobility risk, last month's infected and susceptible
counts) by ordinary least squares.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, SingularDesignError, UnderdeterminedError
from .panel import MonthIndex, Panel, Variable
from .risk import Lags, target_columns

COLUMN_NAMES = (
    "intercept",
    "rain_lagged",
    "temp_lagged",
    "humid_lagged",
    "mobility_risk_lagged",
    "infected_prev",
    "susceptible_prev",
)

DEFAULT_THRESHOLD_QUANTILE = 0.85

_MIN_ROWS = 8


def build_design(panel: Panel, lags: Lags, region: str):
    """Design matrix, response vector, and the months each row belongs to.

    Rows with any missing regressor or response are dropped. The region's I
    and S series must exist. Raises :class:`UnderdeterminedError` below 8
    complete rows.
    """
    cols = target_columns(panel, region, Variable.INCIDENCE, Variable.SUSCEPTIBLE)
    first = panel.span[0].ordinal
    regressors = cols.inputs(lags)[:6]  # all but N
    design = np.column_stack((np.ones(len(cols.rain)), *regressors))
    response = cols.infected
    keep = ~(np.isnan(design).any(axis=1) | np.isnan(response))
    rows = int(keep.sum())
    if rows < _MIN_ROWS:
        raise UnderdeterminedError(
            f"only {rows} complete rows; need at least {_MIN_ROWS}"
        )
    months = [MonthIndex.from_ordinal(first + k) for k in np.flatnonzero(keep).tolist()]
    return design[keep], response[keep], months


def fit_ols(design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via QR, aligned with ``COLUMN_NAMES``;
    rejects rank-deficient designs and non-finite coefficients.

    A column is collinear when its R diagonal collapses against the column's
    own norm, whatever its units; the error names the collinear ones.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2 or design.shape[1] != len(COLUMN_NAMES):
        raise ParameterError(
            f"design must have {len(COLUMN_NAMES)} columns, got shape {design.shape}"
        )
    q, r = np.linalg.qr(design)
    # Column k of R has the norm of column k of the design; hypot cannot overflow.
    norm = np.hypot.reduce(r, axis=0)
    bad = np.abs(np.diag(r)) <= norm * (design.shape[0] * np.finfo(float).eps * 1e3)
    if bad.any():
        names = [COLUMN_NAMES[i] for i in np.nonzero(bad)[0]]
        raise SingularDesignError(f"design is rank deficient; collinear columns: {', '.join(names)}")
    coeffs = np.linalg.solve(r, q.T @ response)
    if not np.isfinite(coeffs).all():
        raise ParameterError("coefficients must be finite")
    return coeffs


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` bit for bit, by its default linear rule on
    the sorted values, without the ``numpy.ma`` import that it costs."""
    s = np.sort(values).tolist()
    if math.isnan(s[-1]):  # NaN sorts last
        return math.nan
    pos = (len(s) - 1) * q
    i = math.floor(pos) if pos < len(s) - 1 else -1  # -1: numpy's index of the last value
    a, b, t = s[i], s[i + 1 if i >= 0 else -1], pos - i
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def predict_and_extract(
    fitted, months, threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE
) -> list:
    """The months where ``fitted``, the fitted incidence of each of ``months``,
    spikes: over the given quantile of all fitted values, and a local maximum
    over a +-1-month window with -inf past either end.
    """
    if not 0 < threshold_quantile < 1:
        raise ParameterError(f"threshold_quantile must lie in (0, 1), got {threshold_quantile}")
    d = np.asarray(fitted, dtype=float)
    if len(d) != len(months):
        raise ParameterError("fitted values and months disagree")
    padded = np.concatenate(([-math.inf], d, [-math.inf]))
    left, right = padded[:-2], padded[2:]
    over = ~(d <= _quantile(d, threshold_quantile))  # a NaN threshold passes every month
    flag = over & (d >= left) & (d >= right) & ((d > left) | (d > right))
    return [months[i] for i in np.flatnonzero(flag).tolist()]
