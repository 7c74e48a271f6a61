"""Identity-link linear-regression baseline and outbreak month extraction.

Incidence is regressed on an intercept plus six lagged regressors (rainfall,
temperature, humidity, mobility risk, last month's infected and susceptible
counts) by ordinary least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class GlmCoefficients:
    values: tuple  # b0..b6, aligned with COLUMN_NAMES

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(COLUMN_NAMES):
            raise ParameterError(f"expected {len(COLUMN_NAMES)} coefficients")
        if not all(np.isfinite(vals)):
            raise ParameterError("coefficients must be finite")


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


def fit_ols(design: np.ndarray, response: np.ndarray) -> GlmCoefficients:
    """Least-squares fit via QR; rejects rank-deficient designs.

    On rank deficiency the error names the columns whose R diagonal
    collapsed (the collinear ones).
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2 or design.shape[1] != len(COLUMN_NAMES):
        raise ParameterError(
            f"design must have {len(COLUMN_NAMES)} columns, got shape {design.shape}"
        )
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    scale = max(diag.max(), 1.0)
    bad = diag <= scale * design.shape[0] * np.finfo(float).eps * 1e3
    if bad.any():
        names = [COLUMN_NAMES[i] for i in np.nonzero(bad)[0]]
        raise SingularDesignError(f"design is rank deficient; collinear columns: {', '.join(names)}")
    coeffs = np.linalg.solve(r, q.T @ response)
    return GlmCoefficients(tuple(coeffs))


def fitted_values(coeffs: GlmCoefficients, design: np.ndarray) -> np.ndarray:
    return np.asarray(design, dtype=float) @ np.array(coeffs.values)


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
    coeffs: GlmCoefficients,
    design: np.ndarray,
    months,
    threshold_quantile: float = DEFAULT_THRESHOLD_QUANTILE,
) -> list:
    """Months where the fitted incidence spikes.

    A month is predicted iff its fitted value exceeds the given quantile of
    all fitted values and is a local maximum over a +-1-month window.
    """
    if not 0 < threshold_quantile < 1:
        raise ParameterError(
            f"threshold_quantile must lie in (0, 1), got {threshold_quantile}"
        )
    d = fitted_values(coeffs, design)
    if len(d) != len(months):
        raise ParameterError("design rows and months disagree")
    threshold = _quantile(d, threshold_quantile)
    d = d.tolist()
    predicted = []
    for i, t in enumerate(months):
        if d[i] <= threshold:
            continue
        left = d[i - 1] if i > 0 else -math.inf
        right = d[i + 1] if i < len(d) - 1 else -math.inf
        if d[i] >= left and d[i] >= right and (d[i] > left or d[i] > right):
            predicted.append(t)
    return predicted
