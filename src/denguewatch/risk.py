"""Risk composition: lagged input columns, mobility risk, and the
two-objective closeness space.

For a target region the model maps each admissible month t to

    R(t) = product of lagged membership degrees raised to their exponents
    L(t) = (S(t-1)/N(t-1)) * (I(t-1)/I_peak)
    d1   = clamp(1 - R/r_ideal), d2 = clamp(1 - L/l_ideal)

so that months closest to the ideal point (0, 0) are outbreak candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import MissingDataError, ParameterError, PipelineError
from .fuzzy import PiecewiseLinearMF
from .panel import MonthIndex, Panel, Variable


@dataclass(frozen=True)
class Lags:
    rain: int = 2
    temp: int = 3
    humid: int = 2
    mobility: int = 1

    def __post_init__(self):
        for name in ("rain", "temp", "humid", "mobility"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise ParameterError(f"lag {name} must be an integer >= 0, got {v!r}")


@dataclass(frozen=True)
class RiskParams:
    """Everything needed to turn a panel into objective space."""

    mobility_c: float
    lags: Lags = field(default_factory=Lags)
    exponents: tuple = (1.0, 1.0, 1.0, 1.0)  # rain, temp, humid, mobility
    r_ideal: float = 1.0
    l_ideal: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(c) for c in self.exponents))
        if len(self.exponents) != 4 or any(
            not (math.isfinite(c) and c > 0) for c in self.exponents
        ):
            raise ParameterError(f"exponents must be 4 positive reals, got {self.exponents}")
        for name in ("r_ideal", "l_ideal"):
            v = getattr(self, name)
            if not (0 < v <= 1):
                raise ParameterError(f"{name} must lie in (0, 1], got {v}")
        if not (math.isfinite(self.mobility_c) and self.mobility_c > 0):
            raise ParameterError(f"mobility_c must be > 0, got {self.mobility_c}")


@dataclass(frozen=True)
class MembershipFunctions:
    rain: PiecewiseLinearMF
    temp: PiecewiseLinearMF
    humid: PiecewiseLinearMF
    mobility: PiecewiseLinearMF


@dataclass(frozen=True)
class RiskMonth:
    t: MonthIndex
    R: float
    L: float
    d1: float
    d2: float


@dataclass(frozen=True)
class RiskSeries:
    region: str
    months: tuple  # of RiskMonth, chronological
    skipped: tuple = ()  # months excluded for missing lagged inputs


def lagged_column(panel: Panel, region: str, variable: Variable, lag: int = 0) -> np.ndarray:
    """``variable`` of ``region`` at month t - lag, for every month t of the
    aligned span; NaN where that month is missing or outside the series, and
    everywhere when the region has no such series."""
    start, end = panel.span
    out = np.full(end - start + 1, np.nan)
    series = panel.get(region, variable)
    if series is not None:
        values = series.to_array()
        first = (start - lag) - series.start  # index of month start - lag in values
        lo, hi = max(0, -first), min(out.size, values.size - first)
        if lo < hi:
            out[lo:hi] = values[first + lo : first + hi]
    return out


def mobility_risk(panel: Panel, region: str, lag: int = 0) -> np.ndarray:
    """R_mob(region, t - lag) = sum_j w_ij * I_j / N_j for every month t of
    the aligned span.

    Only positive weights contribute, so a region behind a zero weight may
    lack data. A month is NaN when a region behind a positive weight has no
    I or N then, or N = 0. A region without a mobility row gets 0.0; a panel
    without a mobility matrix gives all-NaN.
    """
    start, end = panel.span
    mobility = panel.mobility
    if mobility is None:
        return np.full(end - start + 1, np.nan)
    total = np.zeros(end - start + 1)
    if region not in mobility.regions:
        return total
    row = mobility.weights[mobility.regions.index(region)]
    for j, w in zip(mobility.regions, row):
        if w > 0.0:
            pop = lagged_column(panel, j, Variable.POPULATION, lag)
            pop[pop == 0.0] = np.nan
            # Not W @ density: 0 * NaN would poison months behind zero weights.
            total += w * (lagged_column(panel, j, Variable.INCIDENCE, lag) / pop)
    return total


class InputColumns(NamedTuple):
    """A target's model inputs for every month t of the aligned span, NaN
    where the input month is missing or precedes the series."""

    rain: np.ndarray  # at t - lags.rain
    temp: np.ndarray  # at t - lags.temp
    humid: np.ndarray  # at t - lags.humid
    mobility: np.ndarray  # R_mob at t - lags.mobility
    infected: np.ndarray  # at t - 1
    susceptible: np.ndarray  # at t - 1
    population: np.ndarray  # at t - 1


def input_columns(panel: Panel, region: str, lags: Lags) -> InputColumns:
    return InputColumns(
        lagged_column(panel, region, Variable.RAINFALL, lags.rain),
        lagged_column(panel, region, Variable.TEMPERATURE, lags.temp),
        lagged_column(panel, region, Variable.HUMIDITY, lags.humid),
        mobility_risk(panel, region, lags.mobility),
        lagged_column(panel, region, Variable.INCIDENCE, 1),
        lagged_column(panel, region, Variable.SUSCEPTIBLE, 1),
        lagged_column(panel, region, Variable.POPULATION, 1),
    )


def incidence_peak(panel: Panel, region: str) -> float:
    """Maximum infected count over the (calibration) span of the panel."""
    inc = panel.get(region, Variable.INCIDENCE)
    if inc is None:
        raise MissingDataError(f"no incidence series for region {region}")
    present = [v for v in inc.values if v is not None]
    if not present:
        raise MissingDataError(f"incidence series for region {region} is all-missing")
    peak = max(present)
    if peak == 0:
        raise ParameterError(f"region {region} never records an infected host")
    return peak


def objective_space(
    panel: Panel, mfs: MembershipFunctions, params: RiskParams, region: str
) -> RiskSeries:
    """Map every admissible month of the aligned span into (d1, d2).

    Months whose lagged inputs are missing are omitted and listed in
    ``skipped``. Raises :class:`PipelineError` if nothing is admissible.
    """
    if panel.span is None:
        raise ParameterError("panel must be aligned before building objective space")
    start, end = panel.span
    i_peak = incidence_peak(panel, region)
    cols = input_columns(panel, region, params.lags)
    zero_pop = np.flatnonzero(
        ~np.isnan(cols.infected) & ~np.isnan(cols.susceptible) & (cols.population == 0.0)
    )
    if zero_pop.size:
        raise ParameterError(
            f"region {region} has zero population at {start + (int(zero_pop[0]) - 1)}"
        )
    ok = ~np.isnan(np.column_stack(cols)).any(axis=1)
    degrees = zip(
        mfs.rain.evaluate(cols.rain[ok]),
        mfs.temp.evaluate(cols.temp[ok]),
        mfs.humid.evaluate(cols.humid[ok]),
        mfs.mobility.evaluate(cols.mobility[ok]),
    )
    # Python float ** (libm pow): numpy's array ** can differ in the last bit.
    r = np.clip(
        [math.prod(float(m) ** c for m, c in zip(row, params.exponents)) for row in degrees],
        0.0,
        1.0,
    )
    l = np.clip(cols.susceptible[ok] / cols.population[ok], 0.0, 1.0) * np.clip(
        cols.infected[ok] / i_peak, 0.0, 1.0
    )
    d1 = np.clip(1.0 - r / params.r_ideal, 0.0, 1.0)
    d2 = np.clip(1.0 - l / params.l_ideal, 0.0, 1.0)
    months = tuple(
        RiskMonth(start + int(k), *row)
        for k, row in zip(np.flatnonzero(ok), np.column_stack((r, l, d1, d2)).tolist())
    )
    if not months:
        raise PipelineError(
            f"no admissible months for region {region} in span {start}..{end}"
        )
    skipped = tuple(start + int(k) for k in np.flatnonzero(~ok))
    return RiskSeries(region=region, months=months, skipped=skipped)


def default_mobility_c(r_mob: np.ndarray, region: str) -> float:
    """Largest mobility risk in ``r_mob``, the region's R_mob column over the
    aligned span, skipping NaN months (the normalizer C)."""
    best = float(np.max(r_mob, initial=0.0, where=~np.isnan(r_mob)))
    if best <= 0:
        raise ParameterError(
            f"mobility risk never positive for region {region}; set mobility_c explicitly"
        )
    return best
