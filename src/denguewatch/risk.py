"""Risk composition: a target's input columns, mobility risk, and the
two-objective closeness space.

For a target region the model maps each admissible month t to

    R(t) = product of lagged membership degrees raised to their exponents
    L(t) = (S(t-1)/N(t-1)) * (I(t-1)/I_peak)
    d1   = clamp(1 - R/r_ideal), d2 = clamp(1 - L/l_ideal)

so that months closest to the ideal point (0, 0) are outbreak candidates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .calibrate import CutoffResult
from .errors import MissingDataError, ParameterError, PipelineError
from .fuzzy import PiecewiseLinearMF
from .panel import MobilityMatrix, MonthIndex, Panel, Variable, shift


@dataclass(frozen=True)
class Lags:
    rain: int = 2
    temp: int = 3
    humid: int = 2
    mobility: int = 1

    def __post_init__(self):
        for name in FACTORS:
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 0):
                raise ParameterError(f"lag {name} must be an integer >= 0, got {v!r}")


#: The model's factors, in the order R multiplies them. Each names a field of
#: :class:`Lags`, :class:`MembershipFunctions` and :class:`TargetColumns`.
FACTORS = tuple(f.name for f in fields(Lags))


@dataclass(frozen=True)
class MembershipFunctions:
    rain: PiecewiseLinearMF
    temp: PiecewiseLinearMF
    humid: PiecewiseLinearMF
    mobility: PiecewiseLinearMF


@dataclass(frozen=True)
class Calibration:
    """The calibrated model: each factor's lag, membership function and
    exponent, with the correlations and rainfall band they came from."""

    lags: Lags
    correlations: dict  # factor name -> signed r at the chosen lag
    cutoffs: CutoffResult
    exponents: tuple  # in FACTORS order
    mobility_c: float
    # The membership functions the calibrated values define.
    membership: MembershipFunctions = field(compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(c) for c in self.exponents))
        if len(self.exponents) != 4 or any(
            not (math.isfinite(c) and c > 0) for c in self.exponents
        ):
            raise ParameterError(
                f"calibration.exponents must be 4 positive reals, got {self.exponents}"
            )

    def to_dict(self) -> dict:
        return {
            "lags": asdict(self.lags),
            "correlations": dict(self.correlations),
            "rainfall_cutoffs": asdict(self.cutoffs),
            "exponents": list(self.exponents),
            "mobility_c": self.mobility_c,
        }


class RiskMonth(NamedTuple):
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


@dataclass(frozen=True)
class TargetColumns:
    """A target region's series over the aligned span, one read-only entry
    per month: NaN where a month is missing, all-NaN where the region lacks
    the series."""

    rain: np.ndarray
    temp: np.ndarray
    humid: np.ndarray
    mobility: np.ndarray  # R_mob
    infected: np.ndarray
    susceptible: np.ndarray
    population: np.ndarray
    mobility_pad: float  # R_mob before the span: 0.0, an empty sum, when unfed

    def __post_init__(self):  # shared by every stage of a run, which only reads them
        for f in fields(self)[:-1]:  # the arrays, not mobility_pad
            getattr(self, f.name).flags.writeable = False

    def inputs(self, lags: Lags) -> tuple:
        """Each month t's model inputs: rain, temp, humid and R_mob at t
        minus their lag, then I, S and N at t - 1."""
        return (
            shift(self.rain, lags.rain),
            shift(self.temp, lags.temp),
            shift(self.humid, lags.humid),
            shift(self.mobility, lags.mobility, self.mobility_pad),
            shift(self.infected, 1),
            shift(self.susceptible, 1),
            shift(self.population, 1),
        )


def _column(panel: Panel, region: str, variable: Variable) -> np.ndarray:
    series = panel.get(region, variable)
    if series is None:
        return np.full(panel.span[1] - panel.span[0] + 1, np.nan)
    return series.values


def _feeders(mobility: MobilityMatrix, region: str) -> list:
    if region not in mobility.regions:
        return []
    row = mobility.weights[mobility.regions.index(region)]
    return [(j, w) for j, w in zip(mobility.regions, row) if w > 0.0]


def mobility_risk(panel: Panel, region: str) -> np.ndarray:
    """R_mob(region, t) = sum_j w_ij * I_j / N_j for every month t of the
    aligned span.

    Only positive weights contribute, so a region behind a zero weight may
    lack data. A month is NaN when a region behind a positive weight has no
    I or N then, or N = 0. A region without a mobility row gets 0.0; a panel
    without a mobility matrix gives all-NaN.
    """
    start, end = panel.span
    if panel.mobility is None:
        return np.full(end - start + 1, np.nan)
    total = np.zeros(end - start + 1)
    for j, w in _feeders(panel.mobility, region):
        pop = _column(panel, j, Variable.POPULATION)
        # Not W @ density: 0 * NaN would poison months behind zero weights.
        total += w * (_column(panel, j, Variable.INCIDENCE) / np.where(pop == 0.0, np.nan, pop))
    return total


def target_columns(panel: Panel, region: str, *required: Variable) -> TargetColumns:
    """The region's columns at lag 0 over the aligned span, built once per
    panel. Each series in ``required`` must exist
    (:class:`MissingSeriesError` otherwise); any other the region lacks is
    all-NaN."""
    if panel.span is None:
        raise ParameterError("panel must be aligned before building columns")
    for variable in required:
        panel.require(region, variable)
    cols = panel.columns.get(region)
    if cols is None:
        cols = panel.columns[region] = TargetColumns(
            _column(panel, region, Variable.RAINFALL),
            _column(panel, region, Variable.TEMPERATURE),
            _column(panel, region, Variable.HUMIDITY),
            mobility_risk(panel, region),
            _column(panel, region, Variable.INCIDENCE),
            _column(panel, region, Variable.SUSCEPTIBLE),
            _column(panel, region, Variable.POPULATION),
            0.0 if panel.mobility is not None and not _feeders(panel.mobility, region) else np.nan,
        )
    return cols


def incidence_peak(infected: np.ndarray, region: str) -> float:
    """Maximum infected count over the (calibration) span, skipping NaN."""
    present = infected[~np.isnan(infected)]
    if not present.size:
        raise MissingDataError(f"incidence series for region {region} is all-missing")
    peak = float(present.max())
    if peak == 0:
        raise ParameterError(f"region {region} never records an infected host")
    return peak


def objective_space(
    panel: Panel, calibration: Calibration, region: str, r_ideal=1.0, l_ideal=1.0
) -> RiskSeries:
    """Map every admissible month of the aligned span into (d1, d2), with the
    lags, membership functions and exponents of ``calibration`` and the ideal
    point (``r_ideal``, ``l_ideal``), each in (0, 1].

    Months whose lagged inputs are missing are omitted and listed in
    ``skipped``. The region's I, S and N series must exist. Raises
    :class:`PipelineError` if nothing is admissible.

    R is built by column: each factor's degrees are raised to its exponent
    with Python's float ``**`` (libm pow; numpy's array ``**`` can differ in
    the last bit), and the four columns multiply in factor order from 1.0,
    the order of a per-month ``math.prod``.
    """
    for name, v in (("r_ideal", r_ideal), ("l_ideal", l_ideal)):
        if not (0 < v <= 1):
            raise ParameterError(f"{name} must lie in (0, 1], got {v}")
    cols = target_columns(
        panel, region, Variable.INCIDENCE, Variable.SUSCEPTIBLE, Variable.POPULATION
    )
    start, end = panel.span
    i_peak = incidence_peak(cols.infected, region)
    inputs = cols.inputs(calibration.lags)
    infected, susceptible, population = inputs[4:]
    zero_pop = np.flatnonzero(~np.isnan(infected) & ~np.isnan(susceptible) & (population == 0.0))
    if zero_pop.size:
        raise ParameterError(
            f"region {region} has zero population at {start + (int(zero_pop[0]) - 1)}"
        )
    ok = ~np.isnan(np.column_stack(inputs)).any(axis=1)
    r = 1.0
    for name, column, c in zip(FACTORS, inputs, calibration.exponents):
        mf = getattr(calibration.membership, name)
        r = r * np.array([m**c for m in mf.evaluate(column[ok]).tolist()])
    r = np.clip(r, 0.0, 1.0)
    l = np.clip(susceptible[ok] / population[ok], 0.0, 1.0) * np.clip(
        infected[ok] / i_peak, 0.0, 1.0
    )
    with np.errstate(over="ignore"):  # an ideal near 5e-324 overflows to inf: d = 0
        d1 = np.clip(1.0 - r / r_ideal, 0.0, 1.0)
        d2 = np.clip(1.0 - l / l_ideal, 0.0, 1.0)
    first = start.ordinal
    t = [MonthIndex.from_ordinal(first + k) for k in np.flatnonzero(ok).tolist()]
    months = tuple(map(RiskMonth, t, r.tolist(), l.tolist(), d1.tolist(), d2.tolist()))
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
