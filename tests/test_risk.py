import math
from dataclasses import replace

import numpy as np
import pytest

from denguewatch.baseline import build_design
from denguewatch.errors import ParameterError, PipelineError, UnderdeterminedError
from denguewatch.fuzzy import (
    PiecewiseLinearMF,
    humidity_mf_default,
    mobility_mf,
    rainfall_mf_from_cutoffs,
    temperature_mf_default,
)
from denguewatch.panel import (
    MobilityMatrix,
    MonthIndex,
    MonthlySeries,
    Panel,
    Variable,
    align,
)
from denguewatch.risk import (
    Lags,
    MembershipFunctions,
    RiskMonth,
    RiskParams,
    mobility_risk,
    objective_space,
)

START = MonthIndex(2015, 1)


def identity_mf():
    # membership equals the raw value on [0, 1]
    return PiecewiseLinearMF(((0.0, 0.0), (1.0, 1.0)))


def mk_panel(rain, temp, humid, inc, sus, pop=None, inc_nb=None, weight=1.0):
    n = len(rain)
    pop = pop if pop is not None else [100.0] * n
    inc_nb = inc_nb if inc_nb is not None else inc
    series = {
        ("WP", Variable.RAINFALL): MonthlySeries("WP", Variable.RAINFALL, START, tuple(rain)),
        ("WP", Variable.TEMPERATURE): MonthlySeries("WP", Variable.TEMPERATURE, START, tuple(temp)),
        ("WP", Variable.HUMIDITY): MonthlySeries("WP", Variable.HUMIDITY, START, tuple(humid)),
        ("WP", Variable.INCIDENCE): MonthlySeries("WP", Variable.INCIDENCE, START, tuple(inc)),
        ("WP", Variable.SUSCEPTIBLE): MonthlySeries("WP", Variable.SUSCEPTIBLE, START, tuple(sus)),
        ("WP", Variable.POPULATION): MonthlySeries("WP", Variable.POPULATION, START, tuple(pop)),
        ("NB", Variable.INCIDENCE): MonthlySeries("NB", Variable.INCIDENCE, START, tuple(inc_nb)),
        ("NB", Variable.POPULATION): MonthlySeries("NB", Variable.POPULATION, START, tuple(pop)),
    }
    mobility = MobilityMatrix(("NB", "WP"), ((0.0, 0.0), (weight, 0.0)))
    return align(Panel(series=series, mobility=mobility))


def unit_mfs(c_max=1.0):
    return MembershipFunctions(
        rain=identity_mf(), temp=identity_mf(), humid=identity_mf(),
        mobility=mobility_mf(c_max),
    )


def zero_lag_params(**kw):
    defaults = dict(mobility_c=1.0, lags=Lags(0, 0, 0, 0))
    defaults.update(kw)
    return RiskParams(**defaults)


class TestRiskParams:
    def test_defaults(self):
        p = RiskParams(mobility_c=2.0)
        assert (p.lags.rain, p.lags.temp, p.lags.humid, p.lags.mobility) == (2, 3, 2, 1)
        assert p.r_ideal == 1.0 and p.l_ideal == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            RiskParams(mobility_c=0.0)
        with pytest.raises(ParameterError):
            RiskParams(mobility_c=1.0, exponents=(1, 1, 1, 0))
        with pytest.raises(ParameterError):
            RiskParams(mobility_c=1.0, r_ideal=1.5)
        with pytest.raises(ParameterError):
            Lags(rain=-1)


def density_panel(rows, densities):
    """Mobility ``rows`` (region -> weights over the sorted regions) and each
    listed region's I/N per month, with N = 100; None marks a missing I."""
    series = {}
    for r, ds in densities.items():
        inc = tuple(None if d is None else 100.0 * d for d in ds)
        pop = (100.0,) * len(ds)
        series[(r, Variable.INCIDENCE)] = MonthlySeries(r, Variable.INCIDENCE, START, inc)
        series[(r, Variable.POPULATION)] = MonthlySeries(r, Variable.POPULATION, START, pop)
    regions = tuple(sorted(rows))
    mobility = MobilityMatrix(regions, tuple(rows[r] for r in regions))
    return align(Panel(series=series, mobility=mobility))


class TestMobilityRisk:
    def test_all_weights_zero(self):
        panel = density_panel({"A": (0, 0), "B": (0, 0)}, {"A": [1.0], "B": [1.0]})
        assert mobility_risk(panel, "A").tolist() == [0.0]

    def test_dot_product(self):
        panel = density_panel(
            {"A": (0, 1, 2), "B": (0, 0, 0), "C": (0, 0, 0)},
            {"A": [9.0], "B": [0.1], "C": [0.2]},
        )
        assert mobility_risk(panel, "A").tolist() == pytest.approx([0.5])

    def test_single_neighbor(self):
        panel = density_panel({"A": (0, 1), "B": (0, 0)}, {"B": [0.3]})
        assert mobility_risk(panel, "A").tolist() == pytest.approx([0.3])

    def test_missing_density_is_nan_for_that_month(self):
        panel = density_panel({"A": (0, 1), "B": (0, 0)}, {"B": [None, 0.3]})
        r = mobility_risk(panel, "A")
        assert math.isnan(r[0]) and r[1] == pytest.approx(0.3)


def first_month(panel, params, mfs=None):
    return objective_space(panel, mfs or unit_mfs(), params, "WP").months[0]


class TestRegionalRisk:
    """R through objective_space; with zero lags the first month is skipped
    (L needs last month), so months[0] is START + 1."""

    def _panel(self):
        n = 4
        # raw values already in [0,1]; identity memberships expose them
        return mk_panel(
            rain=[0.5] * n, temp=[1.0] * n, humid=[1.0] * n,
            inc=[10.0] * n, sus=[50.0] * n,
        )

    def test_all_memberships_one(self):
        panel = mk_panel([1.0] * 4, [1.0] * 4, [1.0] * 4, [100.0] * 4, [50.0] * 4)
        assert first_month(panel, zero_lag_params()).R == pytest.approx(1.0)

    def test_zero_membership_annihilates(self):
        panel = mk_panel([0.0] * 4, [1.0] * 4, [1.0] * 4, [100.0] * 4, [50.0] * 4)
        assert first_month(panel, zero_lag_params()).R == 0.0

    def test_exponent_arithmetic(self):
        panel = self._panel()
        params = zero_lag_params(exponents=(2.0, 1.0, 1.0, 1.0))
        # memberships: rain 0.5, temp 1, humid 1, mobility 0.1 (I/N via weight 1)
        assert first_month(panel, params).R == pytest.approx(0.5**2 * 0.1)

    def test_missing_lagged_value_excludes_month(self):
        panel = self._panel()
        params = RiskParams(mobility_c=1.0, lags=Lags(2, 0, 0, 0))
        rs = objective_space(panel, unit_mfs(), params, "WP")
        # rain(t-2) predates the span for the first two months
        assert rs.skipped == (START, START + 1)
        assert rs.months[0].t == START + 2

    def test_monotone_in_exponent_when_membership_below_one(self):
        panel = self._panel()
        rs = [
            first_month(panel, zero_lag_params(exponents=(c, 1, 1, 1))).R
            for c in (0.5, 1.0, 2.0, 4.0)
        ]
        assert rs == sorted(rs, reverse=True)

    def test_exponent_scaling_is_power_law(self):
        panel = self._panel()
        lam = 1.7
        base = zero_lag_params(exponents=(2.0, 1.0, 1.0, 1.0))
        scaled = zero_lag_params(exponents=tuple(lam * c for c in base.exponents))
        r1 = first_month(panel, base).R
        r2 = first_month(panel, scaled).R
        assert r2 == pytest.approx(r1**lam)


class TestLocalVariation:
    """L through objective_space: months[0] is START + 1, which reads START."""

    def test_maximal(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[20.0, 20.0, 20.0, 20.0], sus=[100.0] * 4, pop=[100.0] * 4,
        )
        m = first_month(panel, zero_lag_params())
        assert m.t == START + 1 and m.L == pytest.approx(1.0)

    def test_zero_infected_last_month(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[0.0, 5.0, 5.0, 5.0], sus=[100.0] * 4, pop=[100.0] * 4,
        )
        assert first_month(panel, zero_lag_params()).L == 0.0

    def test_zero_susceptible_last_month(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[5.0] * 4, sus=[0.0, 100.0, 100.0, 100.0], pop=[100.0] * 4,
        )
        assert first_month(panel, zero_lag_params()).L == 0.0

    def test_zero_population_errors(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[5.0] * 4, sus=[10.0] * 4, pop=[0.0] * 4,
        )
        with pytest.raises(ParameterError, match="zero population at 2015-01"):
            objective_space(panel, unit_mfs(), zero_lag_params(), "WP")


class TestObjectiveSpace:
    def _series(self, **kw):
        n = 6
        panel = mk_panel(
            rain=[1.0] * n, temp=[1.0] * n, humid=[1.0] * n,
            inc=[10.0] * n, sus=[50.0] * n,
        )
        params = zero_lag_params(mobility_c=0.1, **kw)
        return objective_space(panel, unit_mfs(0.1), params, "WP")

    def test_ideal_risk_gives_zero_d1(self):
        rs = self._series()
        # every membership is 1: R = r_ideal = 1 -> d1 = 0
        assert all(m.d1 == 0.0 for m in rs.months)
        assert all(m.R == pytest.approx(1.0) for m in rs.months)

    def test_first_month_skipped_for_lagged_local_variation(self):
        rs = self._series()
        assert rs.skipped == (START,)

    def test_clamping_when_ideal_exceeded(self):
        rs = self._series(r_ideal=0.8)
        # R = 1.0 > r_ideal: d1 clamps to 0 instead of going negative
        assert all(m.d1 == 0.0 for m in rs.months)

    def test_bounds_and_monotonicity(self):
        n = 8
        panel = mk_panel(
            rain=[0.1 * (i + 1) for i in range(n)],
            temp=[1.0] * n, humid=[1.0] * n,
            inc=[10.0] * n, sus=[50.0] * n,
        )
        rs = objective_space(panel, unit_mfs(0.1), zero_lag_params(mobility_c=0.1), "WP")
        for m in rs.months:
            assert 0.0 <= m.d1 <= 1.0 and 0.0 <= m.d2 <= 1.0
        # rain membership rises month over month, so d1 strictly falls
        d1s = [m.d1 for m in rs.months]
        assert all(a > b for a, b in zip(d1s, d1s[1:]))

    def test_empty_admissible_set_errors(self):
        n = 4
        panel = mk_panel(
            rain=[1.0] * n, temp=[1.0] * n, humid=[1.0] * n,
            inc=[10.0] * n, sus=[50.0] * n,
        )
        params = RiskParams(mobility_c=1.0, lags=Lags(6, 6, 6, 6))
        with pytest.raises(PipelineError):
            objective_space(panel, unit_mfs(), params, "WP")


class TestInfectedDensity:
    def test_divides_by_population(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[25.0] * 4, sus=[50.0] * 4, pop=[100.0] * 4,
        )
        # WP's only mobility weight is 1 to NB, whose I/N is 25/100
        assert mobility_risk(panel, "WP").tolist() == pytest.approx([0.25] * 4)


# ---------------------------------------------------------------------------
# A ragged multi-region panel against a per-month scalar re-derivation
# ---------------------------------------------------------------------------

N_RAGGED = 18


def ragged_panel():
    """Targets T, U and V plus neighbours A, B, C and D.

    T weighs A and B (A has an incidence gap, B has N = 0 in one month) and
    gives D, whose incidence is mostly missing, a zero weight. U weighs C,
    which has no series at all. V has no mobility row. A's series start a
    month early, so alignment cuts them.
    """
    def s(region, variable, values, start=START):
        return MonthlySeries(region, variable, start, tuple(values))

    n = N_RAGGED
    series = {}
    for offset, region in enumerate(("T", "U", "V")):
        ks = [k + 5 * offset for k in range(n)]
        rain = [100.0 + (37 * k) % 300 for k in ks]
        sus = [900.0 - 7 * k for k in ks]
        if region == "T":
            rain[3] = None
            sus[9] = None
        series[(region, Variable.RAINFALL)] = s(region, Variable.RAINFALL, rain)
        series[(region, Variable.TEMPERATURE)] = s(
            region, Variable.TEMPERATURE, [17.0 + (7 * k) % 17 for k in ks]
        )
        series[(region, Variable.HUMIDITY)] = s(
            region, Variable.HUMIDITY, [45.0 + (11 * k) % 50 for k in ks]
        )
        series[(region, Variable.INCIDENCE)] = s(
            region, Variable.INCIDENCE, [5.0 + (13 * k) % 40 for k in ks]
        )
        series[(region, Variable.SUSCEPTIBLE)] = s(region, Variable.SUSCEPTIBLE, sus)
        series[(region, Variable.POPULATION)] = s(
            region, Variable.POPULATION, [1000.0 + k for k in ks]
        )
    a_inc = [float(3 + k % 5) for k in range(n + 1)]
    a_inc[6] = None
    series[("A", Variable.INCIDENCE)] = s("A", Variable.INCIDENCE, a_inc, START - 1)
    series[("A", Variable.POPULATION)] = s(
        "A", Variable.POPULATION, [400.0] * (n + 1), START - 1
    )
    b_pop = [250.0] * n
    b_pop[11] = 0.0
    series[("B", Variable.INCIDENCE)] = s("B", Variable.INCIDENCE, [float(k % 4) for k in range(n)])
    series[("B", Variable.POPULATION)] = s("B", Variable.POPULATION, b_pop)
    series[("D", Variable.INCIDENCE)] = s(
        "D", Variable.INCIDENCE, [None if k % 3 else 1.0 for k in range(n)]
    )
    series[("D", Variable.POPULATION)] = s("D", Variable.POPULATION, [100.0] * n)
    mobility = MobilityMatrix.from_pairs(
        {("T", "A"): 0.5, ("T", "B"): 0.25, ("T", "D"): 0.0, ("U", "C"): 0.3, ("A", "T"): 0.1}
    )
    return align(Panel(series=series, mobility=mobility))


def scalar_value(panel, region, variable, t):
    s = panel.get(region, variable)
    return None if s is None else s.value_at(t)


def scalar_mobility_risk(panel, region, t):
    m = panel.mobility
    if m is None:
        return None
    if region not in m.regions:
        return 0.0
    total = 0.0
    for j, w in zip(m.regions, m.weights[m.regions.index(region)]):
        if w == 0.0:
            continue
        i = scalar_value(panel, j, Variable.INCIDENCE, t)
        n = scalar_value(panel, j, Variable.POPULATION, t)
        if i is None or n is None or n == 0:
            return None
        total += w * (i / n)
    return total


def scalar_inputs(panel, region, lags, t):
    """(rain, temp, humid, R_mob) at their lags, then (I, S, N) at t - 1."""
    return (
        scalar_value(panel, region, Variable.RAINFALL, t - lags.rain),
        scalar_value(panel, region, Variable.TEMPERATURE, t - lags.temp),
        scalar_value(panel, region, Variable.HUMIDITY, t - lags.humid),
        scalar_mobility_risk(panel, region, t - lags.mobility),
        scalar_value(panel, region, Variable.INCIDENCE, t - 1),
        scalar_value(panel, region, Variable.SUSCEPTIBLE, t - 1),
        scalar_value(panel, region, Variable.POPULATION, t - 1),
    )


def clamp01(x):
    return min(1.0, max(0.0, x))


def scalar_objective(panel, mfs, params, region):
    i_peak = max(v for v in panel.get(region, Variable.INCIDENCE).values if v is not None)
    start, end = panel.span
    months, skipped = [], []
    for k in range(end - start + 1):
        t = start + k
        inputs = scalar_inputs(panel, region, params.lags, t)
        if None in inputs:
            skipped.append(t)
            continue
        rain, temp, humid, rmob, i, s, n = inputs
        r = 1.0
        for mf, v, c in zip(
            (mfs.rain, mfs.temp, mfs.humid, mfs.mobility), (rain, temp, humid, rmob),
            params.exponents,
        ):
            r *= mf.evaluate(v) ** c
        r = clamp01(r)
        l = clamp01(s / n) * clamp01(i / i_peak)
        d1 = clamp01(1.0 - r / params.r_ideal)
        d2 = clamp01(1.0 - l / params.l_ideal)
        months.append(RiskMonth(t, r, l, d1, d2))
    return tuple(months), tuple(skipped)


def scalar_design(panel, lags, region):
    start, end = panel.span
    rows, response, months = [], [], []
    for k in range(end - start + 1):
        t = start + k
        rain, temp, humid, rmob, i, s, _ = scalar_inputs(panel, region, lags, t)
        y = scalar_value(panel, region, Variable.INCIDENCE, t)
        cells = (rain, temp, humid, rmob, i, s)
        if y is None or None in cells:
            continue
        rows.append((1.0,) + cells)
        response.append(y)
        months.append(t)
    return rows, response, months


class TestRaggedPanel:
    MFS = MembershipFunctions(
        rain=rainfall_mf_from_cutoffs(150.0, 350.0),
        temp=temperature_mf_default(),
        humid=humidity_mf_default(),
        mobility=mobility_mf(0.02),
    )
    PARAMS = RiskParams(
        mobility_c=0.02, lags=Lags(1, 2, 0, 1), exponents=(1.3, 0.7, 1.1, 0.9),
        r_ideal=0.9, l_ideal=0.8,
    )

    @pytest.mark.parametrize("without_mobility", [False, True])
    def test_columns_match_scalar_rederivation(self, without_mobility):
        panel = ragged_panel()
        if without_mobility:
            panel = replace(panel, mobility=None)
        start, end = panel.span
        assert start == START and end == START + (N_RAGGED - 1)
        for region in ("T", "U", "V"):
            expected = [
                scalar_mobility_risk(panel, region, start + k) for k in range(N_RAGGED)
            ]
            got = [None if math.isnan(v) else v for v in mobility_risk(panel, region).tolist()]
            assert got == expected, region

            months, skipped = scalar_objective(panel, self.MFS, self.PARAMS, region)
            if months:
                rs = objective_space(panel, self.MFS, self.PARAMS, region)
                assert (rs.months, rs.skipped) == (months, skipped), region
            else:
                with pytest.raises(PipelineError):
                    objective_space(panel, self.MFS, self.PARAMS, region)

            rows, response, design_months = scalar_design(panel, self.PARAMS.lags, region)
            if len(rows) >= 8:
                x, y, got_months = build_design(panel, self.PARAMS.lags, region)
                assert [tuple(row) for row in x.tolist()] == rows, region
                assert y.tolist() == response and got_months == design_months, region
            else:
                with pytest.raises(UnderdeterminedError):
                    build_design(panel, self.PARAMS.lags, region)

    def test_edge_cases_reach_the_columns(self):
        """The panel exercises what it claims to: T loses exactly the months
        behind A's gap and B's zero population, U loses every month, and V
        gets 0.0."""
        panel = ragged_panel()
        t_mob = mobility_risk(panel, "T")
        assert np.flatnonzero(np.isnan(t_mob)).tolist() == [5, 11]
        assert np.isnan(mobility_risk(panel, "U")).all()
        assert mobility_risk(panel, "V").tolist() == [0.0] * N_RAGGED
        rs = objective_space(panel, self.MFS, self.PARAMS, "T")
        assert len(rs.months) > 8 and len(rs.skipped) > 2
