import inspect
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from denguewatch import pipeline, risk
from denguewatch.baseline import build_design
from denguewatch.config import default_config
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
    MissingSeriesError,
    MonthlySeries,
    Panel,
    Variable,
    align,
)
from denguewatch.risk import (
    Calibration,
    Lags,
    MembershipFunctions,
    RiskMonth,
    mobility_risk,
    objective_space,
    target_columns,
)
from denguewatch.synth import SynthConfig, generate

from reference import value_at, values_of

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


def unit_calibration(c_max=1.0, lags=Lags(0, 0, 0, 0), exponents=(1.0, 1.0, 1.0, 1.0)):
    """A calibration of ``unit_mfs(c_max)``, at zero lags unless given."""
    return Calibration(lags, {}, None, exponents, c_max, unit_mfs(c_max))


class TestModelChecks:
    """Each model value is checked where it enters: lags and exponents by the
    calibration, the mobility normalizer by its membership function, and the
    ideal point by the objective space."""

    def test_defaults(self):
        lags = Lags()
        assert (lags.rain, lags.temp, lags.humid, lags.mobility) == (2, 3, 2, 1)
        ideals = inspect.signature(objective_space).parameters
        assert ideals["r_ideal"].default == 1.0 and ideals["l_ideal"].default == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            mobility_mf(0.0)
        with pytest.raises(ParameterError, match=r"calibration\.exponents must be 4 positive"):
            unit_calibration(exponents=(1, 1, 1, 0))
        panel = mk_panel([1.0] * 4, [1.0] * 4, [1.0] * 4, [100.0] * 4, [50.0] * 4)
        with pytest.raises(ParameterError, match=r"r_ideal must lie in \(0, 1\], got 1.5"):
            objective_space(panel, unit_calibration(), "WP", r_ideal=1.5)
        with pytest.raises(ParameterError):
            Lags(rain=-1)

    @pytest.mark.parametrize("c_max", [0.0, -1.0, math.nan, math.inf])
    def test_mobility_normalizer(self, c_max):
        with pytest.raises(ParameterError, match="mobility normalizer must be > 0"):
            mobility_mf(c_max)

    @pytest.mark.parametrize(
        "exponents", [(1, 1, 1, 0), (1, 1, 1, -1), (1, 1, 1), (1, 1, 1, math.nan),
                      (1, 1, 1, math.inf)],
    )
    def test_exponents(self, exponents):
        with pytest.raises(ParameterError, match=r"calibration\.exponents must be 4 positive"):
            unit_calibration(exponents=exponents)

    @pytest.mark.parametrize("ideal", [0.0, -0.5, 1.5, math.nan])
    @pytest.mark.parametrize("name", ["r_ideal", "l_ideal"])
    def test_ideal_point(self, name, ideal):
        panel = mk_panel([1.0] * 4, [1.0] * 4, [1.0] * 4, [100.0] * 4, [50.0] * 4)
        with pytest.raises(ParameterError, match=rf"{name} must lie in \(0, 1\], got"):
            objective_space(panel, unit_calibration(), "WP", **{name: ideal})


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


def first_month(panel, calibration):
    return objective_space(panel, calibration, "WP").months[0]


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
        assert first_month(panel, unit_calibration()).R == pytest.approx(1.0)

    def test_zero_membership_annihilates(self):
        panel = mk_panel([0.0] * 4, [1.0] * 4, [1.0] * 4, [100.0] * 4, [50.0] * 4)
        assert first_month(panel, unit_calibration()).R == 0.0

    def test_exponent_arithmetic(self):
        panel = self._panel()
        calibration = unit_calibration(exponents=(2.0, 1.0, 1.0, 1.0))
        # memberships: rain 0.5, temp 1, humid 1, mobility 0.1 (I/N via weight 1)
        assert first_month(panel, calibration).R == pytest.approx(0.5**2 * 0.1)

    def test_missing_lagged_value_excludes_month(self):
        panel = self._panel()
        rs = objective_space(panel, unit_calibration(lags=Lags(2, 0, 0, 0)), "WP")
        # rain(t-2) predates the span for the first two months
        assert rs.skipped == (START, START + 1)
        assert rs.months[0].t == START + 2

    def test_monotone_in_exponent_when_membership_below_one(self):
        panel = self._panel()
        rs = [
            first_month(panel, unit_calibration(exponents=(c, 1, 1, 1))).R
            for c in (0.5, 1.0, 2.0, 4.0)
        ]
        assert rs == sorted(rs, reverse=True)

    def test_exponent_scaling_is_power_law(self):
        panel = self._panel()
        lam = 1.7
        base = unit_calibration(exponents=(2.0, 1.0, 1.0, 1.0))
        scaled = unit_calibration(exponents=tuple(lam * c for c in base.exponents))
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
        m = first_month(panel, unit_calibration())
        assert m.t == START + 1 and m.L == pytest.approx(1.0)

    def test_zero_infected_last_month(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[0.0, 5.0, 5.0, 5.0], sus=[100.0] * 4, pop=[100.0] * 4,
        )
        assert first_month(panel, unit_calibration()).L == 0.0

    def test_zero_susceptible_last_month(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[5.0] * 4, sus=[0.0, 100.0, 100.0, 100.0], pop=[100.0] * 4,
        )
        assert first_month(panel, unit_calibration()).L == 0.0

    def test_zero_population_errors(self):
        panel = mk_panel(
            [1.0] * 4, [1.0] * 4, [1.0] * 4,
            inc=[5.0] * 4, sus=[10.0] * 4, pop=[0.0] * 4,
        )
        with pytest.raises(ParameterError, match="zero population at 2015-01"):
            objective_space(panel, unit_calibration(), "WP")


class TestObjectiveSpace:
    def _series(self, **kw):
        n = 6
        panel = mk_panel(
            rain=[1.0] * n, temp=[1.0] * n, humid=[1.0] * n,
            inc=[10.0] * n, sus=[50.0] * n,
        )
        return objective_space(panel, unit_calibration(0.1), "WP", **kw)

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
        rs = objective_space(panel, unit_calibration(0.1), "WP")
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
        with pytest.raises(PipelineError):
            objective_space(panel, unit_calibration(lags=Lags(6, 6, 6, 6)), "WP")


class TestRiskMonth:
    def test_attributes_and_immutability(self):
        m = RiskMonth(START, 0.5, 0.25, 0.5, 0.75)
        assert (m.t, m.R, m.L, m.d1, m.d2) == (START, 0.5, 0.25, 0.5, 0.75)
        with pytest.raises(AttributeError):
            m.R = 1.0
        assert m == (START, 0.5, 0.25, 0.5, 0.75)  # a named tuple: equal to a plain one


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
    return None if s is None else value_at(s, t)


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


def scalar_objective(panel, calibration, region, r_ideal, l_ideal):
    i_peak = max(v for v in values_of(panel.get(region, Variable.INCIDENCE)) if v is not None)
    start, end = panel.span
    months, skipped = [], []
    for k in range(end - start + 1):
        t = start + k
        inputs = scalar_inputs(panel, region, calibration.lags, t)
        if None in inputs:
            skipped.append(t)
            continue
        rain, temp, humid, rmob, i, s, n = inputs
        r = 1.0
        mfs = calibration.membership
        for mf, v, c in zip(
            (mfs.rain, mfs.temp, mfs.humid, mfs.mobility), (rain, temp, humid, rmob),
            calibration.exponents,
        ):
            r *= mf.evaluate(v) ** c
        r = clamp01(r)
        l = clamp01(s / n) * clamp01(i / i_peak)
        d1 = clamp01(1.0 - r / r_ideal)
        d2 = clamp01(1.0 - l / l_ideal)
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
    CALIBRATION = Calibration(Lags(1, 2, 0, 1), {}, None, (1.3, 0.7, 1.1, 0.9), 0.02, MFS)
    IDEALS = (0.9, 0.8)  # r_ideal, l_ideal

    # Lags(0, 0, 0, 3) has the longest mobility lag: V, with no mobility row,
    # keeps R_mob = 0.0 in the months the lag reaches before the span.
    @pytest.mark.parametrize(
        "without_mobility, lags",
        [
            pytest.param(False, Lags(1, 2, 0, 1), id="False"),
            pytest.param(True, Lags(1, 2, 0, 1), id="True"),
            pytest.param(False, Lags(0, 0, 0, 3), id="False-mobility-lag-3"),
            pytest.param(True, Lags(0, 0, 0, 3), id="True-mobility-lag-3"),
        ],
    )
    def test_columns_match_scalar_rederivation(self, without_mobility, lags):
        panel = ragged_panel()
        calibration = replace(self.CALIBRATION, lags=lags)
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

            months, skipped = scalar_objective(panel, calibration, region, *self.IDEALS)
            if months:
                rs = objective_space(panel, calibration, region, *self.IDEALS)
                assert (rs.months, rs.skipped) == (months, skipped), region
            else:
                with pytest.raises(PipelineError):
                    objective_space(panel, calibration, region, *self.IDEALS)

            rows, response, design_months = scalar_design(panel, lags, region)
            if len(rows) >= 8:
                x, y, got_months = build_design(panel, lags, region)
                assert [tuple(row) for row in x.tolist()] == rows, region
                assert y.tolist() == response and got_months == design_months, region
            else:
                with pytest.raises(UnderdeterminedError):
                    build_design(panel, lags, region)

    def test_edge_cases_reach_the_columns(self):
        """The panel exercises what it claims to: T loses exactly the months
        behind A's gap and B's zero population, U loses every month, and V
        gets 0.0."""
        panel = ragged_panel()
        t_mob = mobility_risk(panel, "T")
        assert np.flatnonzero(np.isnan(t_mob)).tolist() == [5, 11]
        assert np.isnan(mobility_risk(panel, "U")).all()
        assert mobility_risk(panel, "V").tolist() == [0.0] * N_RAGGED
        rs = objective_space(panel, self.CALIBRATION, "T", *self.IDEALS)
        assert len(rs.months) > 8 and len(rs.skipped) > 2


class TestSharedPerPanel:
    """The stages that share a panel share its target columns, and detection
    reuses the membership functions calibration built."""

    def test_columns_built_once_per_panel_and_read_only(self):
        panel = mk_panel([1.0] * 8, [2.0] * 8, [3.0] * 8, [4.0] * 8, [5.0] * 8)
        cols = target_columns(panel, "WP")
        assert target_columns(panel, "WP", Variable.INCIDENCE, Variable.POPULATION) is cols
        assert all(not getattr(cols, f.name).flags.writeable for f in fields(cols)[:-1])
        with pytest.raises(ValueError):
            cols.mobility[0] = 1.0
        target_columns(panel, "NB")
        with pytest.raises(MissingSeriesError):  # required series are checked on every call
            target_columns(panel, "NB", Variable.RAINFALL)

    def test_realigned_or_resliced_panel_gets_its_own(self):
        panel = mk_panel(
            [float(i) for i in range(8)], [2.0] * 8, [3.0] * 8, [4.0 + i for i in range(8)],
            [5.0] * 8,
        )
        cols = target_columns(panel, "WP")
        again = align(panel)
        assert target_columns(again, "WP") is not cols
        end = panel.span[0] + 4
        short = align(Panel(
            {k: s.slice(panel.span[0], end) for k, s in panel.series.items()}, panel.mobility
        ))
        short_cols = target_columns(short, "WP")
        assert short_cols is not cols and short_cols.rain.size == 5
        assert short_cols.rain.tolist() == cols.rain[:5].tolist()
        assert short_cols.mobility.tolist() == cols.mobility[:5].tolist()

    def test_one_run_builds_columns_and_membership_functions_once(self):
        panel, _ = generate(SynthConfig())
        cfg = default_config()
        built = PiecewiseLinearMF.__post_init__
        with mock.patch.object(risk, "mobility_risk", wraps=risk.mobility_risk) as r_mob, \
                mock.patch.object(
                    PiecewiseLinearMF, "__post_init__", autospec=True, side_effect=built
                ) as mf:
            calibration = pipeline.calibrate_panel(panel, cfg)
            pipeline.detect(panel, cfg, calibration)
            pipeline.run_baseline(panel, cfg, calibration)
        assert r_mob.call_count == 1
        assert mf.call_count == 4
