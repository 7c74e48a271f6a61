import random

import numpy as np
import pytest

from denguewatch.baseline import (
    COLUMN_NAMES,
    _quantile,
    GlmCoefficients,
    build_design,
    fit_ols,
    fitted_values,
    predict_and_extract,
)
from denguewatch.errors import (
    ParameterError,
    SingularDesignError,
    UnderdeterminedError,
)
from denguewatch.panel import (
    MobilityMatrix,
    MonthIndex,
    MonthlySeries,
    Panel,
    Variable,
    align,
)
from denguewatch.risk import Lags

START = MonthIndex(2015, 1)


def mk_panel(n=12, rain=None, gap_at=None):
    rain = list(rain) if rain is not None else [float(10 + i) for i in range(n)]
    if gap_at is not None:
        rain[gap_at] = None
    series = {
        ("WP", Variable.RAINFALL): MonthlySeries("WP", Variable.RAINFALL, START, tuple(rain)),
        ("WP", Variable.TEMPERATURE): MonthlySeries(
            "WP", Variable.TEMPERATURE, START, tuple(20.0 + 0.5 * ((i * 3) % 7) for i in range(n))
        ),
        ("WP", Variable.HUMIDITY): MonthlySeries(
            "WP", Variable.HUMIDITY, START, tuple(70.0 + (i % 5) for i in range(n))
        ),
        ("WP", Variable.INCIDENCE): MonthlySeries(
            "WP", Variable.INCIDENCE, START, tuple(float(5 + (i * 7) % 11) for i in range(n))
        ),
        ("WP", Variable.SUSCEPTIBLE): MonthlySeries(
            "WP", Variable.SUSCEPTIBLE, START, tuple(900.0 - (i * i) % 13 for i in range(n))
        ),
        ("WP", Variable.POPULATION): MonthlySeries(
            "WP", Variable.POPULATION, START, tuple(1000.0 for _ in range(n))
        ),
        ("NB", Variable.INCIDENCE): MonthlySeries(
            "NB", Variable.INCIDENCE, START, tuple(float(2 + i % 3) for i in range(n))
        ),
        ("NB", Variable.POPULATION): MonthlySeries(
            "NB", Variable.POPULATION, START, tuple(500.0 for _ in range(n))
        ),
    }
    mobility = MobilityMatrix(("NB", "WP"), ((0.0, 0.0), (2.0, 0.0)))
    return align(Panel(series=series, mobility=mobility))


def random_design(rng, n=50):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, len(COLUMN_NAMES) - 1))])
    return x


class TestGlmCoefficients:
    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            GlmCoefficients((1.0, 2.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            GlmCoefficients((np.nan,) + (0.0,) * 6)


class TestBuildDesign:
    def test_zero_lags_drop_only_first_month(self):
        panel = mk_panel(12)
        x, y, months = build_design(panel, Lags(0, 0, 0, 0), "WP")
        # the first month lacks last month's infected/susceptible counts
        assert months == [START + k for k in range(1, 12)]
        assert x.shape == (11, 7)
        np.testing.assert_allclose(x[:, 0], 1.0)

    def test_columns_carry_raw_values(self):
        panel = mk_panel(12)
        x, y, months = build_design(panel, Lags(0, 0, 0, 0), "WP")
        t = months[3]
        k = t - START
        assert x[3, 1] == 10 + k                       # rainfall at t
        assert x[3, 2] == 20.0 + 0.5 * ((k * 3) % 7)   # temperature at t
        assert x[3, 4] == pytest.approx(2.0 * (2 + k % 3) / 500.0)  # mobility risk
        assert x[3, 5] == 5 + ((k - 1) * 7) % 11       # last month's incidence
        assert y[3] == 5 + (k * 7) % 11

    def test_lags_shrink_the_window(self):
        panel = mk_panel(14)
        x, y, months = build_design(panel, Lags(3, 1, 0, 0), "WP")
        # rainfall needs t-3, the binding constraint
        assert months[0] == START + 3

    def test_missing_regressor_drops_row(self):
        full = build_design(mk_panel(16), Lags(0, 0, 0, 0), "WP")[2]
        gapped = build_design(mk_panel(16, gap_at=6), Lags(0, 0, 0, 0), "WP")[2]
        assert set(full) - set(gapped) == {START + 6}

    def test_too_few_rows(self):
        with pytest.raises(UnderdeterminedError, match="8"):
            build_design(mk_panel(8), Lags(0, 0, 0, 0), "WP")


class TestFitOls:
    def test_exact_recovery_on_noiseless_data(self):
        rng = np.random.default_rng(17)
        x = random_design(rng)
        beta = np.array([3.0, -1.5, 0.25, 2.0, -0.75, 1.1, 0.0])
        coeffs = fit_ols(x, x @ beta)
        np.testing.assert_allclose(coeffs.values, beta, atol=1e-8)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = random_design(rng)
            y = rng.normal(size=x.shape[0])
            expected = np.linalg.solve(x.T @ x, x.T @ y)
            got = np.array(fit_ols(x, y).values)
            np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-9)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(29)
        x = random_design(rng)
        y = rng.normal(size=x.shape[0])
        coeffs = fit_ols(x, y)
        residuals = y - fitted_values(coeffs, x)
        np.testing.assert_allclose(x.T @ residuals, 0.0, atol=1e-8)

    def test_column_rescaling_rescales_coefficient(self):
        rng = np.random.default_rng(31)
        x = random_design(rng)
        y = rng.normal(size=x.shape[0])
        base = fit_ols(x, y)
        scaled = x.copy()
        scaled[:, 3] *= 10.0
        refit = fit_ols(scaled, y)
        assert refit.values[3] == pytest.approx(base.values[3] / 10.0)
        np.testing.assert_allclose(
            fitted_values(refit, scaled), fitted_values(base, x), atol=1e-8
        )

    def test_square_system_interpolates(self):
        rng = np.random.default_rng(37)
        x = random_design(rng, n=7)
        y = rng.normal(size=7)
        coeffs = fit_ols(x, y)
        np.testing.assert_allclose(fitted_values(coeffs, x), y, atol=1e-8)

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(41)
        x = random_design(rng)
        x[:, 3] = x[:, 1]  # humidity duplicates rainfall
        with pytest.raises(SingularDesignError, match="collinear") as exc:
            fit_ols(x, rng.normal(size=x.shape[0]))
        assert any(name in str(exc.value) for name in COLUMN_NAMES[1:])

    def test_wrong_width_rejected(self):
        with pytest.raises(ParameterError):
            fit_ols(np.ones((10, 3)), np.ones(10))


class TestQuantile:
    """The spike threshold is ``np.quantile``'s value, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_numpy_quantile(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            n = rng.randint(1, 200)
            scale = 10.0 ** rng.choice([-5, 0, 5])
            pool = [rng.gauss(0.0, scale) for _ in range(rng.randint(1, n))]  # ties
            values = np.array([rng.choice(pool) for _ in range(n)])
            q = rng.choice([rng.random(), 0.85, 0.5, 1 / 3]) or 0.5
            assert _quantile(values, q) == float(np.quantile(values, q)), (n, q)

    @pytest.mark.parametrize(
        "values", [[1.0, np.nan, 2.0], [np.inf, 1.0, -np.inf], [np.inf], [3.0, np.inf], [7.0]]
    )
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.85, 1 - 2**-53])
    def test_non_finite_values(self, values, q):
        with np.errstate(invalid="ignore"):
            expected = float(np.quantile(np.array(values), q))
        assert np.array_equal(_quantile(np.array(values), q), expected, equal_nan=True)


class TestPredictAndExtract:
    def _coeffs(self):
        # identity on the rainfall column: fitted value = column 1
        return GlmCoefficients((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    def _design(self, values):
        x = np.zeros((len(values), 7))
        x[:, 0] = 1.0
        x[:, 1] = values
        return x

    def test_constant_series_never_flags(self):
        months = [START + i for i in range(10)]
        assert predict_and_extract(self._coeffs(), self._design([4.0] * 10), months) == []

    def test_single_spike_flagged(self):
        values = [1, 1, 1, 9, 1, 1, 1, 1, 1, 1]
        months = [START + i for i in range(10)]
        out = predict_and_extract(self._coeffs(), self._design(values), months)
        assert out == [START + 3]

    def test_two_month_plateau_flags_both(self):
        values = [0, 0, 5, 5, 0, 0, 0, 0]
        months = [START + i for i in range(8)]
        out = predict_and_extract(
            self._coeffs(), self._design(values), months, threshold_quantile=0.5
        )
        assert out == [START + 2, START + 3]

    def test_high_but_not_local_max_excluded(self):
        values = [0, 0, 6, 8, 0, 0, 0, 0, 0, 0]
        months = [START + i for i in range(10)]
        out = predict_and_extract(self._coeffs(), self._design(values), months)
        # month 2 clears the quantile but its neighbor is higher
        assert out == [START + 3]

    def test_quantile_validated(self):
        months = [START + i for i in range(3)]
        with pytest.raises(ParameterError):
            predict_and_extract(self._coeffs(), self._design([1, 2, 3]), months, threshold_quantile=1.0)

    def test_end_to_end_recovers_planted_relationship(self):
        panel = mk_panel(24)
        x, y, months = build_design(panel, Lags(0, 0, 0, 0), "WP")
        coeffs = fit_ols(x, y)
        # response depends (noisily) on its regressors; refit reproduces y when
        # y is replaced by an exact linear combination
        beta = np.array([1.0, 0.5, -0.2, 0.1, 3.0, 0.05, -0.01])
        exact = x @ beta
        refit = fit_ols(x, exact)
        np.testing.assert_allclose(refit.values, beta, atol=1e-8)
