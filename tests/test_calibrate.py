import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from denguewatch.calibrate import (
    CORRELATION_FLOOR,
    DEFAULT_LAGS,
    best_lag,
    estimate_exponents,
    exponents_from_correlations,
    pearson,
    rainfall_cutoffs,
)
from denguewatch.errors import (
    CalibrationError,
    CorrelationUndefinedError,
    ParameterError,
)
from denguewatch.panel import MonthIndex, MonthlySeries, Variable
from denguewatch.synth import SplitMix64


def series(values, variable=Variable.RAINFALL, start=MonthIndex(2010, 1)):
    return MonthlySeries("WP", variable, start, tuple(values))


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.9820, abs=1e-3)

    def test_pairwise_deletion(self):
        assert pearson([1, 2, None, 3, 4], [2, 4, 9, None, 8]) == pytest.approx(1.0)

    def test_too_few_pairs(self):
        with pytest.raises(CorrelationUndefinedError):
            pearson([1, 2], [1, 2])

    def test_zero_variance(self):
        with pytest.raises(CorrelationUndefinedError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(CorrelationUndefinedError):  # the mean rounds to 0.1 + 1 ulp
            pearson([0.1, 0.1, 0.1], [1, 2, 3])

    @given(
        st.lists(st.floats(-50, 50), min_size=4, max_size=40),
        st.floats(0.1, 10),
        st.floats(-100, 100),
    )
    @example(xs=[0.0, 0.0, 0.0, 2.4e-160], scale=0.5, shift=0.0)  # squares underflow
    @example(xs=[0.0, 0.0, 0.0, 2.220446049250313e-16], scale=1.0, shift=1.0)  # mean rounds
    def test_symmetric_and_affine_invariant(self, xs, scale, shift):
        rng = np.random.default_rng(7)
        ys = list(rng.normal(size=len(xs)))
        try:
            r = pearson(xs, ys)
        except CorrelationUndefinedError:
            return
        assert pearson(ys, xs) == pytest.approx(r, abs=1e-12)
        transformed = [scale * x + shift for x in xs]
        try:
            r2 = pearson(transformed, ys)
        except CorrelationUndefinedError:
            return
        assert r2 == pytest.approx(r, abs=1e-9)


class TestBestLag:
    def test_defaults_constant(self):
        assert DEFAULT_LAGS == {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}

    def test_zero_lag_identity(self):
        rng = np.random.default_rng(1)
        values = list(rng.uniform(1, 9, size=40))
        f = series(values)
        inc = series(values, Variable.INCIDENCE)
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == 0
        assert result.correlation == pytest.approx(1.0)

    @pytest.mark.parametrize("k", range(7))
    def test_recovers_planted_lag(self, k):
        rng = np.random.default_rng(42)
        base = list(rng.normal(size=60))
        f = series(base)
        shifted = [0.0] * k + base[: 60 - k]
        inc = series(shifted, Variable.TEMPERATURE)
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == k
        assert abs(result.correlation) == pytest.approx(1.0)

    def test_negative_association_still_found(self):
        rng = np.random.default_rng(3)
        base = list(rng.normal(size=50))
        f = series(base)
        inc_vals = [0.0] * 2 + [-v for v in base[:48]]
        inc = series(inc_vals, Variable.TEMPERATURE)
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == 2
        assert result.correlation == pytest.approx(-1.0)

    def test_propagates_undefined(self):
        f = series([1.0] * 20)
        inc = series(list(range(20)), Variable.INCIDENCE)
        with pytest.raises(CorrelationUndefinedError):
            best_lag(f, inc, max_lag=3)


class TestRainfallCutoffs:
    def _planted_band(self, lag=2, n=150, seed=11):
        rng = SplitMix64(seed)
        rain_vals = [600.0 * rng.uniform() for _ in range(n)]
        inc_vals = [0.0] * n
        for t in range(lag, n):
            inc_vals[t] = 1.0 if 150.0 <= rain_vals[t - lag] <= 350.0 else 0.0
        return (
            series(rain_vals),
            series(inc_vals, Variable.INCIDENCE),
        )

    def test_planted_band_recovered(self):
        rain, inc = self._planted_band()
        result = rainfall_cutoffs(rain, inc, lag=2, grid_step=10.0)
        assert abs(result.r_min - 150.0) <= 10.0
        assert abs(result.r_max - 350.0) <= 10.0

    def test_constant_rain_errors(self):
        rain = series([100.0] * 40)
        inc = series(list(range(40)), Variable.INCIDENCE)
        with pytest.raises(CalibrationError):
            rainfall_cutoffs(rain, inc, lag=0)

    def test_oversized_step_errors(self):
        rain, inc = self._planted_band()
        with pytest.raises(CalibrationError, match="empty grid"):
            rainfall_cutoffs(rain, inc, lag=2, grid_step=10000.0)

    def test_bad_step_rejected(self):
        rain, inc = self._planted_band()
        with pytest.raises(ParameterError):
            rainfall_cutoffs(rain, inc, lag=2, grid_step=0.0)


class TestExponents:
    def test_equal_magnitudes_give_unit_exponents(self):
        assert exponents_from_correlations([0.7, -0.7, 0.7, 0.7]) == pytest.approx(
            (1.0, 1.0, 1.0, 1.0)
        )

    def test_normalization_formula(self):
        c = exponents_from_correlations([0.4, 0.4, 0.1, 0.1])
        assert c == pytest.approx((1.6, 1.6, 0.4, 0.4))

    def test_floor_applies_to_uncorrelated_factor(self):
        c = exponents_from_correlations([0.5, 0.5, 0.5, 0.0])
        floored = [0.5, 0.5, 0.5, CORRELATION_FLOOR]
        expected = tuple(4 * m / sum(floored) for m in floored)
        assert c == pytest.approx(expected)
        assert min(c) > 0

    def test_all_below_floor_errors(self):
        with pytest.raises(CalibrationError):
            exponents_from_correlations([0.01, 0.0, 0.02, 0.04])

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=4))
    def test_sums_to_four_and_permutation_equivariant(self, mags):
        try:
            c = exponents_from_correlations(mags)
        except CalibrationError:
            assert all(m < CORRELATION_FLOOR for m in mags)
            return
        assert sum(c) == pytest.approx(4.0)
        rev = exponents_from_correlations(list(reversed(mags)))
        assert rev == pytest.approx(tuple(reversed(c)))

    def test_estimate_from_series(self):
        rng = np.random.default_rng(5)
        base = list(rng.uniform(0, 50, size=60))
        inc = series(base, Variable.INCIDENCE)
        factors = [series(base, Variable.RAINFALL) for _ in range(4)]
        c = estimate_exponents(factors, inc)
        assert c == pytest.approx((1.0, 1.0, 1.0, 1.0))
