import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from denguewatch import calibrate
from denguewatch.calibrate import (
    CORRELATION_FLOOR,
    DEFAULT_MAX_LAG,
    CutoffResult,
    LagResult,
    _band_scores,
    best_lag,
    best_lags,
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
from denguewatch.risk import Lags
from denguewatch.synth import SplitMix64

from reference import reference_pearson

TIE_EPS = 1e-12


def column(values):
    return np.array(values, dtype=float)


def shifted(values, k):
    """values[t - k] at month t, NaN for the first k months."""
    if k < 0:
        raise ParameterError(f"lag must be >= 0, got {k}")
    values = column(values)
    n = values.size
    return np.concatenate((np.full(min(k, n), np.nan), values[: max(n - k, 0)]))


def reference_best_lag(factor, incidence, max_lag=DEFAULT_MAX_LAG):
    """The per-lag loop: correlate the NaN-shifted factor at every lag with
    the scalar reference r."""
    if max_lag < 0:
        raise ParameterError(f"max_lag must be >= 0, got {max_lag}")
    best = None
    last_error = None
    for k in range(max_lag + 1):
        try:
            r = reference_pearson(shifted(factor, k), incidence)
        except CorrelationUndefinedError as exc:
            last_error = exc
            continue
        if best is None or abs(r) > abs(best.correlation) + TIE_EPS:
            best = LagResult(k, r)
    if best is None:
        raise last_error if last_error is not None else CorrelationUndefinedError(
            "no lag produced a defined correlation"
        )
    return best


def reference_rainfall_cutoffs(rain, incidence, lag, grid_step=10.0):
    """The exhaustive loop: one pearson call per (r_min, r_max) pair."""
    if grid_step <= 0:
        raise ParameterError(f"grid_step must be > 0, got {grid_step}")
    ra, ia = shifted(rain, lag), column(incidence)
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
    best = None
    for ai, a in enumerate(grid):
        for b in grid[ai + 1 :]:
            z = ((ra >= a) & (ra <= b)).astype(float)
            z[np.isnan(ra)] = np.nan
            try:
                r = reference_pearson(z, ia)
            except CorrelationUndefinedError:
                continue
            if best is None:
                best = CutoffResult(a, b, r)
                continue
            if r > best.correlation + TIE_EPS:
                best = CutoffResult(a, b, r)
            elif abs(r - best.correlation) <= TIE_EPS:
                width, best_width = b - a, best.r_max - best.r_min
                if width > best_width + TIE_EPS or (
                    abs(width - best_width) <= TIE_EPS and a < best.r_min
                ):
                    best = CutoffResult(a, b, r)
    if best is None:
        raise CalibrationError("no cutoff pair produced a defined correlation")
    return best


def reference_estimate_exponents(factors, incidence):
    """Exponents from the scalar reference r of each factor at lag 0; an
    undefined r is 0."""
    mags = []
    for f in factors:
        try:
            mags.append(abs(reference_pearson(f, incidence)))
        except CorrelationUndefinedError:
            mags.append(0.0)
    return exponents_from_correlations(mags)


def outcome(fn, *args):
    """The result, or the type and message of the calibration error raised."""
    try:
        return fn(*args)
    except (CalibrationError, CorrelationUndefinedError, ParameterError) as exc:
        return type(exc), str(exc)


# xs and shift share one dyadic grid 2**-q and scale is a power of two, so
# scale*x + shift is exact: the test checks pearson, not the rounding of the
# transform (a rounded transform can change r: [0, 0, 1e-16, 2**-52] + 1).
_GRID_EXPONENT = st.shared(st.integers(0, 1000), key="dyadic-grid")
power_of_two = st.integers(-4, 4).map(lambda e: math.ldexp(1.0, e))


def on_grid(bound):
    return _GRID_EXPONENT.flatmap(
        lambda q: st.integers(-bound, bound).map(lambda m: math.ldexp(m, -q))
    )


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

    @pytest.mark.parametrize(
        "x, y, expected",
        [
            (1.0, 2.0, (CorrelationUndefinedError, "need >= 3 paired observations, got 1")),
            (np.arange(6.0).reshape(2, 3), np.arange(6.0).reshape(2, 3) ** 2, 0.959883285288332),
            ([1, 2, 3], [[1, 2, 3]], (ParameterError, "length mismatch: 3 vs 3")),
            ([1, None, 3, 4, 5], [2, 3, None, 7, 11], 0.9765536333140981),
            ([1, 2], [3, 5], (CorrelationUndefinedError, "need >= 3 paired observations, got 2")),
            ([4, 4, 4, 4], [1, 2, 3, 5],
             (CorrelationUndefinedError, "zero variance in at least one argument")),
        ],
        ids=["scalars", "2-d", "shapes-differ", "gaps", "two-pairs", "constant"],
    )
    def test_pinned_outcomes(self, x, y, expected):
        """Scalars and equal-shape arrays of any rank are flattened; the
        shapes, not the sizes, must agree."""
        assert outcome(pearson, x, y) == expected

    @given(st.lists(on_grid(2**31), min_size=4, max_size=40), power_of_two, on_grid(2**31))
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

    @pytest.mark.parametrize("seed", range(40))
    def test_bit_identical_to_reference(self, seed):
        """r equals the scalar reference bit for bit, or raises the same error,
        on random vectors with gaps and on affine images of them."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        xs = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301)
        ys = rng.poisson(20.0, size=n).astype(float)
        xs[rng.uniform(size=n) < 0.1] = np.nan
        ys[rng.uniform(size=n) < 0.1] = np.nan
        for scale, shift in ((1.0, 0.0), (2.0**-7, 1e8), (-3.0, 0.1), (1e-300, 0.0)):
            x = scale * xs + shift
            assert outcome(pearson, x, ys) == outcome(reference_pearson, x, ys)
            assert outcome(pearson, ys, x) == outcome(reference_pearson, ys, x)

    @given(st.lists(on_grid(2**31), min_size=0, max_size=40), power_of_two, on_grid(2**31))
    def test_affine_bit_identical_to_reference(self, xs, scale, shift):
        ys = list(np.random.default_rng(len(xs)).normal(size=len(xs)))
        transformed = [scale * x + shift for x in xs]
        assert outcome(pearson, transformed, ys) == outcome(reference_pearson, transformed, ys)


class TestBestLag:
    def test_defaults_constant(self):
        assert asdict(Lags()) == {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}

    def test_zero_lag_identity(self):
        rng = np.random.default_rng(1)
        values = list(rng.uniform(1, 9, size=40))
        f = column(values)
        inc = column(values)
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == 0
        assert result.correlation == pytest.approx(1.0)

    @pytest.mark.parametrize("k", range(7))
    def test_recovers_planted_lag(self, k):
        rng = np.random.default_rng(42)
        base = list(rng.normal(size=60))
        f = column(base)
        inc = column([0.0] * k + base[: 60 - k])
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == k
        assert abs(result.correlation) == pytest.approx(1.0)

    def test_negative_association_still_found(self):
        rng = np.random.default_rng(3)
        base = list(rng.normal(size=50))
        f = column(base)
        inc = column([0.0] * 2 + [-v for v in base[:48]])
        result = best_lag(f, inc, max_lag=6)
        assert result.lag_months == 2
        assert result.correlation == pytest.approx(-1.0)

    def test_propagates_undefined(self):
        f = column([1.0] * 20)
        inc = column(range(20))
        with pytest.raises(CorrelationUndefinedError):
            best_lag(f, inc, max_lag=3)


class TestRainfallCutoffs:
    def _planted_band(self, lag=2, n=150, seed=11):
        rng = SplitMix64(seed)
        rain_vals = [600.0 * rng.uniform() for _ in range(n)]
        inc_vals = [0.0] * n
        for t in range(lag, n):
            inc_vals[t] = 1.0 if 150.0 <= rain_vals[t - lag] <= 350.0 else 0.0
        return column(rain_vals), column(inc_vals)

    def test_planted_band_recovered(self):
        rain, inc = self._planted_band()
        result = rainfall_cutoffs(shifted(rain, 2), inc, grid_step=10.0)
        assert abs(result.r_min - 150.0) <= 10.0
        assert abs(result.r_max - 350.0) <= 10.0

    def test_constant_rain_errors(self):
        rain = column([100.0] * 40)
        inc = column(range(40))
        with pytest.raises(CalibrationError):
            rainfall_cutoffs(rain, inc)

    def test_oversized_step_errors(self):
        rain, inc = self._planted_band()
        with pytest.raises(CalibrationError, match="empty grid"):
            rainfall_cutoffs(shifted(rain, 2), inc, grid_step=10000.0)

    def test_bad_step_rejected(self):
        rain, inc = self._planted_band()
        with pytest.raises(ParameterError):
            rainfall_cutoffs(shifted(rain, 2), inc, grid_step=0.0)

    def test_grid_over_the_cap_raises_without_allocating(self):
        cap = calibrate._MAX_GRID_POINTS
        rain = column([0.0, float(cap)] * 3)  # cap + 1 grid points at step 1
        inc = column(range(6))
        tracemalloc.start()
        try:
            with pytest.raises(
                CalibrationError,
                match=rf"^calibration.grid_step 1.0 is too fine: {cap + 1} grid points ",
            ):
                rainfall_cutoffs(rain, inc, grid_step=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_at_the_cap_is_searched(self, monkeypatch):
        monkeypatch.setattr(calibrate, "_MAX_GRID_POINTS", 10)
        rain = column([0.0, 3.0, 5.0, 9.0] * 3)
        inc = column([0.0, 1.0, 1.0, 0.0] * 3)
        assert rainfall_cutoffs(rain, inc, 1.0) == reference_rainfall_cutoffs(rain, inc, 0, 1.0)
        with pytest.raises(CalibrationError, match="too fine: 11 grid points"):
            rainfall_cutoffs(column([0.0, 3.0, 5.0, 10.0] * 3), inc, 1.0)


PANEL_KINDS = (
    "random", "planted", "noisy", "gaps", "constant", "huge_offset", "tiny", "ties",
    "short",
)


def oracle_panel(kind, seed):
    """Seeded (rain, incidence, lag) of one kind, for the oracle tests."""
    rng = np.random.default_rng([seed, PANEL_KINDS.index(kind)])
    lag = int(rng.integers(0, 7))
    n = lag + int(rng.integers(1, 3)) if kind == "short" else int(rng.integers(40, 100))
    rain = rng.uniform(0.0, 600.0, size=n)
    if kind == "ties":  # few rain values, so many grid pairs share a band
        rain = rng.choice([40.0, 120.0, 200.0, 260.0, 330.0, 410.0], size=n)
    planted = shifted((rain >= 150.0) & (rain <= 350.0), lag)
    planted[:lag] = 0.0
    inc = {
        "random": rng.poisson(20.0, size=n).astype(float),
        "planted": 10.0 + 90.0 * planted,
        "noisy": 10.0 + 90.0 * planted + rng.normal(0.0, 20.0, size=n),
        "gaps": 10.0 + 90.0 * planted + rng.normal(0.0, 5.0, size=n),
        "constant": np.full(n, 7.0),
        "huge_offset": 1e8 + (rng.permutation(n) if seed % 2 else np.arange(n)) * 1e-7,
        "tiny": 1e-300 * (1.0 + planted + rng.uniform(size=n)),  # squares underflow
        "ties": 3.0 * planted,
        "short": rng.poisson(20.0, size=n).astype(float),
    }[kind]
    if kind == "gaps":
        rain[rng.uniform(size=n) < 0.15] = np.nan
        inc[rng.uniform(size=n) < 0.15] = np.nan
    return rain, inc, lag


@st.composite
def drawn_panels(draw):
    """Short panels with repeated rain values, integer or real incidence and
    missing months, so exact ties and undefined pairs are common."""
    n = draw(st.integers(0, 40))
    rain_value = st.one_of(
        st.sampled_from([10.0, 35.0, 60.0, 110.0, 180.0, 250.0]),
        st.floats(0.0, 300.0),
        st.just(math.nan),
    )
    inc_value = st.one_of(
        st.integers(0, 30).map(float), st.floats(0.0, 1e4), st.just(math.nan)
    )
    rain = draw(st.lists(rain_value, min_size=n, max_size=n))
    inc = draw(st.lists(inc_value, min_size=n, max_size=n))
    return column(rain), column(inc)


STACK_KINDS = ("own_gaps", "shared_gaps", "constant", "scaled", "past_the_end", "short")


def lag_stack(kind, seed):
    """Seeded (1-4 factor columns, incidence, max_lag) of one kind, for the
    row-pass oracle. Factor 0 follows incidence at a planted lag."""
    rng = np.random.default_rng([seed, STACK_KINDS.index(kind)])
    m = 1 + seed % 4
    n = {"short": int(rng.integers(0, 3)), "past_the_end": int(rng.integers(3, 9))}.get(
        kind, int(rng.integers(20, 80))
    )
    max_lag = n + int(rng.integers(0, 3)) if kind in ("short", "past_the_end") else 6
    inc = rng.poisson(20.0, size=n).astype(float)
    factors = rng.normal(size=(m, n))
    k = int(rng.integers(0, 7))
    factors[0, : max(n - k, 0)] += inc[k:] / 5.0
    if kind == "own_gaps":  # each factor misses its own months
        factors[rng.uniform(size=(m, n)) < 0.2] = np.nan
        inc[rng.uniform(size=n) < 0.1] = np.nan
    elif kind == "shared_gaps":  # one mask: rows grouped, boolean-indexed
        factors[:, rng.uniform(size=n) < 0.2] = np.nan
        inc[rng.uniform(size=n) < 0.1] = np.nan
    elif kind == "constant":  # means that round off the value, huge offsets
        factors[m - 1] = 0.1
        if m > 2:
            factors[1] = 1e8 + np.arange(n) * 1e-7
    elif kind == "scaled":  # squares that underflow or overflow
        factors *= 10.0 ** rng.choice([-300, 300], size=(m, 1))
        inc *= 10.0 ** rng.choice([-300, 300])
    return list(factors), inc, max_lag


@st.composite
def drawn_stacks(draw):
    """1-4 factor columns beside one incidence column, with shared or own
    missing months."""
    rain, inc = draw(drawn_panels())
    rows = [rain] + [
        column(draw(st.lists(
            st.one_of(st.floats(-1e3, 1e3), st.just(math.nan)),
            min_size=inc.size, max_size=inc.size,
        )))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if draw(st.booleans()):  # the rain column's gaps in every row
        rows = [np.where(np.isnan(rain), np.nan, r) for r in rows]
    return rows, inc


def assert_row_pass_matches(factors, inc, max_lag):
    """best_lags gives each factor its reference result, or error, exactly."""
    for f, result in zip(factors, best_lags(factors, inc, max_lag), strict=True):
        if not isinstance(result, LagResult):
            result = type(result), str(result)
        assert result == outcome(reference_best_lag, f, inc, max_lag)


class TestSearchMatchesLoops:
    """The closed-form cutoff search and the row-batched lag search give the
    same result, or the same error, as the per-pair and per-factor per-lag
    loops over the scalar reference r."""

    @pytest.mark.parametrize("kind", PANEL_KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_panels(self, kind, seed):
        rain, inc, lag = oracle_panel(kind, seed)
        grid_step = (10.0, 25.0, 15.0, 10)[seed]
        assert outcome(rainfall_cutoffs, shifted(rain, lag), inc, grid_step) == outcome(
            reference_rainfall_cutoffs, rain, inc, lag, grid_step
        )
        assert outcome(best_lag, rain, inc, seed + 3) == outcome(
            reference_best_lag, rain, inc, seed + 3
        )

    @pytest.mark.parametrize("kind", PANEL_KINDS)
    def test_closed_form_scores_are_pearsons(self, kind):
        """Every band of the months sorted by rain scores pearson's r to
        1e-12, and is undefined exactly where pearson raises."""
        rain, inc, _ = oracle_panel(kind, 1)
        keep = ~(np.isnan(rain) | np.isnan(inc))
        x, y = rain[keep], inc[keep]
        order = np.argsort(x)
        lo, hi = np.triu_indices(x.size + 1)
        scores = _band_scores(y, order, lo, hi)
        for a, b, score in zip(lo, hi, scores):
            z = np.zeros(x.size)
            z[order[a:b]] = 1.0
            try:
                r = pearson(z, y)
            except CorrelationUndefinedError:
                assert score == -np.inf
            else:
                assert score == pytest.approx(r, abs=1e-12)

    def test_every_pair_undefined_on_constant_incidence(self):
        rain, inc, lag = oracle_panel("constant", 0)
        with pytest.raises(CalibrationError, match="no cutoff pair"):
            rainfall_cutoffs(shifted(rain, lag), inc)

    def test_exact_ties_keep_widest_then_lowest_band(self):
        rain = column([40.0, 120.0, 200.0, 260.0, 330.0, 410.0] * 5)
        inc = column([0.0, 0.0, 1.0, 1.0, 0.0, 0.0] * 5)
        result = rainfall_cutoffs(rain, inc, grid_step=5.0)
        assert result == reference_rainfall_cutoffs(rain, inc, 0, grid_step=5.0)
        assert (result.r_min, result.r_max) == (125.0, 325.0)
        assert result.correlation == pytest.approx(1.0)

    @pytest.mark.parametrize("right_edge", [350.0, 480.0])
    @pytest.mark.parametrize("seed", range(12))
    def test_near_ties_between_bands(self, seed, right_edge):
        """Two bands hold the same incidence values in another order, so their
        r differ by rounding only; the 1e-12 rule then prefers the wider one
        (the later band with right_edge 480, the earlier with 350)."""
        rng = np.random.default_rng(seed)
        same = rng.uniform(1.0, 2.0, size=3)
        rain = column([100.0] * 3 + [300.0] * 3 + [20.0, right_edge, 200.0] * 2)
        inc = np.concatenate((same, rng.permutation(same), [-5.0, -5.0, -1000.0] * 2))
        perm = rng.permutation(rain.size)
        rain, inc = rain[perm], inc[perm]
        assert rainfall_cutoffs(rain, inc) == reference_rainfall_cutoffs(rain, inc, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_fine_grid_over_few_rain_values(self, seed):
        """Dozens of grid pairs share each band, the best one included."""
        rng = np.random.default_rng(seed)
        rain = rng.choice([40.0, 120.0, 200.0, 260.0, 330.0, 410.0], size=60)
        inc = 3.0 * ((rain >= 150.0) & (rain <= 350.0)) + rng.normal(0.0, 0.5 * (seed % 2), 60)
        grid_step = (4.0, 5.0, 7.5, 2.5)[seed]
        assert rainfall_cutoffs(rain, inc, grid_step) == reference_rainfall_cutoffs(
            rain, inc, 0, grid_step
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_on_a_fine_grid(self, seed):
        """Two bands' r differ by rounding only, and many pairs give each."""
        rng = np.random.default_rng(seed)
        same = rng.uniform(1.0, 2.0, size=3)
        rain = column([100.0] * 3 + [300.0] * 3 + [20.0, 480.0, 200.0] * 2)
        inc = np.concatenate((same, rng.permutation(same), [-5.0, -5.0, -1000.0] * 2))
        assert rainfall_cutoffs(rain, inc, 6.0) == reference_rainfall_cutoffs(rain, inc, 0, 6.0)

    def test_step_near_the_tie_width(self):
        """Grid points 1e-12 apart: widths tie within 1e-12, so every pair of
        the best bands is replayed, not only the widest per r_min."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            rain = rng.choice([0.0, 5.0, 10.0, 15.0, 20.0], size=24) * 1e-12
            inc = rng.poisson(5.0, size=24).astype(float)
            assert outcome(rainfall_cutoffs, rain, inc, 1e-12) == outcome(
                reference_rainfall_cutoffs, rain, inc, 0, 1e-12
            )

    def test_grid_at_the_cap_scores_distinct_bands_only(self):
        """A legal 2,700-point grid over 120 months holds at most 121**2
        distinct bands; the search stays small whatever the step."""
        rng = np.random.default_rng(0)
        rain = np.concatenate(([0.0, 2699.0], rng.uniform(0.0, 2699.0, size=118)))
        planted = (rain >= 600.0) & (rain <= 1500.0)
        inc = 10.0 + 90.0 * planted + rng.normal(0.0, 5.0, 120)
        tracemalloc.start()
        try:
            result = rainfall_cutoffs(rain, inc, grid_step=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert ((rain >= result.r_min) & (rain <= result.r_max) == planted).all()

    @settings(max_examples=60, deadline=None)
    @given(drawn_panels(), st.integers(0, 4), st.sampled_from([10.0, 25.0, 7.5, 20]))
    def test_drawn_panels_cutoffs(self, panel, lag, grid_step):
        rain, inc = panel
        assert outcome(rainfall_cutoffs, shifted(rain, lag), inc, grid_step) == outcome(
            reference_rainfall_cutoffs, rain, inc, lag, grid_step
        )

    @pytest.mark.parametrize("kind", STACK_KINDS)
    @pytest.mark.parametrize("seed", range(16))
    def test_row_pass_matches_per_factor_loop(self, kind, seed):
        factors, inc, max_lag = lag_stack(kind, seed)
        assert_row_pass_matches(factors, inc, max_lag)

    @pytest.mark.parametrize("kind", STACK_KINDS)
    @pytest.mark.parametrize("seed", range(3, 16, 4))
    def test_exponents_match_per_factor_reference(self, kind, seed):
        factors, inc, _ = lag_stack(kind, seed)  # four factors
        assert outcome(estimate_exponents, factors, inc) == outcome(
            reference_estimate_exponents, factors, inc
        )

    def test_length_mismatch_and_bad_max_lag(self):
        inc = column(range(10))
        with pytest.raises(ParameterError, match="length mismatch: 9 vs 10"):
            best_lags([column(range(10)), column(range(9))], inc, 3)
        with pytest.raises(ParameterError, match="max_lag must be >= 0"):
            best_lags([column(range(10))], inc, -1)
        assert best_lags([], inc, 3) == []

    def test_lags_past_the_end_are_not_searched_one_by_one(self):
        """Every lag past the span pairs no months, so a huge max_lag ends as
        max_lag = n does, without a loop that long."""
        rng = np.random.default_rng(0)
        f, inc = rng.normal(size=12), rng.normal(size=12)
        assert best_lag(f, inc, 10**12) == reference_best_lag(f, inc, 14)
        assert outcome(best_lag, f[:2], inc[:2], 10**12) == outcome(
            reference_best_lag, f[:2], inc[:2], 5
        )

    @settings(deadline=None)
    @given(drawn_stacks(), st.integers(0, 7))
    def test_drawn_stacks(self, stack, max_lag):
        factors, inc = stack
        assert_row_pass_matches(factors, inc, max_lag)

    @settings(deadline=None)
    @given(drawn_panels(), st.integers(-1, 7))
    def test_drawn_panels_lags(self, panel, max_lag):
        rain, inc = panel
        assert outcome(best_lag, rain, inc, max_lag) == outcome(
            reference_best_lag, rain, inc, max_lag
        )


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
        inc = column(base)
        factors = [column(base) for _ in range(4)]
        c = estimate_exponents(factors, inc)
        assert c == pytest.approx((1.0, 1.0, 1.0, 1.0))
