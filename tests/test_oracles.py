"""The per-origin stages give, bit for bit, what the loops in
``tests/reference.py`` give, on seeded fuzzed input: NaN gaps, constant rows,
offsets of 1e8, scales of 1e-8 and 1e8, fewer than three months, no factor
rows at all, and spikes in the first and last month."""

import numpy as np
import pytest

from denguewatch.baseline import predict_and_extract
from denguewatch.calibrate import (
    LagResult,
    _lagged_pearson,
    best_lags,
    estimate_exponents,
    exponents_from_correlations,
    pearson,
)
from denguewatch.errors import DengueWatchError
from denguewatch.fuzzy import (
    humidity_mf_default,
    mobility_mf,
    rainfall_mf_from_cutoffs,
    temperature_mf_default,
)
from denguewatch.panel import (
    MobilityMatrix, MonthIndex, MonthlySeries, Panel, Variable, align, shift,
)
from denguewatch.risk import Calibration, Lags, MembershipFunctions, objective_space

from reference import (
    reference_best_lags,
    reference_objective_space,
    reference_pearson_rows,
    reference_predict_and_extract,
)

START = MonthIndex(2012, 1)
KINDS = ("plain", "gaps", "shared_gaps", "constant", "offset", "scaled", "short", "spikes")
SEEDS = range(25)


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except DengueWatchError as exc:
        return type(exc), str(exc)


def entries(results):
    """A row pass's entries, with each error as its type and message."""
    return [(type(r), str(r)) if isinstance(r, Exception) else r for r in results]


def at_lag_zero(results):
    """A row pass's results as best_lags(rows, y, 0) gives them: each r as a
    LagResult at lag 0, each error as it is."""
    return [r if isinstance(r, Exception) else LagResult(0, r) for r in results]


def apply_kind(kind, rng, rows, inc):
    """Give the float array ``rows`` (last axis: months) and ``inc`` the
    features of ``kind``, in place."""
    n = inc.size
    if kind == "gaps":
        rows[rng.uniform(size=rows.shape) < 0.15] = np.nan
        inc[rng.uniform(size=n) < 0.1] = np.nan
    elif kind == "shared_gaps":
        rows[..., rng.uniform(size=n) < 0.2] = np.nan
    elif kind == "constant":
        rows[-1] = 0.1
        if rng.uniform() < 0.3:
            inc[:] = 7.0
    elif kind == "offset":
        rows += 1e8
        inc += 1e8 * rng.integers(0, 2)
    elif kind == "scaled":
        rows *= 10.0 ** rng.choice([-8, 8], size=(len(rows),) + (1,) * (rows.ndim - 1))
        inc *= 10.0 ** rng.choice([-8, 8])
    elif kind == "spikes" and n:
        rows[..., [0, -1]] *= 50.0
        inc[[0, -1]] *= 50.0


def factor_stack(kind, seed):
    """Seeded (factor rows, incidence): 0-4 rows, 0-2 months when short."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    m = seed % 5  # 0: no factor rows
    n = int(rng.integers(0, 3)) if kind == "short" else int(rng.integers(12, 140))
    inc = rng.poisson(20.0, size=n).astype(float) + 1.0
    xs = rng.normal(size=(m, n))
    if m:
        k = int(rng.integers(0, 7))
        xs[0, : max(n - k, 0)] += inc[k:] / 5.0
        apply_kind(kind, rng, xs, inc)
    return xs, inc


class TestCorrelationPass:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_at_every_lag(self, kind):
        """Each lag's slices, as best_lags passes them."""
        for seed in SEEDS:
            xs, inc = factor_stack(kind, seed)
            n = inc.size
            for k in range(min(7, n) + 1):
                xk, yk = xs[:, : n - k], inc[k:]
                got, expected = best_lags(xk, yk, 0), reference_pearson_rows(xk, yk)
                assert entries(got) == entries(at_lag_zero(expected)), (seed, k)

    @pytest.mark.parametrize("kind", KINDS)
    def test_best_lags_and_pearson(self, kind):
        for seed in SEEDS:
            xs, inc = factor_stack(kind, seed)
            factors = list(xs)
            expected_r = entries([reference_pearson_rows(f[None], inc)[0] for f in factors])
            expected = entries(reference_best_lags(factors, inc, 6))
            assert entries(best_lags(factors, inc, 6)) == expected, seed
            assert [outcome(pearson, f, inc) for f in factors] == expected_r, seed


LAG_KINDS = (
    "plain", "own_gaps", "shared_gaps", "all_nan_row", "constant", "short", "past_the_end",
    "subnormal", "huge_and_tiny",
)


def lag_case(kind, seed, n=None):
    """Seeded (1-4 factor rows, incidence, max_lag) of one kind; factor 0
    follows incidence at a planted lag."""
    rng = np.random.default_rng([seed, LAG_KINDS.index(kind), 3])
    m = 1 + seed % 4
    if n is None:
        n = {"short": int(rng.integers(0, 5)), "past_the_end": int(rng.integers(3, 10))}.get(
            kind, int(rng.integers(12, 150))
        )
    max_lag = n + int(rng.integers(1, 4)) if kind in ("short", "past_the_end") else 6
    inc = rng.poisson(20.0, size=n).astype(float) + rng.uniform(size=n)
    xs = rng.normal(size=(m, n))
    k = int(rng.integers(0, 7))
    xs[0, : max(n - k, 0)] += inc[k:] / 5.0
    if kind == "own_gaps":
        xs[rng.uniform(size=xs.shape) < 0.2] = np.nan
        inc[rng.uniform(size=n) < 0.1] = np.nan
    elif kind == "shared_gaps":
        xs[:, rng.uniform(size=n) < 0.2] = np.nan
    elif kind == "all_nan_row":
        xs[-1] = np.nan
    elif kind == "constant":  # zero spread, or a spread of a few ulps of the mean
        xs[-1] = 0.1
        xs[1:-1] = 1e8 + np.arange(n) * 1e-7
    elif kind == "subnormal":  # a few ulps of the smallest subnormal apart
        xs = np.round(xs * 4.0) * 5e-324
        inc = np.round(inc) * 5e-324
    elif kind == "huge_and_tiny":
        xs *= 10.0 ** rng.choice([-150, 150], size=(m, 1))
        inc *= 10.0 ** rng.choice([-150, 150])
    return list(xs), inc, max_lag


class TestMaskedLagPass:
    """The lag search correlates every lag of every factor in one pass of
    prefix-masked row sums; it equals one reference row pass per lag."""

    def test_prefix_masked_sums_equal_lone_sums(self):
        """The numpy property the pass relies on: a row sum under a prefix
        mask equals the sum of the lone slice, bit for bit, for x, c*c and
        c*y, whatever the padding past the prefix holds."""
        rng = np.random.default_rng(7)
        for length in [*range(1, 301), 8191, 8192, 12000]:
            months = length + int(rng.integers(0, 9))
            z = rng.normal(size=(3, 3, months)) * 10.0 ** rng.integers(-100, 100, size=(3, 3, 1))
            size = np.array([length, int(rng.integers(1, length + 1)), months])
            z[1, :, size[1]:] = 1e100  # past the prefix: never summed
            mask = np.arange(months) < size[:, None, None]
            cc, cy = z * z, z * z[:, -1:]
            sums = [a.sum(axis=-1, where=mask) for a in (z, cc, cy)]
            for b, p in np.ndindex(3, 3):
                lone = [a[b, p, : size[b]].sum() for a in (z, cc, cy)]
                assert [s[b, p] for s in sums] == lone, (length, b, p)

    @pytest.mark.parametrize("kind", LAG_KINDS)
    def test_every_lag_equals_reference_rows(self, kind):
        for seed in range(40):
            factors, inc, max_lag = lag_case(kind, seed)
            xs, n = np.array(factors).reshape(len(factors), inc.size), inc.size
            for k in range(min(max_lag, n) + 1):
                got = best_lags(xs[:, : n - k], inc[k:], 0)
                expected = reference_pearson_rows(xs[:, : n - k], inc[k:])
                assert entries(got) == entries(at_lag_zero(expected))
            expected = reference_best_lags(factors, inc, max_lag)
            assert entries(best_lags(factors, inc, max_lag)) == entries(expected), seed
            if len(factors) == 4:
                at_zero = reference_best_lags(factors, inc, 0)
                mags = [0.0 if isinstance(r, Exception) else abs(r.correlation) for r in at_zero]
                assert outcome(estimate_exponents, factors, inc) == outcome(
                    exponents_from_correlations, mags
                ), seed

    @pytest.mark.parametrize("kind", ["plain", "own_gaps"])
    def test_long_panel(self, kind):
        factors, inc, max_lag = lag_case(kind, 3, n=12000)
        assert entries(best_lags(factors, inc, max_lag)) == entries(
            reference_best_lags(factors, inc, max_lag)
        )

    def test_cases_reach_every_outcome(self):
        """The fuzzed cases hold defined and undefined lags of both kinds."""
        found = set()
        for kind in LAG_KINDS:
            for seed in range(40):
                for r in best_lags(*lag_case(kind, seed)):
                    found.add(str(r).split()[0] if isinstance(r, Exception) else "defined")
        assert found == {"defined", "need", "zero"}

    @pytest.mark.parametrize("kind", LAG_KINDS)
    def test_a_padded_row_is_the_row_at_that_lag(self, kind):
        """A row padded by ``shift(row, a)`` and correlated at lag 0 gives the
        r and count of the row searched at lag a, bit for bit: a pinned lag
        is scored as the search scores it as a candidate."""
        for seed in range(40):
            factors, inc, _ = lag_case(kind, seed)
            xs, n = np.array(factors).reshape(len(factors), inc.size), inc.size
            r, count = _lagged_pearson(xs, inc, min(n, 7) + 1)
            for a in range(min(n, 7) + 1):
                padded = np.array([shift(row, a) for row in xs]).reshape(xs.shape)
                r0, count0 = _lagged_pearson(padded, inc, 1)
                assert count0[0].tolist() == count[a].tolist(), (seed, a)
                assert np.array_equal(r0[0], r[a], equal_nan=True), (seed, a)


def risk_case(kind, seed):
    """Seeded ``objective_space`` arguments: a panel, a calibration, region
    WP, fed by NB through W, and an ideal point."""
    rng = np.random.default_rng([seed, KINDS.index(kind), 1])
    n = int(rng.integers(1, 4)) if kind == "short" else int(rng.integers(8, 132))
    pop = float(rng.integers(500, 5000))
    climate = np.array([
        rng.uniform(0.0, 600.0, n), rng.uniform(10.0, 40.0, n), rng.uniform(30.0, 100.0, n),
    ])
    counts = np.array([
        rng.poisson(40.0, n) + 1.0, rng.uniform(0.0, pop, n), np.full(n, pop),
        rng.poisson(30.0, n) + 0.0, np.full(n, pop / 2),
    ])
    if kind == "gaps":
        apply_kind(kind, rng, climate, counts[0])
        counts[1:4][rng.uniform(size=(3, n)) < 0.1] = np.nan
    elif kind in ("offset", "scaled"):  # counts only: the climate then leaves every band
        apply_kind(kind, rng, counts[None], counts[0])
    else:
        apply_kind(kind, rng, climate, counts[0])
    names = (Variable.RAINFALL, Variable.TEMPERATURE, Variable.HUMIDITY, Variable.INCIDENCE,
             Variable.SUSCEPTIBLE, Variable.POPULATION)
    series = {("WP", v): MonthlySeries("WP", v, START, values)
              for v, values in zip(names, [*climate, *counts[:3]])}
    for v, values in zip((Variable.INCIDENCE, Variable.POPULATION), counts[3:]):
        series[("NB", v)] = MonthlySeries("NB", v, START, values)
    w = rng.uniform(0.0, 2.0)
    panel = align(Panel(series, MobilityMatrix(("NB", "WP"), ((0.0, 0.0), (w, 0.0)))))
    r_min = float(rng.uniform(50.0, 250.0))
    mfs = MembershipFunctions(
        rainfall_mf_from_cutoffs(r_min, r_min + float(rng.uniform(10.0, 300.0))),
        temperature_mf_default(), humidity_mf_default(),
        mobility_mf(float(rng.uniform(0.01, 1.0))),
    )
    calibration = Calibration(
        lags=Lags(*(int(k) for k in rng.integers(0, 4, size=4))),
        correlations={},
        cutoffs=None,
        exponents=tuple(rng.choice([0.05, 0.5, 1.0, 1.7, 3.85], size=4)),
        mobility_c=1.0,
        membership=mfs,
    )
    ideals = (float(rng.choice([1.0, 0.8, 0.3])), float(rng.choice([1.0, 0.5])))
    return panel, calibration, "WP", *ideals


class TestObjectiveSpace:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_per_month_products(self, kind):
        for seed in SEEDS:
            case = risk_case(kind, seed)
            assert outcome(objective_space, *case) == outcome(
                reference_objective_space, *case
            ), seed

    def test_cases_reach_the_products(self):
        """The fuzzed cases are not all errors, and some months are skipped."""
        series = [outcome(objective_space, *risk_case(k, s)) for k in KINDS for s in SEEDS]
        done = [s for s in series if not isinstance(s, tuple)]
        assert len(done) > len(series) // 2
        assert any(s.skipped for s in done)


def fitted_case(kind, seed):
    """Seeded (fitted values, months, quantile) whose fitted values have the
    features of ``kind``, ties and plateaus included."""
    rng = np.random.default_rng([seed, KINDS.index(kind), 2])
    n = int(rng.integers(1, 4)) if kind == "short" else int(rng.integers(8, 120))
    values = rng.integers(0, 6, size=(1, n)).astype(float)  # plateaus and ties
    if seed % 2:
        values += rng.normal(size=n)
    apply_kind(kind, rng, values, np.zeros(n))
    fitted = values[0]
    if seed % 3 == 0 and kind == "plain":  # a fitted design
        fitted = rng.normal(size=(n, 7)) @ rng.normal(size=7)
    months = [START + k for k in range(n)]
    return fitted, months, float(rng.choice([0.05, 0.5, 0.85, 0.95]))


class TestPredictAndExtract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_numpy_scalar_scan(self, kind):
        for seed in SEEDS:
            case = fitted_case(kind, seed)
            assert predict_and_extract(*case) == reference_predict_and_extract(*case), seed
