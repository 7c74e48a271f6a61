"""Acceptance gate: one test per release criterion, oracle-checked.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; tolerances are pinned in the assertions themselves.
"""

import json
import time

import numpy as np
import pytest
import yaml

from denguewatch import pipeline
from denguewatch.baseline import COLUMN_NAMES, fit_ols
from denguewatch.calibrate import best_lag, rainfall_cutoffs
from denguewatch.cli import main as cli_main
from denguewatch.config import default_config
from denguewatch.evaluation import OutbreakCalendar, score
from denguewatch.fuzzy import (
    humidity_mf_default,
    mobility_mf,
    rainfall_mf_from_cutoffs,
    temperature_mf_default,
)
from denguewatch.panel import MonthIndex, Variable
from denguewatch.pareto import rank_points
from denguewatch.risk import Lags
from denguewatch.synth import SplitMix64, SynthConfig, TARGET_REGION, generate

from reference import Point, pareto_front, table2_fixture, value_at

T0 = MonthIndex(2010, 1)
SPAN_105 = (MonthIndex(2010, 4), MonthIndex(2018, 12))


def test_criterion_1_pareto_oracle_equivalence():
    """100 random point sets (n <= 500) match an O(n^2) oracle; < 5 s total."""
    started = time.perf_counter()
    rng = np.random.default_rng(20100401)
    for trial in range(100):
        n = int(rng.integers(1, 501))
        coords = [(float(a), float(b)) for a, b in rng.random((n, 2))]
        pts = [Point(T0 + i, d1, d2) for i, (d1, d2) in enumerate(coords)]

        oracle_ranks = []
        for a1, a2 in coords:
            oracle_ranks.append(
                sum(
                    1
                    for b1, b2 in coords
                    if b1 <= a1 and b2 <= a2 and (b1 < a1 or b2 < a2)
                )
            )
        ranks = rank_points([p.d1 for p in pts], [p.d2 for p in pts])
        assert ranks.tolist() == oracle_ranks
        oracle_front = sorted(
            pts[i].t for i, r in enumerate(oracle_ranks) if r == 0
        )
        assert [p.t for p in pareto_front(pts)] == oracle_front
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"
    print(f"PASS criterion 1: Pareto front/rank match O(n^2) oracle on 100 sets in {elapsed:.2f}s")


def test_criterion_2_published_error_rates():
    """7 and 12 mismatches over Apr 2010-Dec 2018 give 6.67% / 11.43% +-0.01pp."""
    actual, multicriteria, regression = table2_fixture()
    assert len(actual.months) == 23
    assert len(multicriteria) == 17
    assert len(regression) == 19
    for count, published in ((7, 6.67), (12, 11.43)):
        mismatched = OutbreakCalendar(tuple(MonthIndex(2012, m) for m in range(1, count + 1)))
        r = score((), mismatched, SPAN_105, match_window=0)
        assert r.total_months == 105
        assert r.error_rate * 100 == pytest.approx(published, abs=0.01)
    print("PASS criterion 2: published error rates 6.67% and 11.43% reproduced within 0.01pp")


def test_criterion_3_planted_lag_recovery():
    """Exact noiseless recovery for every lag <= 6; >= 95/100 at 10% noise."""
    factor_vars = {
        "rain": (TARGET_REGION, Variable.RAINFALL),
        "temp": (TARGET_REGION, Variable.TEMPERATURE),
        "humid": (TARGET_REGION, Variable.HUMIDITY),
        "mobility": ("NB", Variable.INCIDENCE),
    }

    def recovered(panel, planted):
        inc = panel.get(TARGET_REGION, Variable.INCIDENCE).values
        for name, key in factor_vars.items():
            if best_lag(panel.get(*key).values, inc).lag_months != getattr(planted, name):
                return False
        return True

    for k in range(7):
        lags = Lags(k, k, k, k)
        panel, _ = generate(SynthConfig(planted_lags=lags))
        assert recovered(panel, lags), f"noiseless recovery failed at lag {k}"
    defaults = Lags(2, 3, 2, 1)
    panel, _ = generate(SynthConfig(planted_lags=defaults))
    assert recovered(panel, defaults)

    successes = sum(
        recovered(
            generate(SynthConfig(planted_lags=defaults, noise_scale=0.1, seed=1000 + s))[0],
            defaults,
        )
        for s in range(100)
    )
    assert successes >= 95, f"only {successes}/100 noisy trials recovered all lags"
    print(f"PASS criterion 3: noiseless lags 0..6 exact; noisy recovery {successes}/100")


def test_criterion_4_rainfall_cutoff_recovery():
    """Planted (150,350) mm band recovered within one 10 mm grid step."""
    n, lag = 150, 2
    rng = SplitMix64(8675309)
    rain_vals = [600.0 * rng.uniform() for _ in range(n)]
    inc_vals = [0.0] * n
    for t in range(lag, n):
        inc_vals[t] = 1.0 if 150.0 <= rain_vals[t - lag] <= 350.0 else 0.0
    result = rainfall_cutoffs(np.array(rain_vals), np.array(inc_vals), lag=lag, grid_step=10.0)
    assert abs(result.r_min - 150.0) <= 10.0, f"r_min {result.r_min}"
    assert abs(result.r_max - 350.0) <= 10.0, f"r_max {result.r_max}"
    print(f"PASS criterion 4: cutoffs ({result.r_min}, {result.r_max}) within 10 mm of (150, 350)")


def test_criterion_5_membership_invariants():
    """10^6 randomized evaluations stay in [0,1]; temperature bands exact."""
    rng = np.random.default_rng(77)
    mfs = [
        temperature_mf_default(),
        humidity_mf_default(),
        rainfall_mf_from_cutoffs(150, 350),
        mobility_mf(0.25),
    ]
    per_mf = 250_000
    for mf in mfs:
        xs = rng.uniform(-1e4, 1e4, size=per_mf)
        ys = mf.evaluate(xs)
        assert np.all((ys >= 0.0) & (ys <= 1.0))
    temp = mfs[0]
    band = np.linspace(20.0, 30.0, 10_001)
    assert np.all(temp.evaluate(band) == 1.0)
    outside = np.concatenate([np.linspace(-50, 15, 5_001), np.linspace(36, 80, 5_001)])
    assert np.all(temp.evaluate(outside) == 0.0)
    print("PASS criterion 5: 10^6 membership evaluations in [0,1]; temperature bands exact")


def test_criterion_6_ols_correctness():
    """Normal-equations agreement (1e-6 rel) and exact noiseless recovery (1e-8)."""
    rng = np.random.default_rng(4242)
    for _ in range(100):
        n = int(rng.integers(20, 200))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, len(COLUMN_NAMES) - 1))])
        y = rng.normal(size=n)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        got = np.array(fit_ols(x, y).values)
        np.testing.assert_allclose(got, oracle, rtol=1e-6, atol=1e-9)

    x = np.column_stack([np.ones(60), rng.normal(size=(60, 6))])
    beta = np.array([12.0, -3.0, 0.4, 7.5, -0.02, 1.0, 2.5])
    got = np.array(fit_ols(x, x @ beta).values)
    np.testing.assert_allclose(got, beta, atol=1e-8)
    print("PASS criterion 6: OLS matches normal equations (1e-6) and recovers planted coefficients (1e-8)")


def test_criterion_7_end_to_end_detection(tmp_path, capsys):
    """report flags all 5 planted months (+-1), zero FP, byte-identical, < 10 s."""
    data = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data)]) == 0
    cfg = {
        "inputs": {
            name: str(data / f"{name}.csv")
            for name in (
                "rainfall", "temperature", "humidity",
                "incidence", "susceptible", "population", "mobility",
            )
        }
    }
    cfg["inputs"]["actual_outbreaks"] = str(data / "outbreaks.csv")
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        started = time.perf_counter()
        assert cli_main(["--config", str(cfg_path), "report", "--out", str(out)]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"report took {elapsed:.2f}s"
        outs.append(out)
    capsys.readouterr()

    ev = json.loads((outs[0] / "evaluation.json").read_text())
    assert ev["multicriteria"]["matches"] == 5
    assert ev["multicriteria"]["false_positives"] == 0
    assert ev["multicriteria"]["false_negatives"] == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for fname in names:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
    print("PASS criterion 7: all 5 planted months flagged, 0 false positives, byte-identical runs")


def test_criterion_8_objective_space_contracts():
    """d1/d2 follow the clamped closeness formulas and R re-derives, all to 1e-12."""
    panel, _ = generate(SynthConfig())
    cfg = default_config()
    calibration = pipeline.calibrate_panel(panel, cfg)
    series, _ = pipeline.detect(panel, cfg, calibration)
    mfs = pipeline.membership_functions(cfg, calibration.cutoffs, calibration.mobility_c)
    params = pipeline.risk_params(cfg, calibration)
    lags = calibration.lags

    def clamp01(x):
        return min(1.0, max(0.0, x))

    def value(variable, t, region=TARGET_REGION):
        return value_at(panel.get(region, variable), t)

    def mobility_risk(t):
        m = panel.mobility
        row = m.weights[m.regions.index(TARGET_REGION)]
        return sum(
            w * value(Variable.INCIDENCE, t, j) / value(Variable.POPULATION, t, j)
            for j, w in zip(m.regions, row)
            if w > 0
        )

    i_peak = max(panel.get(TARGET_REGION, Variable.INCIDENCE).values)
    assert series.months, "no emitted months"
    for m in series.months:
        t = m.t
        assert abs(m.d1 - clamp01(1.0 - m.R / params.r_ideal)) <= 1e-12
        assert abs(m.d2 - clamp01(1.0 - m.L / params.l_ideal)) <= 1e-12

        memberships = (
            mfs.rain.evaluate(value(Variable.RAINFALL, t - lags.rain)),
            mfs.temp.evaluate(value(Variable.TEMPERATURE, t - lags.temp)),
            mfs.humid.evaluate(value(Variable.HUMIDITY, t - lags.humid)),
            mfs.mobility.evaluate(mobility_risk(t - lags.mobility)),
        )
        r_re = 1.0
        for mu, c in zip(memberships, params.exponents):
            r_re *= float(mu) ** c
        assert abs(m.R - r_re) <= 1e-12

        l_re = (
            value(Variable.SUSCEPTIBLE, t - 1)
            / value(Variable.POPULATION, t - 1)
            * value(Variable.INCIDENCE, t - 1)
            / i_peak
        )
        assert abs(m.L - l_re) <= 1e-12
    print(f"PASS criterion 8: closeness and risk contracts hold to 1e-12 over {len(series.months)} months")
