"""Orchestration shared by the CLI subcommands.

Each stage is a plain function from (panel, config) to results; ``report``
chains them and writes the artifact set. All emitted bytes are deterministic
for identical inputs and configuration.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baseline as bl
from . import calibrate as cal
from . import pareto
from .config import default_config
from .errors import ConfigError, PipelineError
from .evaluation import OutbreakCalendar, load_calendar, score
from .fuzzy import (
    PiecewiseLinearMF,
    humidity_mf_default,
    mobility_mf,
    rainfall_mf_from_cutoffs,
    temperature_mf_default,
)
from .panel import (
    MonthIndex,
    Panel,
    Variable,
    align,
    load_mobility,
    load_series_table,
)
from .risk import (
    Lags,
    MembershipFunctions,
    RiskParams,
    RiskSeries,
    default_mobility_c,
    mobility_risk,
    objective_space,
)

_INPUT_VARIABLES = {
    "rainfall": Variable.RAINFALL,
    "temperature": Variable.TEMPERATURE,
    "humidity": Variable.HUMIDITY,
    "incidence": Variable.INCIDENCE,
    "susceptible": Variable.SUSCEPTIBLE,
    "population": Variable.POPULATION,
}


def load_panel(cfg: dict) -> Panel:
    """Read every configured input CSV and align the result."""
    inputs = cfg["inputs"]
    series = {}
    for name, variable in _INPUT_VARIABLES.items():
        path = inputs.get(name)
        if path is None:
            raise ConfigError(f"inputs.{name} is not set")
        for region, s in load_series_table(path, variable).items():
            series[(region, variable)] = s
    mobility_path = inputs.get("mobility")
    if mobility_path is None:
        raise ConfigError("inputs.mobility is not set")
    mobility = load_mobility(mobility_path)
    return align(Panel(series=series, mobility=mobility))


def mobility_risk_series(panel: Panel, region: str) -> np.ndarray:
    """R_mob at lag 0 over the aligned span: the mobility factor calibration
    searches, and the column whose maximum is the default ``mobility_c``."""
    return mobility_risk(panel, region)


@dataclass(frozen=True)
class Calibration:
    lags: Lags
    correlations: dict  # factor name -> signed r at the chosen lag
    cutoffs: cal.CutoffResult
    exponents: tuple
    mobility_c: float

    def to_dict(self) -> dict:
        return {
            "lags": {
                "rain": self.lags.rain,
                "temp": self.lags.temp,
                "humid": self.lags.humid,
                "mobility": self.lags.mobility,
            },
            "correlations": dict(self.correlations),
            "rainfall_cutoffs": {
                "r_min": self.cutoffs.r_min,
                "r_max": self.cutoffs.r_max,
                "correlation": self.cutoffs.correlation,
            },
            "exponents": list(self.exponents),
            "mobility_c": self.mobility_c,
        }


def _factor_columns(panel: Panel, region: str) -> dict:
    return {
        "rain": panel.require(region, Variable.RAINFALL).to_array(),
        "temp": panel.require(region, Variable.TEMPERATURE).to_array(),
        "humid": panel.require(region, Variable.HUMIDITY).to_array(),
        "mobility": mobility_risk_series(panel, region),
    }


def calibrate_panel(panel: Panel, cfg: dict) -> Calibration:
    """Resolve lags, rainfall cutoffs, exponents, and the mobility normalizer,
    searching only for whatever the config leaves null."""
    region = cfg["region"]
    ccfg = cfg["calibration"]
    max_lag = ccfg["max_lag"]
    incidence = panel.require(region, Variable.INCIDENCE).to_array()
    factors = _factor_columns(panel, region)

    correlations = {}
    if ccfg["lags"] is not None:
        lags = Lags(**{k: int(v) for k, v in ccfg["lags"].items()})
        for name, column in factors.items():
            pair = cal.lagged_pair(column, incidence, getattr(lags, name))
            correlations[name] = cal.pearson(*pair)
    else:
        chosen = {}
        for name, column in factors.items():
            result = cal.best_lag(column, incidence, max_lag)
            chosen[name] = result.lag_months
            correlations[name] = result.correlation
        lags = Lags(**chosen)

    if ccfg["rainfall_cutoffs"] is not None:
        r_min, r_max = (float(v) for v in ccfg["rainfall_cutoffs"])
        band = cal.band_indicator(factors["rain"], r_min, r_max)
        r = cal.pearson(*cal.lagged_pair(band, incidence, lags.rain))
        cutoffs = cal.CutoffResult(r_min, r_max, r)
    else:
        cutoffs = cal.rainfall_cutoffs(
            factors["rain"], incidence, lags.rain, ccfg["grid_step"]
        )

    mobility_c = cfg["risk"]["mobility_c"]
    if mobility_c is None:
        mobility_c = default_mobility_c(factors["mobility"], region)
    mobility_c = float(mobility_c)

    if ccfg["exponents"] is not None:
        exponents = tuple(float(c) for c in ccfg["exponents"])
        if len(exponents) != 4:
            raise ConfigError("calibration.exponents needs exactly 4 values")
    else:
        mfs = membership_functions(cfg, cutoffs, mobility_c)
        member = [getattr(mfs, name).evaluate(col) for name, col in factors.items()]
        exponents = cal.estimate_exponents(member, incidence, max_lag)

    return Calibration(lags, correlations, cutoffs, exponents, mobility_c)


def membership_functions(cfg: dict, cutoffs, mobility_c: float) -> MembershipFunctions:
    mcfg = cfg["membership"]
    temp = (
        PiecewiseLinearMF(tuple((x, y) for x, y in mcfg["temperature"]))
        if mcfg["temperature"] is not None
        else temperature_mf_default()
    )
    humid = (
        PiecewiseLinearMF(tuple((x, y) for x, y in mcfg["humidity"]))
        if mcfg["humidity"] is not None
        else humidity_mf_default()
    )
    rain = rainfall_mf_from_cutoffs(
        cutoffs.r_min, cutoffs.r_max, mcfg["rainfall_shoulder"]
    )
    return MembershipFunctions(rain, temp, humid, mobility_mf(mobility_c))


def risk_params(cfg: dict, calibration: Calibration) -> RiskParams:
    rcfg = cfg["risk"]
    return RiskParams(
        mobility_c=calibration.mobility_c,
        lags=calibration.lags,
        exponents=calibration.exponents,
        r_ideal=float(rcfg["r_ideal"]),
        l_ideal=float(rcfg["l_ideal"]),
    )


def detect(panel: Panel, cfg: dict, calibration: Calibration):
    """Objective space plus flagged months for the target region."""
    region = cfg["region"]
    mfs = membership_functions(cfg, calibration.cutoffs, calibration.mobility_c)
    params = risk_params(cfg, calibration)
    series = objective_space(panel, mfs, params, region)
    flagged = pareto.detect_outbreaks(series, cfg["detection"]["rank_threshold"])
    return series, flagged


def run_baseline(panel: Panel, cfg: dict, calibration: Calibration):
    region = cfg["region"]
    design, response, months = bl.build_design(panel, calibration.lags, region)
    coeffs = bl.fit_ols(design, response)
    fitted = bl.fitted_values(coeffs, design)
    predicted = bl.predict_and_extract(
        coeffs, design, months, cfg["baseline"]["threshold_quantile"]
    )
    return coeffs, months, fitted, predicted


def evaluation_span(cfg: dict, *month_sets):
    ecfg = cfg["evaluation"]
    if ecfg["span_start"] is not None and ecfg["span_end"] is not None:
        return MonthIndex.parse(ecfg["span_start"]), MonthIndex.parse(ecfg["span_end"])
    months = [t for ms in month_sets for t in ms]
    if not months:
        raise PipelineError("cannot infer an evaluation span from empty month sets")
    return min(months), max(months)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _g(x: float) -> str:
    return format(float(x), ".12g")


def write_risk_csv(series: RiskSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "R", "L", "d1", "d2"])
        for m in series.months:
            writer.writerow([str(m.t), _g(m.R), _g(m.L), _g(m.d1), _g(m.d2)])


def write_flagged_csv(flagged, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "d1", "d2", "rank", "flag", "reliability"])
        for f in flagged:
            writer.writerow(
                [str(f.t), _g(f.d1), _g(f.d2), f.rank, f.flag, _g(f.reliability)]
            )


def write_baseline_csv(months, fitted, predicted, path) -> None:
    predicted = set(predicted)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "D_fitted", "predicted_flag"])
        for t, d in zip(months, fitted):
            writer.writerow([str(t), _g(d), int(t in predicted)])


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report(cfg: dict, out_dir) -> dict:
    """Full pipeline: calibrate, detect, baseline, evaluate, plot.

    Returns a summary dict; writes all artifacts under ``out_dir``.
    """
    from .svgplot import objective_scatter_svg

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    panel = load_panel(cfg)
    calibration = calibrate_panel(panel, cfg)
    _write_json(calibration.to_dict(), out / "calibration.json")

    series, flagged = detect(panel, cfg, calibration)
    write_risk_csv(series, out / "risk.csv")
    write_flagged_csv(flagged, out / "flagged.csv")
    (out / "objective_space.svg").write_text(
        objective_scatter_svg(series.months, flagged), encoding="utf-8"
    )

    coeffs, months, fitted, predicted = run_baseline(panel, cfg, calibration)
    write_baseline_csv(months, fitted, predicted, out / "baseline.csv")

    actual_path = cfg["inputs"]["actual_outbreaks"]
    evaluation = {}
    if actual_path is not None:
        actual = load_calendar(actual_path)
        window = cfg["evaluation"]["match_window"]
        span = evaluation_span(
            cfg,
            [m.t for m in series.months],
            actual.months,
        )
        flagged_months = [f.t for f in flagged]
        evaluation = {
            "span": {"start": str(span[0]), "end": str(span[1])},
            "match_window": window,
            "multicriteria": score(
                flagged_months, actual, span, window
            ).to_dict(),
            "baseline": score(predicted, actual, span, window).to_dict(),
        }
        _write_json(evaluation, out / "evaluation.json")

    return {
        "calibration": calibration.to_dict(),
        "flagged": [str(f.t) for f in flagged],
        "baseline_predicted": [str(t) for t in predicted],
        "evaluation": evaluation,
    }
