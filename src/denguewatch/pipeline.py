"""Orchestration shared by the CLI subcommands.

Each stage is a plain function from (panel, config) to results; ``report``
runs the ones a subcommand's artifacts need and writes them. All emitted
bytes are deterministic for identical inputs and configuration.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import baseline as bl
from . import calibrate as cal
from . import pareto
from .errors import (
    ConfigError, CorrelationUndefinedError, DengueWatchError, PipelineError, UsageError,
)
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
    write_csv,
)
from .risk import (
    FACTORS,
    Calibration,
    Lags,
    MembershipFunctions,
    RiskSeries,
    default_mobility_c,
    mobility_risk,
    objective_space,
    target_columns,
)
from .svgplot import objective_scatter_svg

#: Each series input: its ``inputs`` config key, which is also the stem of the
#: file ``synth`` writes for it, and the variable it holds.
INPUT_VARIABLES = {
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
    for name, variable in INPUT_VARIABLES.items():
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
    """R_mob at lag 0 over the aligned span, as in :func:`target_columns`.
    The stages read it from there; ``bench/spans.py`` traces this name."""
    return mobility_risk(panel, region)


@contextmanager
def _config_key(key):
    """Prefix the message of a package error raised inside with ``key``, the
    config key whose value caused it; a None key adds nothing."""
    try:
        yield
    except DengueWatchError as exc:
        if key is None:
            raise
        raise type(exc)(f"{key}: {exc}") from None


def calibrate_panel(panel: Panel, cfg: dict) -> Calibration:
    """Resolve lags, rainfall cutoffs, exponents, and the mobility normalizer,
    searching only for whatever the config leaves null."""
    region = cfg["region"]
    ccfg = cfg["calibration"]
    max_lag = ccfg["max_lag"]
    cols = target_columns(
        panel, region, Variable.INCIDENCE, Variable.RAINFALL, Variable.TEMPERATURE,
        Variable.HUMIDITY,
    )
    incidence = cols.infected
    factors = {name: getattr(cols, name) for name in FACTORS}

    correlations = {}
    if ccfg["lags"] is not None:
        lags = Lags(**{k: int(v) for k, v in ccfg["lags"].items()})
        with _config_key("calibration.lags"):
            for name, column in factors.items():
                pair = cal.lagged_pair(column, incidence, getattr(lags, name))
                correlations[name] = cal.pearson(*pair)
    else:
        results = cal.best_lags(factors.values(), incidence, max_lag)
        for result in results:  # the first failing factor, in search order
            if isinstance(result, CorrelationUndefinedError):
                raise result
        correlations = {name: r.correlation for name, r in zip(factors, results)}
        lags = Lags(*(r.lag_months for r in results))

    if ccfg["rainfall_cutoffs"] is not None:
        r_min, r_max = (float(v) for v in ccfg["rainfall_cutoffs"])
        with _config_key("calibration.rainfall_cutoffs"):
            rainfall_mf_from_cutoffs(r_min, r_max)  # its range check, before any correlation
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

    mfs = membership_functions(cfg, cutoffs, mobility_c)
    exponents = ccfg["exponents"]
    if exponents is None:
        member = [getattr(mfs, name).evaluate(col) for name, col in factors.items()]
        exponents = cal.estimate_exponents(member, incidence, max_lag)

    return Calibration(lags, correlations, cutoffs, exponents, mobility_c, mfs)


def membership_functions(cfg: dict, cutoffs, mobility_c: float) -> MembershipFunctions:
    """The four membership functions. An error raised by a config value names
    its key; one raised by a ``mobility_c`` derived from the data does not."""
    mcfg = cfg["membership"]
    with _config_key("membership.temperature"):
        temp = mcfg["temperature"]
        temp = temperature_mf_default() if temp is None else PiecewiseLinearMF(temp)
    with _config_key("membership.humidity"):
        humid = mcfg["humidity"]
        humid = humidity_mf_default() if humid is None else PiecewiseLinearMF(humid)
    with _config_key("membership.rainfall_shoulder"):
        rain = rainfall_mf_from_cutoffs(cutoffs.r_min, cutoffs.r_max, mcfg["rainfall_shoulder"])
    with _config_key(None if cfg["risk"]["mobility_c"] is None else "risk.mobility_c"):
        mobility = mobility_mf(mobility_c)
    return MembershipFunctions(rain, temp, humid, mobility)


def detect(panel: Panel, cfg: dict, calibration: Calibration):
    """Objective space plus flagged months for the target region."""
    rcfg = cfg["risk"]
    series = objective_space(
        panel, calibration, cfg["region"], float(rcfg["r_ideal"]), float(rcfg["l_ideal"])
    )
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


def evaluation_payload(cfg: dict, actual, months, **predicted) -> dict:
    """Each named prediction scored against the ``actual`` calendar, over the
    configured span; months outside it are not scored. A bound left null is
    inferred: the first or the last of ``months`` and the actual months."""
    ecfg = cfg["evaluation"]
    every = [*months, *actual.months]
    span = []
    for key, infer in (("span_start", min), ("span_end", max)):
        if ecfg[key] is not None:
            span.append(MonthIndex.parse(ecfg[key]))
        elif every:
            span.append(infer(every))
        else:
            raise PipelineError("cannot infer an evaluation span from empty month sets")

    def inside(months):
        return [t for t in months if span[0] <= t <= span[1]]

    actual = OutbreakCalendar(inside(actual.months))
    window = ecfg["match_window"]
    payload = {"span": {"start": str(span[0]), "end": str(span[1])}, "match_window": window}
    for name, months_predicted in predicted.items():
        payload[name] = asdict(score(inside(months_predicted), actual, span, window))
    return payload


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _g(x: float) -> str:
    return format(float(x), ".12g")


def write_risk_csv(series: RiskSeries, path) -> None:
    rows = ([str(m.t), _g(m.R), _g(m.L), _g(m.d1), _g(m.d2)] for m in series.months)
    write_csv(path, ["date", "R", "L", "d1", "d2"], rows)


def write_flagged_csv(flagged, path) -> None:
    rows = ([str(f.t), _g(f.d1), _g(f.d2), f.rank, f.flag, _g(f.reliability)] for f in flagged)
    write_csv(path, ["date", "d1", "d2", "rank", "flag", "reliability"], rows)


def write_baseline_csv(months, fitted, predicted, path) -> None:
    predicted = set(predicted)
    rows = ([str(t), _g(d), int(t in predicted)] for t, d in zip(months, fitted))
    write_csv(path, ["date", "D_fitted", "predicted_flag"], rows)


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class _Run:
    """The stages of one run, each computed on first use."""

    cfg: dict
    panel = cached_property(lambda run: load_panel(run.cfg))
    calibration = cached_property(lambda run: calibrate_panel(run.panel, run.cfg))
    detection = cached_property(lambda run: detect(run.panel, run.cfg, run.calibration))
    series = property(lambda run: run.detection[0])
    flagged = property(lambda run: run.detection[1])
    svg = cached_property(lambda run: objective_scatter_svg(run.series.months, run.flagged))
    baseline = cached_property(lambda run: run_baseline(run.panel, run.cfg, run.calibration))

    @cached_property
    def evaluation(self):
        """Both methods scored against ``inputs.actual_outbreaks``; None when
        that is not set."""
        path = self.cfg["inputs"]["actual_outbreaks"]
        if path is None:
            return None
        return evaluation_payload(
            self.cfg, load_calendar(path), [m.t for m in self.series.months],
            multicriteria=[f.t for f in self.flagged], baseline=self.baseline[3],
        )


# Each artifact file: run -> a writer of the path holding the computed values,
# or None when the run has nothing to write there.
_ARTIFACTS = {
    "calibration.json": lambda run: partial(_write_json, run.calibration.to_dict()),
    "risk.csv": lambda run: partial(write_risk_csv, run.series),
    "flagged.csv": lambda run: partial(write_flagged_csv, run.flagged),
    "objective_space.svg": lambda run: partial(Path.write_text, data=run.svg, encoding="utf-8"),
    "baseline.csv": lambda run: partial(write_baseline_csv, *run.baseline[1:]),
    "evaluation.json": lambda run: run.evaluation and partial(_write_json, run.evaluation),
}

#: Each pipeline subcommand: its artifact files, and the summary it prints.
SUBCOMMANDS = {
    "calibrate": (("calibration.json",), lambda run, out: f"wrote {out / 'calibration.json'}"),
    "detect": (
        ("risk.csv", "flagged.csv", "objective_space.svg"),
        lambda run, out: f"flagged {len(run.flagged)} month(s); artifacts in {out}",
    ),
    "baseline": (
        ("baseline.csv",),
        lambda run, out: f"predicted {len(run.baseline[3])} month(s); artifacts in {out}",
    ),
    "report": (
        tuple(_ARTIFACTS),
        lambda run, out: "flagged months: "
        + (", ".join(str(f.t) for f in run.flagged) or "(none)")
        + f"\nartifacts in {out}",
    ),
}


def make_out_dir(out: Path) -> None:
    """Create the ``--out`` directory and its parents, or raise a one-line
    :class:`UsageError` when a file is in the way."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out directory {out}: {exc.strerror}") from None


def report(cfg: dict, out_dir, command: str = "report") -> str:
    """Run a pipeline subcommand: compute the stages its artifact files need,
    then write them under ``out_dir``. Returns its summary.

    Every stage runs before the first file is written, so a failed run
    leaves nothing under ``out_dir``.
    """
    names, summary = SUBCOMMANDS[command]
    run = _Run(cfg)
    writers = {name: _ARTIFACTS[name](run) for name in names}
    out = Path(out_dir)
    make_out_dir(out)
    for name, write in writers.items():
        if write:
            write(out / name)
    return summary(run, out)
