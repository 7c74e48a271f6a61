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
    ConfigError, CorrelationUndefinedError, DengueWatchError, ParameterError, PipelineError,
    UsageError,
)
from .evaluation import OutbreakCalendar, load_calendar, score
from .fuzzy import (
    RAINFALL_SHOULDER,
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
    open_artifact,
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
def _config_key(key, *names):
    """Prefix the message of a package error raised inside with ``key``, the
    config key whose value caused it; a None key adds nothing. Given
    ``names``, ``key`` is their section, and only a message that begins with
    one of them, a range check naming its value, gets ``key.`` before it."""
    try:
        yield
    except DengueWatchError as exc:
        message = str(exc)
        if key is None or names and message.split(" ", 1)[0] not in names:
            raise
        raise type(exc)(f"{key}.{message}" if names else f"{key}: {message}") from None


def _correlations(columns, incidence, max_lag: int, key) -> list:
    """:func:`cal.best_lags` of ``columns``, the factors in ``FACTORS``
    order; the error of the first column with no defined correlation is
    raised under the config ``key`` that pinned the columns or, for a search
    (``key`` None), under ``calibrate/<factor> lag search``."""
    results = cal.best_lags(columns, incidence, max_lag)
    for factor, result in zip(FACTORS, results):
        if isinstance(result, CorrelationUndefinedError):
            where = key or f"calibrate/{factor} lag search"
            raise type(result)(f"{where}: {result}")
    return results


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

    # A pinned value is scored as the search scores a candidate: the column
    # lagged by it, searched at lag 0.
    pinned = ccfg["lags"]
    shifts = Lags(0, 0, 0, 0) if pinned is None else Lags(**{k: int(v) for k, v in pinned.items()})
    results = _correlations(
        cols.inputs(shifts)[:4], incidence,
        max_lag if pinned is None else 0, None if pinned is None else "calibration.lags",
    )
    lags = Lags(*(getattr(shifts, name) + r.lag_months for name, r in zip(FACTORS, results)))
    correlations = {name: r.correlation for name, r in zip(FACTORS, results)}
    inputs = cols.inputs(lags)  # each factor as R applies it, from here on

    if ccfg["rainfall_cutoffs"] is not None:
        r_min, r_max = (float(v) for v in ccfg["rainfall_cutoffs"])
        shoulder = cfg["membership"]["rainfall_shoulder"]  # membership_functions names one not > 0
        with _config_key("calibration.rainfall_cutoffs"):  # before any correlation
            rainfall_mf_from_cutoffs(r_min, r_max, shoulder if shoulder > 0 else RAINFALL_SHOULDER)
        rain = inputs[0]
        band = np.where(np.isnan(rain), np.nan, (rain >= r_min) & (rain <= r_max))
        (result,) = _correlations([band], incidence, 0, "calibration.rainfall_cutoffs")
        cutoffs = cal.CutoffResult(r_min, r_max, result.correlation)
    else:
        cutoffs = cal.rainfall_cutoffs(inputs[0], incidence, ccfg["grid_step"])

    mobility_c = cfg["risk"]["mobility_c"]
    if mobility_c is None:
        mobility_c = default_mobility_c(cols.mobility, region)
    mobility_c = float(mobility_c)

    mfs = membership_functions(cfg, cutoffs, mobility_c)
    exponents = ccfg["exponents"]
    if exponents is None:
        member = [getattr(mfs, name).evaluate(col) for name, col in zip(FACTORS, inputs)]
        exponents = cal.estimate_exponents(member, incidence)

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
    with _config_key("risk", "r_ideal", "l_ideal"):
        series = objective_space(
            panel, calibration, cfg["region"], float(rcfg["r_ideal"]), float(rcfg["l_ideal"])
        )
    with _config_key("detection", "rank_threshold"):
        flagged = pareto.detect_outbreaks(series, cfg["detection"]["rank_threshold"])
    return series, flagged


def run_baseline(panel: Panel, cfg: dict, calibration: Calibration):
    """The baseline's months, its fitted incidence and the months it flags."""
    design, response, months = bl.build_design(panel, calibration.lags, cfg["region"])
    fitted = design @ bl.fit_ols(design, response)
    with _config_key("baseline", "threshold_quantile"):
        predicted = bl.predict_and_extract(fitted, months, cfg["baseline"]["threshold_quantile"])
    return months, fitted, predicted


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
    if span[1] < span[0]:  # so a bound is set: two inferred ones are in order
        keys = [f"evaluation.{key}" for key in ("span_start", "span_end") if ecfg[key] is not None]
        raise ParameterError(f"{', '.join(keys)}: invalid span {span[0]}..{span[1]}")

    def inside(months):
        return [t for t in months if span[0] <= t <= span[1]]

    actual = OutbreakCalendar(inside(actual.months))
    window = ecfg["match_window"]
    payload = {"span": {"start": str(span[0]), "end": str(span[1])}, "match_window": window}
    for name, months_predicted in predicted.items():
        with _config_key("evaluation", "match_window"):
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


def _write_text(text: str, path) -> None:
    with open_artifact(path) as fh:
        fh.write(text)


def _write_json(payload: dict, path) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


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
            multicriteria=[f.t for f in self.flagged], baseline=self.baseline[2],
        )


# Each artifact file: run -> a writer of the path holding the computed values,
# or None when the run has nothing to write there.
_ARTIFACTS = {
    "calibration.json": lambda run: partial(_write_json, run.calibration.to_dict()),
    "risk.csv": lambda run: partial(write_risk_csv, run.series),
    "flagged.csv": lambda run: partial(write_flagged_csv, run.flagged),
    "objective_space.svg": lambda run: partial(_write_text, run.svg),
    "baseline.csv": lambda run: partial(write_baseline_csv, *run.baseline),
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
        lambda run, out: f"predicted {len(run.baseline[2])} month(s); artifacts in {out}",
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
