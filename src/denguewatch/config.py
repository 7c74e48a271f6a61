"""Run configuration: embedded defaults plus YAML overrides."""

from __future__ import annotations

import math
from pathlib import Path

from .errors import ConfigError, IngestionError
from .panel import MonthIndex
from .risk import FACTORS

#: Every knob the pipeline honors, with its default. ``null`` means
#: "derive from the data" (lags, cutoffs, exponents, mobility_c) or
#: "use the built-in membership shape".
DEFAULT_CONFIG = {
    "region": "WP",
    "inputs": {
        "rainfall": None,
        "temperature": None,
        "humidity": None,
        "incidence": None,
        "susceptible": None,
        "population": None,
        "mobility": None,
        "actual_outbreaks": None,
    },
    "membership": {
        "temperature": None,  # list of [x, y] breakpoints overrides the default
        "humidity": None,
        "rainfall_shoulder": 0.25,
    },
    "calibration": {
        "max_lag": 6,
        "grid_step": 10.0,
        "lags": None,  # {rain, temp, humid, mobility} skips the lag search
        "rainfall_cutoffs": None,  # [r_min, r_max] skips the grid search
        "exponents": None,  # [c1, c2, c3, c4] skips estimation
    },
    "risk": {
        "r_ideal": 1.0,
        "l_ideal": 1.0,
        "mobility_c": None,  # null = max observed mobility risk
    },
    "detection": {
        "rank_threshold": 2,
    },
    "baseline": {
        "threshold_quantile": 0.85,
    },
    "evaluation": {
        "match_window": 1,
        "span_start": None,  # YYYY-MM; null = infer from the data
        "span_end": None,
    },
    "synth": {
        "months": 96,
        "seed": 20180401,
        "start": "2012-01",
        "lags": {"rain": 2, "temp": 3, "humid": 2, "mobility": 1},
        "rain_band": [150.0, 350.0],
        "outbreak_months": None,  # list of YYYY-MM; null = built-in spacing
        "noise_scale": 0.0,
    },
}


def default_config() -> dict:
    return _copy(DEFAULT_CONFIG)


def _copy(value):
    """A fresh copy of a tree of dicts, lists and scalars such as the
    defaults, without the bookkeeping of ``copy.deepcopy``."""
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_copy(v) for v in value]
    return value


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {here}")
        if isinstance(base[key], dict) and key != "lags":
            if value is None:
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"config key {here} must be a mapping")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_lags(lags, where: str) -> None:
    if not isinstance(lags, dict) or set(lags) != set(FACTORS):
        raise ConfigError(f"{where} must map exactly {', '.join(FACTORS)}, got {lags!r}")
    for name, v in lags.items():
        if not (_is_int(v) and v >= 0):
            raise ConfigError(f"{where}.{name} must be an integer >= 0, got {v!r}")


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_numbers(v, size=None) -> bool:
    return isinstance(v, list) and size in (None, len(v)) and all(map(_is_number, v))


def _is_breakpoints(v) -> bool:
    return isinstance(v, list) and all(_is_numbers(p, 2) for p in v)


def _is_month(v) -> bool:
    if not isinstance(v, str):
        return False
    try:
        MonthIndex.parse(v)
    except IngestionError:
        return False
    return True


# (key, test, what it must be): types and shapes only, the run checks ranges.
# A key whose default is null may also be null.
_TYPES = (
    ("region", lambda v: isinstance(v, str), "a region name"),
    ("membership.temperature", _is_breakpoints, "a list of [x, y] number pairs"),
    ("membership.humidity", _is_breakpoints, "a list of [x, y] number pairs"),
    ("membership.rainfall_shoulder", _is_number, "a number"),
    ("calibration.rainfall_cutoffs", lambda v: _is_numbers(v, 2), "a list of 2 numbers"),
    ("calibration.exponents", _is_numbers, "a list of numbers"),
    ("risk.r_ideal", _is_number, "a number"),
    ("risk.l_ideal", _is_number, "a number"),
    ("risk.mobility_c", _is_number, "a number"),
    ("detection.rank_threshold", _is_int, "an integer"),
    ("baseline.threshold_quantile", _is_number, "a number"),
    ("evaluation.match_window", _is_int, "an integer"),
    ("evaluation.span_start", _is_month, "a YYYY-MM month"),
    ("evaluation.span_end", _is_month, "a YYYY-MM month"),
    *((f"inputs.{name}", lambda v: isinstance(v, str), "a file path")
      for name in DEFAULT_CONFIG["inputs"]),
    ("synth.months", _is_int, "an integer"),
    ("synth.seed", _is_int, "an integer"),
    ("synth.start", _is_month, "a YYYY-MM month"),
    ("synth.rain_band", lambda v: _is_numbers(v, 2), "a list of 2 numbers"),
    ("synth.outbreak_months", lambda v: isinstance(v, list) and all(map(_is_month, v)),
     "a list of YYYY-MM months"),
    ("synth.noise_scale", _is_number, "a number"),
)


def _at(cfg: dict, key: str):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


def _validate(cfg: dict) -> dict:
    """Reject config values of the wrong type or shape, and calibration and
    synth values out of range."""
    for key, ok, expected in _TYPES:
        value = _at(cfg, key)
        if _at(DEFAULT_CONFIG, key) is None:
            if value is None:
                continue
            expected = f"null or {expected}"
        if not ok(value):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
    ccfg = cfg["calibration"]
    if ccfg["exponents"] is not None and len(ccfg["exponents"]) != 4:
        raise ConfigError("calibration.exponents needs exactly 4 values")
    max_lag, step = ccfg["max_lag"], ccfg["grid_step"]
    if not (_is_int(max_lag) and max_lag >= 0):
        raise ConfigError(f"calibration.max_lag must be an integer >= 0, got {max_lag!r}")
    if not (_is_number(step) and math.isfinite(step) and step > 0):
        raise ConfigError(f"calibration.grid_step must be a number > 0, got {step!r}")
    if ccfg["lags"] is not None:
        _check_lags(ccfg["lags"], "calibration.lags")
    _check_lags(cfg["synth"]["lags"], "synth.lags")
    return cfg


def load_config(path=None) -> dict:
    """Defaults merged with the YAML file at ``path`` (if any)."""
    cfg = default_config()
    if path is None:
        return cfg
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if path.is_dir():
        raise FileNotFoundError(f"not a file: {path}")
    import yaml  # here, not at the top: a run without a config file never loads it

    try:
        loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except yaml.MarkedYAMLError as exc:
        raise ConfigError(f"{path}: line {exc.problem_mark.line + 1}: {exc.problem}") from None
    except yaml.YAMLError as exc:  # a character YAML rejects, which has no line mark
        raise ConfigError(f"{path}: {str(exc).splitlines()[0]}") from None
    if loaded is None:
        return cfg
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _validate(_merge(cfg, loaded))


def dump_defaults() -> str:
    import yaml

    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
