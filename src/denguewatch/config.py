"""Run configuration: embedded defaults plus YAML overrides."""

from __future__ import annotations

import copy
import math
from pathlib import Path

import yaml

from .errors import ConfigError

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
    return copy.deepcopy(DEFAULT_CONFIG)


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


_LAG_NAMES = ("rain", "temp", "humid", "mobility")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_lags(lags, where: str) -> None:
    if not isinstance(lags, dict) or set(lags) != set(_LAG_NAMES):
        raise ConfigError(f"{where} must map exactly {', '.join(_LAG_NAMES)}, got {lags!r}")
    for name, v in lags.items():
        if not (_is_int(v) and v >= 0):
            raise ConfigError(f"{where}.{name} must be an integer >= 0, got {v!r}")


def _validate(cfg: dict) -> dict:
    """Reject calibration and synth values of the wrong type or range."""
    ccfg = cfg["calibration"]
    max_lag, step = ccfg["max_lag"], ccfg["grid_step"]
    if not (_is_int(max_lag) and max_lag >= 0):
        raise ConfigError(f"calibration.max_lag must be an integer >= 0, got {max_lag!r}")
    if not ((_is_int(step) or isinstance(step, float)) and math.isfinite(step) and step > 0):
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
    with open(path, encoding="utf-8") as fh:
        loaded = yaml.safe_load(fh)
    if loaded is None:
        return cfg
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return _validate(_merge(cfg, loaded))


def dump_defaults() -> str:
    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
