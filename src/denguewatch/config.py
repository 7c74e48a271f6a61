"""Run configuration: embedded defaults plus YAML overrides."""

from __future__ import annotations

import math
import sys
from functools import partial
from pathlib import Path

from .errors import ConfigError, IngestionError
from .panel import MonthIndex, read_file
from .risk import FACTORS


def _shown(value) -> str:
    """``repr(value)``, cut short so that an error stays one short line."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:36]} ..."


def _is_str(v) -> bool:
    return isinstance(v, str)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A float, or an int within the float range."""
    return isinstance(v, float) or (_is_int(v) and abs(v) <= sys.float_info.max)


def _is_numbers(v, size=None) -> bool:
    return isinstance(v, list) and size in (None, len(v)) and all(map(_is_number, v))


def _is_exponents(v) -> bool:
    if _is_numbers(v) and len(v) != 4:
        raise ConfigError("calibration.exponents needs exactly 4 values")
    return _is_numbers(v)


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


def _check_lags(lags, where: str) -> bool:
    if not isinstance(lags, dict) or set(lags) != set(FACTORS):
        raise ConfigError(f"{where} must map exactly {', '.join(FACTORS)}, got {_shown(lags)}")
    for name, v in lags.items():
        if not (_is_int(v) and v >= 0):
            raise ConfigError(f"{where}.{name} must be an integer >= 0, got {_shown(v)}")
    return True


#: Every knob the pipeline honors, one row per key: its default, the test a
#: value must pass, and what the error says the value must be. A dict is a
#: section. A null default means "derive from the data" (lags, cutoffs,
#: exponents, mobility_c) or "use the built-in membership shape", and such a
#: key may also be null. The tests check types and shapes, the run checks
#: ranges; a test that can name the part at fault raises its own error.
_KEYS = {
    "region": ("WP", _is_str, "a region name"),
    "inputs": {
        name: (None, _is_str, "a file path")
        for name in ("rainfall", "temperature", "humidity", "incidence", "susceptible",
                     "population", "mobility", "actual_outbreaks")
    },
    "membership": {
        # a list of [x, y] breakpoints overrides the default shape
        "temperature": (None, _is_breakpoints, "a list of [x, y] number pairs"),
        "humidity": (None, _is_breakpoints, "a list of [x, y] number pairs"),
        "rainfall_shoulder": (0.25, _is_number, "a number"),
    },
    "calibration": {
        "max_lag": (6, lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
        "grid_step": (10.0, lambda v: _is_number(v) and math.isfinite(v) and v > 0,
                      "a number > 0"),
        # {rain, temp, humid, mobility} skips the lag search
        "lags": (None, partial(_check_lags, where="calibration.lags"), None),
        # [r_min, r_max] skips the grid search
        "rainfall_cutoffs": (None, partial(_is_numbers, size=2), "a list of 2 numbers"),
        "exponents": (None, _is_exponents, "a list of numbers"),  # skips estimation
    },
    "risk": {
        "r_ideal": (1.0, _is_number, "a number"),
        "l_ideal": (1.0, _is_number, "a number"),
        "mobility_c": (None, _is_number, "a number"),  # null = max observed mobility risk
    },
    "detection": {"rank_threshold": (2, _is_int, "an integer")},
    "baseline": {"threshold_quantile": (0.85, _is_number, "a number")},
    "evaluation": {
        "match_window": (1, _is_int, "an integer"),
        "span_start": (None, _is_month, "a YYYY-MM month"),  # null = infer from the data
        "span_end": (None, _is_month, "a YYYY-MM month"),
    },
    "synth": {
        "months": (96, _is_int, "an integer"),
        "seed": (20180401, _is_int, "an integer"),
        "start": ("2012-01", _is_month, "a YYYY-MM month"),
        "lags": ({"rain": 2, "temp": 3, "humid": 2, "mobility": 1},
                 partial(_check_lags, where="synth.lags"), None),
        "rain_band": ([150.0, 350.0], partial(_is_numbers, size=2), "a list of 2 numbers"),
        # null = built-in spacing
        "outbreak_months": (None, lambda v: isinstance(v, list) and all(map(_is_month, v)),
                            "a list of YYYY-MM months"),
        "noise_scale": (0.0, _is_number, "a number"),
    },
}


def _resolve(table: dict, loaded: dict, path: str = "") -> dict:
    """``loaded`` merged over the defaults of ``table`` and checked in table
    order, the order ``--print-defaults`` prints, so the first bad key is the
    one named; a section's unknown keys come before its values."""
    for key in loaded:
        if key not in table:
            raise ConfigError(f"unknown config key: {path}{key}")
    out = {}
    for key, row in table.items():
        here = f"{path}{key}"
        if isinstance(row, dict):  # a section: null or left out keeps its defaults
            section = loaded.get(key)
            if not isinstance(section, (dict, type(None))):
                raise ConfigError(f"config key {here} must be a mapping")
            out[key] = _resolve(row, section or {}, f"{here}.")
            continue
        default, test, words = row
        value = loaded.get(key, default)
        if not ((value is None and default is None) or test(value)):
            null = "null or " if default is None else ""
            raise ConfigError(f"{here} must be {null}{words}, got {_shown(value)}")
        out[key] = _copy(value)
    return out


def _defaults(table: dict) -> dict:
    return {k: _defaults(row) if isinstance(row, dict) else row[0] for k, row in table.items()}


#: The default of every key, as ``--print-defaults`` prints them.
DEFAULT_CONFIG = _defaults(_KEYS)


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


def load_config(path=None) -> dict:
    """Defaults merged with the YAML file at ``path`` (if any)."""
    if path is None:
        return default_config()
    path, raw = Path(path), read_file(path)
    import yaml  # here, not at the top: a run without a config file never loads it

    try:
        loaded = yaml.safe_load(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # a ValueError, so ahead of that clause
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except yaml.MarkedYAMLError as exc:
        raise ConfigError(f"{path}: line {exc.problem_mark.line + 1}: {exc.problem}") from None
    except yaml.YAMLError as exc:  # a character YAML rejects, which has no line mark
        raise ConfigError(f"{path}: {str(exc).splitlines()[0]}") from None
    except ValueError as exc:  # a tag whose value does not convert, as in !!int x
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(loaded, (dict, type(None))):  # None: an empty file
        raise ConfigError(f"{path}: top level must be a mapping")
    return _resolve(_KEYS, loaded or {})


def dump_defaults() -> str:
    import yaml

    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False)
