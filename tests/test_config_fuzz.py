"""No config ends in a traceback: fuzzed config files run through ``report``.

A property-based test in the style of QuickCheck (Claessen & Hughes 2000):
configs that set one or two of the keys of ``DEFAULT_CONFIG``, a section in
place of its keys or an unknown key, with values from a mixed pool, each run
by ``cli.main`` in process on the quick-start panel. Whatever the file holds,
the run exits 0 with nothing on stderr, or 1 or 2 with one short ``error: ``
line.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from denguewatch.cli import main
from denguewatch.config import DEFAULT_CONFIG, load_config
from denguewatch.errors import ConfigError
from denguewatch.risk import FACTORS

#: Scalars as YAML text: integers up to past the float range, NaN,
#: infinities, subnormal and huge floats, months, and null, bools, strings
#: (two that float() reads as numbers) and tags whose text does not convert.
NUMBERS = (
    "0", "-1", "1", "2", "99999999999999999999999", "1" + "0" * 400,
    ".nan", ".inf", "-.inf", "5.0e-324", "1.0e+308", "0.5", "150", "350.5",
)
MONTHS = ("'2012-01'", "'2016-06'", "'9999-12'", "'2018-13'")
OTHERS = ("null", "true", "false", "x", "1e1", "inf", "!!int x", "!!float x",
          "!!timestamp 2012-13-01", "!!binary '!!!'")
SCALARS = (*NUMBERS, *MONTHS, *OTHERS)


def _flow_list(items) -> str:
    return "[" + ", ".join(items) + "]"


def _flow_map(items) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in items.items()) + "}"


def _lists(elements, max_size):
    return st.lists(elements, max_size=max_size).map(_flow_list)


#: Any value: a scalar, or a list or mapping of scalars, of any length.
VALUES = st.one_of(
    st.sampled_from(SCALARS),
    _lists(st.sampled_from(SCALARS), 5),
    st.dictionaries(st.sampled_from((*FACTORS, "a")), st.sampled_from(SCALARS),
                    max_size=5).map(_flow_map),
)

#: The shapes a key's value can have, each as an example of it and a
#: strategy for values of that shape.
SHAPES = {
    "1": st.sampled_from(NUMBERS),
    "'2012-01'": st.sampled_from((*MONTHS, "x")),
    "[1, 2]": st.lists(st.sampled_from(NUMBERS), min_size=2, max_size=4).map(_flow_list),
    "[[1, 0], [2, 1]]": _lists(st.tuples(*[st.sampled_from(NUMBERS)] * 2).map(_flow_list), 4),
    "['2012-01']": _lists(st.sampled_from(MONTHS), 4),
    _flow_map({name: 1 for name in FACTORS}):
        st.fixed_dictionaries({name: st.sampled_from(NUMBERS) for name in FACTORS})
        .map(_flow_map),
}

#: Where a value can go: every key, every section in place of its keys, and
#: unknown keys at the top and in a section.
PLACES = (
    *(f"{section}.{key}" for section, keys in DEFAULT_CONFIG.items()
      if isinstance(keys, dict) for key in keys),
    *DEFAULT_CONFIG, "zzz", "calibration.zzz",
)


def render(places: dict, data) -> str:
    """The config file setting ``places``; inputs not set there are the
    panel in ``data``."""
    tree = {"inputs": {name: json.dumps(str(data / f"{name}.csv"))
                       for name in DEFAULT_CONFIG["inputs"]}}
    tree["inputs"]["actual_outbreaks"] = json.dumps(str(data / "outbreaks.csv"))
    for place, value in places.items():
        section, _, key = place.partition(".")
        if not key:
            tree[section] = value
        elif isinstance(tree.setdefault(section, {}), dict):  # else the section is a value
            tree[section][key] = value
    return "".join(
        f"{key}: {_flow_map(value) if isinstance(value, dict) else value}\n"
        for key, value in tree.items()
    )


def configs(shaped: dict):
    """One or two places: the first set to a value of a shape it takes (any
    value, if it takes none), the second to that or to any value."""
    return st.lists(st.sampled_from(PLACES), min_size=1, max_size=2, unique=True).flatmap(
        lambda places: st.fixed_dictionaries({
            place: shaped[place] if i == 0 else st.one_of(shaped[place], VALUES)
            for i, place in enumerate(places)
        })
    )


@pytest.fixture(scope="module")
def panel(tmp_path_factory):
    data = tmp_path_factory.mktemp("panel")
    assert main(["synth", "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def shaped(panel):
    """For each place, values of the shapes ``load_config`` takes there, so
    that runs get past loading to the stages."""
    cfg_path = panel / "shape.yaml"
    out = {}
    for place in PLACES:
        taken = []
        for example, strategy in SHAPES.items():
            cfg_path.write_text(render({place: example}, panel), encoding="utf-8")
            try:
                load_config(cfg_path)
            except ConfigError:
                continue
            taken.append(strategy)
        out[place] = st.one_of(taken) if taken else VALUES
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(
    max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_config_ends_in_one_line_or_success(panel, shaped, tmp_path, capsys, data):
    cfg_path = tmp_path / "fuzz.yaml"
    cfg_path.write_text(render(data.draw(configs(shaped)), panel), encoding="utf-8")
    code = main(["--config", str(cfg_path), "report", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert len(err.encode()) < 200, err
