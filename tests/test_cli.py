import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from denguewatch.calibrate import CutoffResult, exponents_from_correlations, pearson
from denguewatch.cli import main
from denguewatch.config import default_config, load_config
from denguewatch.errors import CorrelationUndefinedError
from denguewatch.pipeline import SUBCOMMANDS, load_panel, membership_functions
from denguewatch.risk import FACTORS, target_columns


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_config(data_dir, **overrides):
    cfg = {
        "inputs": {
            "rainfall": str(data_dir / "rainfall.csv"),
            "temperature": str(data_dir / "temperature.csv"),
            "humidity": str(data_dir / "humidity.csv"),
            "incidence": str(data_dir / "incidence.csv"),
            "susceptible": str(data_dir / "susceptible.csv"),
            "population": str(data_dir / "population.csv"),
            "mobility": str(data_dir / "mobility.csv"),
            "actual_outbreaks": str(data_dir / "outbreaks.csv"),
        }
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def workspace(tmp_path, capsys):
    data = tmp_path / "data"
    code, _, err = run(capsys, "synth", "--out", str(data))
    assert code == 0, err
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(synth_config(data)))
    return tmp_path, data, cfg_path


class TestBasics:
    def test_print_defaults_roundtrips_through_yaml(self, capsys):
        code, out, _ = run(capsys, "--print-defaults")
        assert code == 0
        cfg = yaml.safe_load(out)
        assert set(cfg) >= {"region", "inputs", "calibration", "risk", "detection"}

    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "does-not-exist.yaml", "detect")
        assert code == 2
        assert "does-not-exist.yaml" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("tyop: 1\n")
        code, _, err = run(capsys, "--config", str(p), "detect")
        assert code == 2
        assert "config" in err and "tyop" in err

    def test_config_directory_is_not_a_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "--config", str(tmp_path), "calibrate")
        assert (code, err) == (2, f"error: not a file: {tmp_path}\n")

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_bytes(b"region: W\xff\n")
        code, _, err = run(capsys, "--config", str(p), "calibrate")
        assert (code, err) == (2, f"error: config: {p}: not UTF-8 text (invalid start byte)\n")

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("region: WP\ninputs: [unclosed\n",
             "line 3: expected ',' or ']', but got '<stream end>'"),
            ("region: W\x07P\n", "unacceptable character #x0007: special characters are not allowed"),
            ("calibration: {max_lag: !!int x}\n", "invalid literal for int() with base 10: 'x'"),
            ("synth: {start: !!timestamp 2012-13-01}\n", "month must be in 1..12"),
        ],
    )
    def test_config_not_yaml(self, tmp_path, capsys, text, problem):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        code, _, err = run(capsys, "--config", str(p), "calibrate")
        assert (code, err) == (2, f"error: config: {p}: {problem}\n")

    def test_missing_input_file_names_path(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        (data / "rainfall.csv").unlink()
        code, _, err = run(capsys, "--config", str(cfg_path), "detect", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "rainfall.csv" in err


class TestConfigValidation:
    """Bad config values fail at load time: exit 2 and one line naming the key."""

    def _run(self, tmp_path, capsys, text):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        code, _, err = run(capsys, "--config", str(p), "calibrate", "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: config: ")
        return err

    def test_non_integer_max_lag(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "calibration:\n  max_lag: six\n")
        assert "calibration.max_lag" in err

    def test_non_numeric_grid_step(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "calibration:\n  grid_step: ten\n")
        assert "calibration.grid_step" in err

    def test_partial_lags_rejected(self, tmp_path, capsys):
        err = self._run(tmp_path, capsys, "calibration:\n  lags: {rain: 1}\n")
        assert "calibration.lags" in err and "mobility" in err


    @pytest.mark.parametrize(
        "text, message",
        [
            ("region: [WP]", "region must be a region name, got ['WP']"),
            ("detection: {rank_threshold: two}",
             "detection.rank_threshold must be an integer, got 'two'"),
            ("baseline: {threshold_quantile: high}",
             "baseline.threshold_quantile must be a number, got 'high'"),
            ("evaluation: {match_window: one}",
             "evaluation.match_window must be an integer, got 'one'"),
            ("membership: {rainfall_shoulder: x}",
             "membership.rainfall_shoulder must be a number, got 'x'"),
            ("membership: {humidity: 5}",
             "membership.humidity must be null or a list of [x, y] number pairs, got 5"),
            ("membership: {temperature: [[a, 0], [30, 1]]}",
             "membership.temperature must be null or a list of [x, y] number pairs, "
             "got [['a', 0], [30, 1]]"),
            ("risk: {r_ideal: one}", "risk.r_ideal must be a number, got 'one'"),
            ("risk: {mobility_c: abc}", "risk.mobility_c must be null or a number, got 'abc'"),
            ("calibration: {exponents: [a, b, c, d]}",
             "calibration.exponents must be null or a list of numbers, "
             "got ['a', 'b', 'c', 'd']"),
            ("calibration: {rainfall_cutoffs: [a, b]}",
             "calibration.rainfall_cutoffs must be null or a list of 2 numbers, got ['a', 'b']"),
            ("calibration: {rainfall_cutoffs: [100]}",
             "calibration.rainfall_cutoffs must be null or a list of 2 numbers, got [100]"),
            ("evaluation: {span_start: 2018-13, span_end: 2019-01}",
             "evaluation.span_start must be null or a YYYY-MM month, got '2018-13'"),
            ("evaluation: {span_start: 2018-01, span_end: 201901}",
             "evaluation.span_end must be null or a YYYY-MM month, got 201901"),
            ("calibration: {exponents: [1, 1, 1]}", "calibration.exponents needs exactly 4 values"),
            ("synth: {months: x}", "synth.months must be an integer, got 'x'"),
            ("synth: {rain_band: [a, b]}",
             "synth.rain_band must be a list of 2 numbers, got ['a', 'b']"),
            ("inputs: {rainfall: 5}", "inputs.rainfall must be null or a file path, got 5"),
            ("calibration: 5", "config key calibration must be a mapping"),
            # an int float() cannot take is not a number; a long value is cut short
            ("risk: {r_ideal: 1" + "0" * 400 + "}",
             "risk.r_ideal must be a number, got 100000000000000000000000000000000000 ..."),
            ("region: [" + "WP, " * 20 + "]",
             "region must be a region name, got ['WP', 'WP', 'WP', 'WP', 'WP', 'WP', ..."),
            # several bad keys: the first in --print-defaults order is named
            ("{synth: {months: x}, region: [WP]}", "region must be a region name, got ['WP']"),
            ("calibration: {exponents: [1], max_lag: x}",
             "calibration.max_lag must be an integer >= 0, got 'x'"),
            ("calibration: {lags: {rain: -1, temp: 0, humid: 0, mobility: 0}}",
             "calibration.lags.rain must be an integer >= 0, got -1"),
            # YAML 1.1 reads a float only with a dot and a signed exponent
            ("calibration: {grid_step: 1e1}",
             "calibration.grid_step must be a number > 0, got '1e1', "
             "which YAML reads as text; write 10.0"),
            ('{"calibration": {"grid_step": 1e1}}',
             "calibration.grid_step must be a number > 0, got '1e1', "
             "which YAML reads as text; write 10.0"),
            ("risk: {r_ideal: inf, mobility_c: nan}",
             "risk.r_ideal must be a number, got 'inf', which YAML reads as text; write .inf"),
            ("risk: {mobility_c: nan}",
             "risk.mobility_c must be null or a number, got 'nan', "
             "which YAML reads as text; write .nan"),
            # no hint where the number would be refused too
            ("calibration: {grid_step: -1e1}",
             "calibration.grid_step must be a number > 0, got '-1e1'"),
            ("synth: {start: 1e1}", "synth.start must be a YYYY-MM month, got '1e1'"),
        ],
    )
    def test_wrong_type_or_shape(self, tmp_path, capsys, text, message):
        err = self._run(tmp_path, capsys, text + "\n")
        assert err == f"error: config: {message}\n"

    @pytest.mark.parametrize("text", ["", "# nothing set\n", "calibration:\n", "synth: null\n"])
    def test_empty_file_or_null_section_keeps_the_defaults(self, tmp_path, text):
        p = tmp_path / "empty.yaml"
        p.write_text(text)
        assert load_config(p) == default_config()

    def test_top_level_must_be_a_mapping(self, tmp_path, capsys):
        p = tmp_path / "list.yaml"
        p.write_text("- region\n")
        code, _, err = run(capsys, "--config", str(p), "calibrate")
        assert (code, err) == (2, f"error: config: {p}: top level must be a mapping\n")

    def test_values_of_the_right_type_load(self, tmp_path):
        p = tmp_path / "good.yaml"
        p.write_text(
            "region: NB\n"
            "membership: {temperature: [[10, 0], [28.5, 1]], rainfall_shoulder: 1}\n"
            "calibration: {rainfall_cutoffs: [150, 350.5], exponents: [1, 1.5, 0.5, 1]}\n"
            "risk: {r_ideal: 1, mobility_c: 0.3}\n"
            "baseline: {threshold_quantile: 0.9}\n"
            "evaluation: {span_start: 2012-01, span_end: 2019-12}\n"
        )
        cfg = load_config(p)
        assert cfg["region"] == "NB" and cfg["evaluation"]["span_end"] == "2019-12"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"risk": {"r_ideal": 1.5}}, "risk.r_ideal must lie in (0, 1], got 1.5"),
            ({"risk": {"l_ideal": 0.0}}, "risk.l_ideal must lie in (0, 1], got 0.0"),
            ({"detection": {"rank_threshold": 0}},
             "detection.rank_threshold must be >= 1, got 0"),
            ({"baseline": {"threshold_quantile": 1.5}},
             "baseline.threshold_quantile must lie in (0, 1), got 1.5"),
            ({"evaluation": {"match_window": -1}},
             "evaluation.match_window must be >= 0, got -1"),
        ],
        ids=["r_ideal", "l_ideal", "rank_threshold", "threshold_quantile", "match_window"],
    )
    def test_range_checks_stay_at_run_time(self, workspace, capsys, overrides, message):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "range.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, **overrides)))
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(tmp_path / "r"))
        assert code == 1
        assert err == f"error: {message}\n"

    def test_evaluate_names_the_match_window_key(self, workspace, capsys):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "range.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, evaluation={"match_window": -1})))
        code, _, err = run(
            capsys, "--config", str(cfg_path), "evaluate", "--out", str(tmp_path / "ev"),
            "--predictions", str(data / "outbreaks.csv"), "--actual", str(data / "outbreaks.csv"),
        )
        assert code == 1
        assert err == "error: evaluation.match_window must be >= 0, got -1\n"
        assert not (tmp_path / "ev").exists()

    # The modelled months run 2012-04..2019-12 and the planted ones 2012-11..2018-06.
    @pytest.mark.parametrize(
        "evaluation, message",
        [
            ({"span_start": "2016-06", "span_end": "2014-01"},
             "evaluation.span_start, evaluation.span_end: invalid span 2016-06..2014-01"),
            ({"span_start": "2025-01"}, "evaluation.span_start: invalid span 2025-01..2019-12"),
            ({"span_end": "2010-01"}, "evaluation.span_end: invalid span 2012-04..2010-01"),
        ],
        ids=["both", "start", "end"],
    )
    def test_an_inverted_span_names_its_keys(self, workspace, capsys, evaluation, message):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "span.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, evaluation=evaluation)))
        out = tmp_path / "r"
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
        assert (code, err) == (1, f"error: {message}\n")
        assert not out.exists()

    def test_evaluate_names_the_span_keys(self, workspace, capsys):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "span.yaml"
        cfg_path.write_text(yaml.safe_dump(
            synth_config(data, evaluation={"span_start": "2018-07", "span_end": "2018-06"})
        ))
        code, _, err = run(
            capsys, "--config", str(cfg_path), "evaluate", "--out", str(tmp_path / "ev"),
            "--predictions", str(data / "outbreaks.csv"), "--actual", str(data / "outbreaks.csv"),
        )
        assert (code, err) == (
            1, "error: evaluation.span_start, evaluation.span_end: invalid span 2018-07..2018-06\n"
        )
        assert not (tmp_path / "ev").exists()

    LAGS = {"rain": 500, "temp": 3, "humid": 2, "mobility": 1}

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"membership": {"temperature": [[30, 1], [20, 0]]}},
             "membership.temperature: breakpoint x values must strictly increase (30.0 >= 20.0)"),
            ({"membership": {"temperature": [[20, 1]]}},
             "membership.temperature: membership function needs at least 2 breakpoints"),
            ({"membership": {"humidity": [[90, 1], [60, 0]]}},
             "membership.humidity: breakpoint x values must strictly increase (90.0 >= 60.0)"),
            ({"membership": {"humidity": []}},
             "membership.humidity: membership function needs at least 2 breakpoints"),
            ({"membership": {"rainfall_shoulder": -1}},
             "membership.rainfall_shoulder: shoulder width must be > 0, got -1"),
            ({"risk": {"mobility_c": -1}},
             "risk.mobility_c: mobility normalizer must be > 0, got -1.0"),
            ({"calibration": {"rainfall_cutoffs": [0, 1000000]}},
             "calibration.rainfall_cutoffs: zero variance in at least one argument"),
            ({"calibration": {"rainfall_cutoffs": [900, 1000]}},
             "calibration.rainfall_cutoffs: zero variance in at least one argument"),
            ({"calibration": {"lags": LAGS}},
             "calibration.lags: need >= 3 paired observations, got 0"),
            ({"membership": {"rainfall_shoulder": -1},
              "calibration": {"rainfall_cutoffs": [150, 350]}},
             "membership.rainfall_shoulder: shoulder width must be > 0, got -1"),
            ({"calibration": {"rainfall_cutoffs": [100, 1.7e308]}},
             "calibration.rainfall_cutoffs: breakpoint (inf, 0.0) outside finite x, y in [0,1]"),
        ],
        ids=["temperature-order", "temperature-short", "humidity-order", "humidity-empty",
             "rainfall_shoulder", "mobility_c", "cutoffs-every-month", "cutoffs-no-month",
             "lags", "rainfall_shoulder-pinned-band", "cutoffs-infinite-foot"],
    )
    def test_stage_errors_name_their_key(self, workspace, capsys, overrides, message):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "stage.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, **overrides)))
        out = tmp_path / "r"
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
        assert (code, err) == (1, f"error: {message}\n")
        assert not out.exists()


# calibration.json of the quick-start panel with both searches fixed by the
# config; the bytes are those the per-pair and per-lag loops wrote, and each
# exponent that of the scalar reference r of the factor's membership column
# at its pinned lag.
FIXED_CALIBRATION_JSON = """\
{
  "correlations": {
    "humid": -0.34787992974929655,
    "mobility": 0.7958001448225925,
    "rain": 0.3537524740245408,
    "temp": -0.9841133933532417
  },
  "exponents": [
    1.087943862469983,
    1.3468381637313291,
    0.47610160470029034,
    1.0891163690983978
  ],
  "lags": {
    "humid": 0,
    "mobility": 2,
    "rain": 1,
    "temp": 3
  },
  "mobility_c": 0.2,
  "rainfall_cutoffs": {
    "correlation": 0.7504462957848099,
    "r_max": 350.0,
    "r_min": 150.0
  }
}
"""


class TestCalibrate:
    def test_fixed_lags_and_cutoffs(self, workspace, capsys):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "fixed.yaml"
        fixed = {
            "lags": {"rain": 1, "temp": 3, "humid": 0, "mobility": 2},
            "rainfall_cutoffs": [150, 350],
        }
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration=fixed)))
        out = tmp_path / "cal"
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(out))
        assert code == 0, err
        assert (out / "calibration.json").read_text() == FIXED_CALIBRATION_JSON

    @pytest.mark.parametrize("lags", [(0, 0, 0, 0), (1, 3, 0, 2)], ids=["zero", "mixed"])
    def test_exponents_weigh_each_membership_at_its_pinned_lag(self, workspace, capsys, lags):
        """With only the lags pinned, each exponent written comes from the r
        of the factor's membership column at the lag R applies it."""
        tmp_path, data, _ = workspace
        pinned = dict(zip(FACTORS, lags))
        cfg_path = tmp_path / "lags.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"lags": pinned})))
        out = tmp_path / "cal"
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(out))
        assert code == 0, err
        written = json.loads((out / "calibration.json").read_text())
        cfg = load_config(cfg_path)
        cols = target_columns(load_panel(cfg), cfg["region"])
        mfs = membership_functions(
            cfg, CutoffResult(**written["rainfall_cutoffs"]), written["mobility_c"]
        )
        mags = []
        for name, lag in pinned.items():
            degrees = getattr(mfs, name).evaluate(getattr(cols, name))
            lagged = np.concatenate((np.full(lag, np.nan), degrees[: degrees.size - lag]))
            try:
                mags.append(pearson(lagged, cols.infected))
            except CorrelationUndefinedError:
                mags.append(0.0)
        assert written["lags"] == pinned
        assert written["exponents"] == list(exponents_from_correlations(mags))

    def test_pinned_band_is_checked_at_the_configured_shoulder(self, workspace, capsys):
        """The feet at 1.01 * 1.7e308 are finite. At the default shoulder they
        overflow: see the "cutoffs-infinite-foot" row of
        test_stage_errors_name_their_key."""
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "shoulder.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(
            data, membership={"rainfall_shoulder": 0.01},
            calibration={"rainfall_cutoffs": [100, 1.7e308]},
        )))
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(tmp_path / "r"))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", ["calibrate", "report"])
    def test_a_search_error_names_its_factor(self, workspace, capsys, command):
        """No mobility weight reaches the target, so its R_mob is 0 in every
        month and has no correlation at any lag."""
        tmp_path, data, _ = workspace
        (tmp_path / "lone.csv").write_text("from,to,weight\nA,B,1\n")
        cfg = synth_config(data)
        cfg["inputs"]["mobility"] = str(tmp_path / "lone.csv")
        cfg_path = tmp_path / "lone.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "r"
        code, _, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
        assert (code, err) == (
            1, "error: calibrate/mobility lag search: zero variance in at least one argument\n"
        )
        assert not out.exists()

    def test_too_fine_grid_is_one_line_error(self, workspace, capsys):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "fine.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"grid_step": 0.0001})))
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(tmp_path / "c"))
        assert code == 1
        assert err == (
            "error: calibration.grid_step 0.0001 is too fine: 4900001 grid points "
            "in [30.0, 520.0], at most 2700 are searched\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("step, points", [(1.0e-300, "4.9e+302"), (5.0e-324, "inf")])
    def test_grid_point_count_stays_short(self, workspace, capsys, step, points):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "fine.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"grid_step": step})))
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(tmp_path / "c"))
        assert (code, err) == (1, (
            f"error: calibration.grid_step {step} is too fine: {points} grid points "
            "in [30.0, 520.0], at most 2700 are searched\n"
        ))

    @pytest.mark.parametrize("cutoffs, shown", [([300, 100], "(300.0, 100.0)"),
                                                ([float("nan"), 100], "(nan, 100.0)")])
    def test_cutoffs_out_of_order_name_the_key(self, workspace, capsys, cutoffs, shown):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "cutoffs.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"rainfall_cutoffs": cutoffs})))
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(tmp_path / "c"))
        assert (code, err) == (
            1, f"error: calibration.rainfall_cutoffs: need 0 <= r_min < r_max, got {shown}\n"
        )

    @pytest.mark.parametrize("exponents", [None, [1, 1, 1, 1]])
    def test_bad_membership_fails_whether_or_not_exponents_are_pinned(
        self, workspace, capsys, exponents
    ):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "membership.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(
            data, membership={"temperature": [[30, 1], [20, 0]]},
            calibration={"exponents": exponents},
        )))
        code, _, err = run(capsys, "--config", str(cfg_path), "calibrate", "--out", str(tmp_path / "c"))
        assert (code, err) == (1, "error: membership.temperature: breakpoint x values must "
                                  "strictly increase (30.0 >= 20.0)\n")

    @pytest.mark.parametrize("command", ["calibrate", "detect", "baseline", "report"])
    @pytest.mark.parametrize("exponents, shown", [([1, 1, 1, -1], "(1.0, 1.0, 1.0, -1.0)"),
                                                  ([0, 1, 1, 1], "(0.0, 1.0, 1.0, 1.0)")])
    def test_pinned_exponents_must_be_positive(self, workspace, capsys, command, exponents,
                                               shown):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "exponents.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"exponents": exponents})))
        out = tmp_path / "out"
        code, _, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
        assert (code, err) == (
            1, f"error: calibration.exponents must be 4 positive reals, got {shown}\n"
        )
        assert not out.exists()


# sha256 of every file that synth, report and evaluate write on the
# quick-start panel, noiseless and at noise_scale 0.05 (seed 3). A change to
# the bytes any writer emits (line endings, number format, key order) fails.
_SHARED_SHA256 = {
    "data/mobility.csv": "42a8af2ee61cd25c3f9b80b3476222cc252163beea55dadeae2f4d74d4a1c6b9",
    "data/outbreaks.csv": "e8956181e6c628beee8c7bfb6143c8b27bbcedf2146cd8d09a4d3a45c417b655",
    "data/population.csv": "2901a39158d9fe97c5ff826e573a3dce5fa228f31563d733b709c9b85c4b9107",
    "data/susceptible.csv": "4953798d5ffb83bb0cf0a81a032a7f3f6a61b1cf7f36874ff6f0ebf731ad5dff",
}
ARTIFACT_SHA256 = {
    0.0: {
        **_SHARED_SHA256,
        "data/humidity.csv": "0f3dfa96aa4aaa1fde9443becc4b51d2720ad4fd3baf50e2178c19eef6e9a58c",
        "data/incidence.csv": "8dce6e329f7ac8e58d3239452efcd8b8a1fe38445118d5049d567cd6e77cf3fd",
        "data/rainfall.csv": "6ef2ba35de4be68cb37f311dae0aea3abb5f1891f0e3d2eb822663e2d22ddd51",
        "data/temperature.csv": "89bd4f2169e77a0fb98eb43081ee1df48e2f8eb7749c58016c067afea87269d7",
        "report/baseline.csv": "7092492250285c63c27c01d77565bb3d347299f57178e5474eae61a3ea7e5ddf",
        "report/calibration.json": "ffccced601e122ab3a08b0fce30e07f246d45f22823acff747cd07443ce93149",
        "report/evaluation.json": "ddd9b24c3d3fddec1f9f56dc1b527ec4c0f5bbb2c4ce9cd1acc58a26eb48383b",
        "report/flagged.csv": "82da1dd0e1ff50f51fd52df6279d025ad3f3872880712003be946d7372fa4085",
        "report/objective_space.svg": "20e6d6475ecd8de6c65214eab25e601e5359c89e4c0b7db93309893d840cb69b",
        "report/risk.csv": "a9c7ff59730ffab0d01469eb0d5709abdfac8d91d48aa09b79463be3f555fced",
        "evaluate/evaluation.json": "c3a8d6946cff3f9566c7bea36418101ffac8d69b88222d5c41e59e253eb77bed",
    },
    0.05: {
        **_SHARED_SHA256,
        "data/humidity.csv": "abe2098cee314bf7ec022432ca476393502bc92846e5a2efc388f390de9f18b7",
        "data/incidence.csv": "7a8abc871d3e831d668a603c9ed4cb5eb33880577a7a8ce198adb31aa6a75655",
        "data/rainfall.csv": "c095713a0438b4f798b3778c4c257a3cc6b63e4b29899a548ead46276d785cd0",
        "data/temperature.csv": "02c767d352d8dae4acff920a2de086f720dd275bd595a8a07aea5540ead30405",
        "report/baseline.csv": "335d77d8ddb55d339820033af04d935230ae54884aa6b71caf58d0e748da02af",
        "report/calibration.json": "4e5220352629d1a26cdca569fc1047445dcf9a425344ad66dc01a6ea6e48a3bd",
        "report/evaluation.json": "d898bc4a45ed5b7737b136b6df2be3dc9ab171c837afd484e3673f869a0a63ff",
        "report/flagged.csv": "ffbd530cc82a3f6b2ea13d9f80d6d3692c0a18a41f0f6141f200c9e03d2fdd90",
        "report/objective_space.svg": "a63c858713d7b7f31587284c7a88b7b93d7c921114abcb162738c316bc213da2",
        "report/risk.csv": "d24a98374083c25d388847515d71b8e06e3466ebac991246b24fddfcaa4e6def",
        "evaluate/evaluation.json": "d669f0a953a99f80accf114e73e50e1f83fdbce93d49546341fc229ec45be638",
    },
}


@pytest.mark.parametrize("noise_scale", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_are_pinned(tmp_path, capsys, noise_scale):
    data = tmp_path / "data"
    synth_cfg = tmp_path / "synth.yaml"
    synth_cfg.write_text(yaml.safe_dump({"synth": {"noise_scale": noise_scale, "seed": 3}}))
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(synth_config(data)))
    for argv in (
        ["--config", str(synth_cfg), "synth", "--out", str(data)],
        ["--config", str(cfg_path), "report", "--out", str(tmp_path / "report")],
        ["--config", str(cfg_path), "evaluate", "--out", str(tmp_path / "evaluate"),
         "--predictions", str(tmp_path / "report" / "flagged.csv"),
         "--actual", str(data / "outbreaks.csv")],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*/*")
    }
    assert digests == ARTIFACT_SHA256[noise_scale]


# risk.csv, flagged.csv and calibration.json of the quick-start panel with
# both membership shapes overridden and the exponents pinned.
PINNED_MEMBERSHIP_SHA256 = {
    "calibration.json": "ed173149a57340647606105f01597e750b4f6c19f16e0d9e172eff20501c2b13",
    "flagged.csv": "39a7218e364062187a3bfb7eb0ace1331e8a85e6f73b45ade3263fc4eb99f1d9",
    "risk.csv": "8d0d90ff88ce61b9ab63f26fc378c3138ffe633943ebedbccb6613d666d3b5e3",
}


def test_membership_overrides_with_pinned_exponents(workspace, capsys):
    tmp_path, data, _ = workspace
    cfg_path = tmp_path / "pinned.yaml"
    cfg_path.write_text(yaml.safe_dump(synth_config(
        data,
        membership={"temperature": [[15, 0], [22, 1], [29, 1], [35, 0]],
                    "humidity": [[50, 0], [70, 1], [100, 0.5]]},
        calibration={"exponents": [1, 0.5, 2, 1]},
    )))
    out = tmp_path / "r"
    code, stdout, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout.startswith("flagged months: 2012-11, 2014-03, 2015-08, 2017-03, 2018-06\n")
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in PINNED_MEMBERSHIP_SHA256
    }
    assert digests == PINNED_MEMBERSHIP_SHA256


class TestSynth:
    def test_writes_expected_artifacts(self, workspace):
        _, data, _ = workspace
        expected = {
            "rainfall.csv", "temperature.csv", "humidity.csv", "incidence.csv",
            "susceptible.csv", "population.csv", "mobility.csv", "outbreaks.csv",
        }
        assert {p.name for p in data.iterdir()} == expected

    @pytest.mark.parametrize(
        "synth, message",
        [
            ({"start": "9999-01", "months": 24, "outbreak_months": ["9999-10"]},
             "months must be <= 12 from 9999-01, to end by 9999-12"),
            ({"months": 99999999999999999999999},
             "months must be <= 95856 from 2012-01, to end by 9999-12"),
        ],
    )
    def test_span_ending_after_9999_12_is_refused(self, tmp_path, capsys, synth, message):
        cfg_path = tmp_path / "synth.yaml"
        cfg_path.write_text(yaml.safe_dump({"synth": synth}))
        out = tmp_path / "data"
        code, _, err = run(capsys, "--config", str(cfg_path), "synth", "--out", str(out))
        assert (code, err) == (2, f"error: config: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "synth, message",
        [
            ({"noise_scale": float("nan")}, "noise_scale must be finite, got nan"),
            ({"noise_scale": float("inf")}, "noise_scale must be finite, got inf"),
            ({"rain_band": [0, float("inf")]}, "rain band bounds must be finite, got (0.0, inf)"),
            ({"noise_scale": -1}, "noise_scale must be >= 0, got -1.0"),
            ({"rain_band": [350, 150]}, "invalid rain band (350.0, 150.0)"),
            ({"rain_band": [1.0e308, 1.7e308]},
             "rain band centre must lie within 3.2-794.8 mm, got inf from (1e+308, 1.7e+308)"),
            ({"rain_band": [900, 1000]},
             "rain band centre must lie within 3.2-794.8 mm, got 950.0 from (900.0, 1000.0)"),
            ({"rain_band": [0, 5]},
             "rain band centre must lie within 3.2-794.8 mm, got 2.5 from (0.0, 5.0)"),
        ],
        ids=["nan-scale", "inf-scale", "inf-band", "negative-scale", "unordered-band",
             "overflowing-band", "high-band", "low-band"],
    )
    def test_settings_out_of_range_are_refused(self, tmp_path, capsys, synth, message):
        cfg_path = tmp_path / "synth.yaml"
        cfg_path.write_text(yaml.safe_dump({"synth": synth}))
        out = tmp_path / "data"
        code, _, err = run(capsys, "--config", str(cfg_path), "synth", "--out", str(out))
        assert (code, err) == (2, f"error: config: {message}\n")
        assert not out.exists()


class TestDetect:
    def test_flags_exactly_the_planted_outbreaks(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        out = tmp_path / "det"
        code, _, err = run(capsys, "--config", str(cfg_path), "detect", "--out", str(out))
        assert code == 0, err
        flagged = [
            line.split(",")[0]
            for line in (out / "flagged.csv").read_text().splitlines()[1:]
            if line
        ]
        planted = [
            line for line in (data / "outbreaks.csv").read_text().splitlines()[1:] if line
        ]
        assert flagged == planted

    def test_deterministic_artifacts(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(capsys, "--config", str(cfg_path), "detect", "--out", str(out))
            assert code == 0
            outs.append(out)
        for fname in ("risk.csv", "flagged.csv", "objective_space.svg"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_loose_rank_threshold_can_only_add_months(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        strict_out = tmp_path / "strict"
        run(capsys, "--config", str(cfg_path), "detect", "--out", str(strict_out))
        loose_cfg = tmp_path / "loose.yaml"
        loose_cfg.write_text(
            yaml.safe_dump(synth_config(data, detection={"rank_threshold": 40}))
        )
        loose_out = tmp_path / "loose"
        code, _, _ = run(capsys, "--config", str(loose_cfg), "detect", "--out", str(loose_out))
        assert code == 0
        strict = (strict_out / "flagged.csv").read_text().splitlines()[1:]
        loose = (loose_out / "flagged.csv").read_text().splitlines()[1:]
        strict_months = {line.split(",")[0] for line in strict if line}
        loose_months = {line.split(",")[0] for line in loose if line}
        assert strict_months <= loose_months
        assert len(loose_months) > len(strict_months)


class TestEvaluate:
    def test_perfect_calendar_scores_zero(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        code, out, err = run(
            capsys,
            "--config", str(cfg_path),
            "evaluate",
            "--out", str(tmp_path / "ev"),
            "--predictions", str(data / "outbreaks.csv"),
            "--actual", str(data / "outbreaks.csv"),
        )
        assert code == 0, err
        result = json.loads(out.strip().splitlines()[-1])
        assert result["error_rate"] == 0.0
        assert result["false_positives"] == 0

    @pytest.mark.parametrize(
        "bound, span, total",
        [
            ({"span_start": "2011-06"}, {"start": "2011-06", "end": "2018-06"}, 85),
            ({"span_end": "2020-06"}, {"start": "2012-11", "end": "2020-06"}, 92),
        ],
    )
    def test_a_single_span_bound_is_used(self, workspace, capsys, bound, span, total):
        # The planted months run 2012-11..2018-06; only the null bound is inferred.
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "span.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, evaluation=bound)))
        out = tmp_path / "ev"
        code, _, err = run(
            capsys, "--config", str(cfg_path), "evaluate", "--out", str(out),
            "--predictions", str(data / "outbreaks.csv"), "--actual", str(data / "outbreaks.csv"),
        )
        assert code == 0, err
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["span"] == span
        assert payload["result"]["total_months"] == total


class TestReport:
    @pytest.mark.parametrize(
        "bound, span, matches, total",
        [
            ({"span_start": "2016-06"}, {"start": "2016-06", "end": "2019-12"}, 2, 43),
            ({"span_end": "2014-01"}, {"start": "2012-04", "end": "2014-01"}, 1, 22),
        ],
    )
    def test_months_outside_the_span_are_not_scored(
        self, workspace, capsys, bound, span, matches, total
    ):
        # The planted and flagged months are 2012-11, 2014-03, 2015-08, 2017-03
        # and 2018-06; the modelled months run 2012-04..2019-12.
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "span.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, evaluation=bound)))
        out = tmp_path / "r"
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
        assert (code, err) == (0, "")
        payload = json.loads((out / "evaluation.json").read_text())
        assert payload["span"] == span
        for method in ("multicriteria", "baseline"):
            assert payload[method] == {"matches": matches, "false_positives": 0,
                                       "false_negatives": 0, "total_months": total,
                                       "error_rate": 0.0}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_ideal_points(self, workspace, capsys):
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "ideal.yaml"
        cfg_path.write_text(yaml.safe_dump(synth_config(data, risk={"r_ideal": 5e-324,
                                                                    "l_ideal": 5e-324})))
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(tmp_path / "r"))
        assert (code, err) == (0, "")
        risk_rows = (tmp_path / "r" / "risk.csv").read_text().splitlines()[1:]
        assert {tuple(row.split(",")[3:]) for row in risk_rows} <= {("0", "0"), ("1", "0"),
                                                                     ("0", "1"), ("1", "1")}

    def test_end_to_end_zero_error_and_deterministic(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, stdout, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
            assert code == 0, err
            outs.append(out)
        ev = json.loads((outs[0] / "evaluation.json").read_text())
        assert ev["multicriteria"]["error_rate"] == 0.0
        assert ev["baseline"]["error_rate"] == 0.0
        artifacts = sorted(p.name for p in outs[0].iterdir())
        assert "calibration.json" in artifacts and "flagged.csv" in artifacts
        for fname in artifacts:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_failed_run_writes_no_artifacts(self, workspace, capsys):
        # On the noiseless quick-start panel R_mob at lag 2 is I(t-1) times a
        # constant, so the baseline design is rank deficient.
        tmp_path, data, _ = workspace
        cfg_path = tmp_path / "collinear.yaml"
        lags = {"rain": 1, "temp": 3, "humid": 0, "mobility": 2}
        cfg_path.write_text(yaml.safe_dump(synth_config(data, calibration={"lags": lags})))
        for command in ("baseline", "report"):
            out = tmp_path / command
            code, _, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
            assert code == 1
            assert err == "error: design is rank deficient; collinear columns: infected_prev\n"
            assert not out.exists()


class TestPipelineSubcommands:
    @pytest.mark.parametrize(
        "command, files, summary",
        [
            ("calibrate", ["calibration.json"], "wrote {out}/calibration.json\n"),
            ("detect", ["flagged.csv", "objective_space.svg", "risk.csv"],
             "flagged 5 month(s); artifacts in {out}\n"),
            ("baseline", ["baseline.csv"], "predicted 5 month(s); artifacts in {out}\n"),
        ],
    )
    def test_writes_its_subset_of_the_report(self, workspace, capsys, command, files, summary):
        tmp_path, _, cfg_path = workspace
        full, out = tmp_path / "report", tmp_path / command
        assert run(capsys, "--config", str(cfg_path), "report", "--out", str(full))[0] == 0
        code, stdout, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
        assert code == 0, err
        assert stdout == summary.format(out=out)
        assert sorted(p.name for p in out.iterdir()) == files
        for name in files:
            assert (out / name).read_bytes() == (full / name).read_bytes(), name


class TestMissingTargetSeries:
    """A target without the S or N series that a stage reads: one line naming
    the series, exit 1, nothing written."""

    def _drop(self, data, variable):
        path = data / f"{variable}.csv"
        lines = path.read_text().splitlines(keepends=True)
        if variable == "susceptible":  # only WP has one: hand it to NB instead
            path.write_text("".join(line.replace("WP,", "NB,", 1) for line in lines))
        else:
            path.write_text("".join(line for line in lines if not line.startswith("WP,")))

    @pytest.mark.parametrize(
        "variable, failing",
        [("population", ("detect", "report")), ("susceptible", ("detect", "baseline", "report"))],
    )
    def test_names_the_series(self, workspace, capsys, variable, failing):
        tmp_path, data, cfg_path = workspace
        self._drop(data, variable)
        for command in ("detect", "baseline", "report"):
            out = tmp_path / command
            code, _, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
            if command in failing:
                assert code == 1
                assert err == f"error: panel has no series for (WP, {variable}_count)\n"
                assert not out.exists()
            else:
                assert code == 0, err


class TestUnreadableInput:
    """Inputs the CSV reader cannot read give one line naming the file."""

    def _report(self, workspace, capsys):
        tmp_path, _, cfg_path = workspace
        out = tmp_path / "r"
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert not out.exists()
        return code, err

    def test_not_utf8(self, workspace, capsys):
        _, data, _ = workspace
        (data / "rainfall.csv").write_bytes(b"region,date,value\nWP,2012-01,\xff1\n")
        code, err = self._report(workspace, capsys)
        assert code == 1
        assert err == f"error: {data / 'rainfall.csv'}: not UTF-8 text (invalid start byte)\n"

    def test_field_over_size_limit(self, workspace, capsys):
        _, data, _ = workspace
        (data / "rainfall.csv").write_text(f'region,date,value\nWP,2012-01,1\nWP,2012-02,"{"9" * 200_000}"\n')
        code, err = self._report(workspace, capsys)
        assert code == 1
        assert err.startswith(f"error: {data / 'rainfall.csv'}: line 3: field larger than field limit")

    def test_directory_is_not_a_file(self, workspace, capsys):
        _, data, _ = workspace
        (data / "rainfall.csv").unlink()
        (data / "rainfall.csv").mkdir()
        code, err = self._report(workspace, capsys)
        assert code == 2
        assert err == f"error: not a file: {data / 'rainfall.csv'}\n"

    def test_calendar_not_utf8(self, workspace, capsys):
        _, data, _ = workspace
        (data / "outbreaks.csv").write_bytes(b"date\n2012-11\n\xe9\n")
        code, err = self._report(workspace, capsys)
        assert code == 1
        assert err.startswith(f"error: {data / 'outbreaks.csv'}: not UTF-8 text")

    def test_calendar_short_row(self, workspace, capsys):
        _, data, _ = workspace
        path = data / "outbreaks.csv"
        path.write_text("flag,date\n1,2012-11\n1\n2,2013-02,extra\n")
        code, err = self._report(workspace, capsys)
        assert code == 1
        assert err == f"error: {path}: line 3: expected at least 2 fields\n"

    def test_calendar_directory(self, workspace, capsys):
        tmp_path, data, _ = workspace
        code, _, err = run(
            capsys, "evaluate", "--out", str(tmp_path / "ev"),
            "--predictions", str(data), "--actual", str(data / "outbreaks.csv"),
        )
        assert code == 2
        assert err == f"error: not a file: {data}\n"


class TestMonthOutOfRange:
    """A month outside 1..12 in an input file names the file and line."""

    def test_series_file(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        path = data / "rainfall.csv"
        path.write_text(path.read_text() + "WP,2010-13,1\n")
        line = path.read_text().count("\n")
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(tmp_path / "r"))
        assert code == 1
        assert err == f"error: {path}: line {line}: month must be in 1..12, got 13\n"

    def test_calendar(self, workspace, capsys):
        tmp_path, data, cfg_path = workspace
        path = data / "outbreaks.csv"
        path.write_text("date\n2012-11\n2010-00\n")
        code, _, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(tmp_path / "r"))
        assert code == 1
        assert err == f"error: {path}: line 3: month must be in 1..12, got 0\n"


class TestOutPathIsAFile:
    """An ``--out`` that is, or lies under, an existing file is a one-line
    usage error, and a pipeline subcommand creates nothing."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["calibrate", "report"])
    def test_pipeline(self, workspace, capsys, command, under):
        tmp_path, _, cfg_path = workspace
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "sub" if under else blocker
        before = sorted(tmp_path.rglob("*"))
        code, stdout, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
        reason = "Not a directory" if under else "File exists"
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot create --out directory {out}: {reason}\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert blocker.read_text() == "keep\n"

    def test_synth(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        code, _, err = run(capsys, "synth", "--out", str(blocker / "data"))
        assert code == 2
        assert err == f"error: cannot create --out directory {blocker / 'data'}: Not a directory\n"
        assert sorted(tmp_path.rglob("*")) == [blocker]

    def test_evaluate(self, workspace, capsys):
        tmp_path, data, _ = workspace
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        code, _, err = run(
            capsys, "evaluate", "--out", str(blocker),
            "--predictions", str(data / "outbreaks.csv"), "--actual", str(data / "outbreaks.csv"),
        )
        assert code == 2
        assert err == f"error: cannot create --out directory {blocker}: File exists\n"
        assert blocker.read_text() == "keep\n"



class TestPathFaults:
    """Any other OS error on an input or artifact path is one line and exit 2
    as well: ``cannot read PATH: reason`` or ``cannot write PATH: reason``.
    A file without read permission takes the same path, but a test run as
    root reads any file, so that case is not tested here."""

    LONG = "x" * 5000  # one path component past any file system's limit

    TOO_LONG = "File name too long"
    LOOP = "Too many levels of symbolic links"

    @staticmethod
    def symlink_loop(tmp_path):
        path = tmp_path / "loop-a"
        path.symlink_to(tmp_path / "loop-b")
        (tmp_path / "loop-b").symlink_to(path)
        return path

    @staticmethod
    def assert_input_fault(workspace, capsys, key, path, reason):
        tmp_path, data, _ = workspace
        out = tmp_path / "r"
        cfg = synth_config(data)
        cfg["inputs"][key] = str(path)
        cfg_path = tmp_path / "fault.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        code, stdout, err = run(capsys, "--config", str(cfg_path), "report", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot read {path}: {reason}\n"
        assert not out.exists()

    @staticmethod
    def assert_config_fault(tmp_path, capsys, path, reason):
        code, _, err = run(capsys, "--config", str(path), "calibrate", "--out", str(tmp_path / "o"))
        assert (code, err) == (2, f"error: cannot read {path}: {reason}\n")
        assert not (tmp_path / "o").exists()

    @staticmethod
    def assert_calendar_fault(workspace, capsys, argument, path, reason):
        tmp_path, data, _ = workspace
        out = tmp_path / "ev"
        calendars = {"--predictions": str(data / "outbreaks.csv"), "--actual": str(data / "outbreaks.csv")}
        calendars[argument] = str(path)
        code, _, err = run(capsys, "evaluate", "--out", str(out), *sum(calendars.items(), ()))
        assert (code, err) == (2, f"error: cannot read {path}: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["rainfall", "temperature", "humidity", "incidence", "susceptible", "population",
                "mobility", "actual_outbreaks"],
    )
    def test_an_input_name_too_long(self, workspace, capsys, key):
        self.assert_input_fault(workspace, capsys, key, workspace[0] / self.LONG, self.TOO_LONG)

    def test_a_config_name_too_long(self, tmp_path, capsys):
        self.assert_config_fault(tmp_path, capsys, tmp_path / self.LONG, self.TOO_LONG)

    @pytest.mark.parametrize("argument", ["--predictions", "--actual"])
    def test_a_calendar_name_too_long(self, workspace, capsys, argument):
        self.assert_calendar_fault(workspace, capsys, argument, workspace[0] / self.LONG, self.TOO_LONG)

    def test_an_input_symlink_loop(self, workspace, capsys):
        self.assert_input_fault(workspace, capsys, "rainfall", self.symlink_loop(workspace[0]), self.LOOP)

    def test_a_config_symlink_loop(self, tmp_path, capsys):
        self.assert_config_fault(tmp_path, capsys, self.symlink_loop(tmp_path), self.LOOP)

    def test_a_calendar_symlink_loop(self, workspace, capsys):
        self.assert_calendar_fault(workspace, capsys, "--actual", self.symlink_loop(workspace[0]), self.LOOP)

    @pytest.mark.parametrize("kind", ["dangling-symlink", "under-a-file"])
    def test_no_file_behind_the_path(self, tmp_path, capsys, kind):
        if kind == "dangling-symlink":
            path = tmp_path / "dangling"
            path.symlink_to(tmp_path / "nowhere")
        else:
            (tmp_path / "file.csv").write_text("date\n")
            path = tmp_path / "file.csv" / "x"
        code, _, err = run(capsys, "--config", str(path), "calibrate", "--out", str(tmp_path / "o"))
        assert (code, err) == (2, f"error: no such file: {path}\n")

    @pytest.mark.parametrize(
        "command, blocked",
        [
            ("calibrate", "calibration.json"),
            ("detect", "risk.csv"),
            ("detect", "objective_space.svg"),
            ("baseline", "baseline.csv"),
            ("report", "calibration.json"),
            ("report", "objective_space.svg"),
            ("report", "baseline.csv"),
            ("report", "evaluation.json"),
        ],
    )
    def test_a_directory_in_the_way_of_an_artifact(self, workspace, capsys, command, blocked):
        """The files written before the fault stay, whole."""
        tmp_path, _, cfg_path = workspace
        full, out = tmp_path / "full", tmp_path / "o"
        assert run(capsys, "--config", str(cfg_path), command, "--out", str(full))[0] == 0
        (out / blocked).mkdir(parents=True)
        code, stdout, err = run(capsys, "--config", str(cfg_path), command, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out / blocked}: Is a directory\n"
        names = list(SUBCOMMANDS[command][0])  # in the order they are written
        written = sorted(p.name for p in out.iterdir() if p.is_file())
        assert written == sorted(names[: names.index(blocked)])
        for name in written:
            assert (out / name).read_bytes() == (full / name).read_bytes(), name

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "data"
        (out / "rainfall.csv").mkdir(parents=True)
        code, stdout, err = run(capsys, "synth", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out / 'rainfall.csv'}: Is a directory\n"

    def test_evaluate(self, workspace, capsys):
        tmp_path, data, _ = workspace
        out = tmp_path / "ev"
        (out / "evaluation.json").mkdir(parents=True)
        code, stdout, err = run(
            capsys, "evaluate", "--out", str(out),
            "--predictions", str(data / "outbreaks.csv"), "--actual", str(data / "outbreaks.csv"),
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: cannot write {out / 'evaluation.json'}: Is a directory\n"


def test_report_imports_neither_synth_nor_numpy_ma(workspace):
    """``report`` needs neither the generator nor ``numpy.ma`` (which
    ``np.quantile`` and ``np.unique`` import): each costs every CLI process
    start-up time."""
    tmp_path, _, cfg_path = workspace
    script = (
        "import sys\n"
        "from denguewatch.cli import main\n"
        f"code = main(['--config', {str(cfg_path)!r}, 'report', '--out', {str(tmp_path / 'r')!r}])\n"
        "print(code, sorted(m for m in ('denguewatch.synth', 'numpy.ma') if m in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"


def test_pipeline_without_a_config_file_never_imports_yaml():
    """``yaml`` is imported only to read or write a YAML file, so a run on
    the built-in defaults does without it."""
    script = (
        "import sys\n"
        "import denguewatch.pipeline\n"
        "from denguewatch import config\n"
        "config.load_config()\n"
        "print('yaml' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
