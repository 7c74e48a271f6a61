import json

import pytest
import yaml

from denguewatch.cli import main


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


# calibration.json of the quick-start panel with both searches fixed by the
# config; the bytes are those the per-pair and per-lag loops wrote.
FIXED_CALIBRATION_JSON = """\
{
  "correlations": {
    "humid": -0.34787992974929655,
    "mobility": 0.7958001448225925,
    "rain": 0.3537524740245408,
    "temp": -0.9841133933532417
  },
  "exponents": [
    0.9828861804763613,
    1.0045408435486565,
    0.9918157641197404,
    1.020757211855242
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


class TestSynth:
    def test_writes_expected_artifacts(self, workspace):
        _, data, _ = workspace
        expected = {
            "rainfall.csv", "temperature.csv", "humidity.csv", "incidence.csv",
            "susceptible.csv", "population.csv", "mobility.csv", "outbreaks.csv",
        }
        assert {p.name for p in data.iterdir()} == expected


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


class TestReport:
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
