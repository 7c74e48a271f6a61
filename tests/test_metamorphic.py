"""Metamorphic relations of whole runs: ``report`` through ``cli.main`` in
process on the quick-start panel, noiseless (seed 1) and at noise_scale 0.05
(seed 3), against the same run on transformed input files.

- Shuffling the data rows of every input CSV changes no artifact byte.
- Multiplying incidence, susceptible and population by 2**3 changes no
  artifact byte but ``baseline.csv``: there the predicted months stay the
  same and the fitted incidence scales by 8. Every ratio the model reads
  (S/N, I/I_peak, I/N behind the mobility weights) and every correlation is
  unchanged, and a power of two scales a float exactly.
"""

import csv
import math
import random

import pytest
import yaml

from denguewatch.cli import main
from denguewatch.pipeline import INPUT_VARIABLES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INPUTS = (*INPUT_VARIABLES, "mobility", "outbreaks")
SCALED = ("incidence", "susceptible", "population")
ARTIFACTS = ("calibration.json", "risk.csv", "flagged.csv", "objective_space.svg",
             "baseline.csv", "evaluation.json")


def report(root, data, name):
    """The artifacts of ``report`` on the panel in ``data``, by file name."""
    cfg = {"inputs": {stem: str(data / f"{stem}.csv") for stem in INPUT_VARIABLES}}
    cfg["inputs"]["mobility"] = str(data / "mobility.csv")
    cfg["inputs"]["actual_outbreaks"] = str(data / "outbreaks.csv")
    cfg_path = root / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = root / name
    assert main(["--config", str(cfg_path), "report", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    return {fname: (out / fname).read_bytes() for fname in ARTIFACTS}


def rewrite(src, dst, stems, change):
    """Copy every input CSV from ``src`` to ``dst``, passing the data rows of
    those in ``stems`` through ``change``."""
    dst.mkdir()
    for stem in INPUTS:
        with open(src / f"{stem}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if stem in stems:
            rows = change(rows)
        with open(dst / f"{stem}.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@pytest.fixture(scope="module", params=[(0.0, 1), (0.05, 3)], ids=["noiseless", "noisy"])
def panel(request, tmp_path_factory):
    """The root, the panel's directory and the artifacts of its report."""
    noise_scale, seed = request.param
    root = tmp_path_factory.mktemp("metamorphic")
    synth_cfg = root / "synth.yaml"
    synth_cfg.write_text(yaml.safe_dump({"synth": {"noise_scale": noise_scale, "seed": seed}}))
    data = root / "data"
    assert main(["--config", str(synth_cfg), "synth", "--out", str(data)]) == 0
    return root, data, report(root, data, "original")


def test_row_order_changes_no_byte(panel):
    root, data, original = panel

    def shuffled(rows):
        random.Random(len(rows)).shuffle(rows)
        return rows

    rewrite(data, root / "shuffled", INPUTS, shuffled)
    assert report(root, root / "shuffled", "shuffled-report") == original


def test_counts_times_eight_scale_only_the_fitted_incidence(panel):
    root, data, original = panel

    def times_eight(rows):
        return [[region, t, value and repr(8 * float(value))] for region, t, value in rows]

    rewrite(data, root / "scaled", SCALED, times_eight)
    scaled = report(root, root / "scaled", "scaled-report")
    assert {f: b for f, b in scaled.items() if f != "baseline.csv"} == {
        f: b for f, b in original.items() if f != "baseline.csv"
    }
    rows = [list(csv.reader(artifacts["baseline.csv"].decode().splitlines()))
            for artifacts in (original, scaled)]
    assert rows[0][0] == rows[1][0] == ["date", "D_fitted", "predicted_flag"]
    assert len(rows[0]) == len(rows[1]) > 1
    for (t, d, flag), (t8, d8, flag8) in zip(rows[0][1:], rows[1][1:]):
        assert (t8, flag8) == (t, flag)
        assert math.isclose(float(d8), 8 * float(d), rel_tol=1e-10, abs_tol=0.0), t
