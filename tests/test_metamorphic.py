"""Metamorphic relations of whole runs: ``report`` through ``cli.main`` in
process on the quick-start panel, noiseless (seed 1) and at noise_scale 0.01
(seed 1) and 0.05 (seed 3), against the same run on transformed input files
or with a changed config.

- Shuffling the data rows of every input CSV changes no artifact byte.
- Multiplying incidence, susceptible and population by 2**3 changes no
  artifact byte but ``baseline.csv``: there the predicted months stay the
  same and the fitted incidence scales by 8. Every ratio the model reads
  (S/N, I/I_peak, I/N behind the mobility weights) and every correlation is
  unchanged, and a power of two scales a float exactly.
- Multiplying every mobility weight by 2**3 changes no artifact byte but
  ``mobility_c`` in ``calibration.json``, which becomes exactly 8 times the
  original: R_mob and its normalizer scale together, so the mobility
  membership and every correlation are unchanged.
- Adding a bystander region ``AA``, which sorts before the others, with six
  series of its own over the target's span and weight-0 mobility rows to
  and from every region, changes no artifact byte.
- Pinning in the config the lags, the rainfall band, or both with the
  exponents and the mobility normalizer, each as the run's
  ``calibration.json`` gives it, changes no artifact byte: a pinned value is
  scored as the search scores the candidate it found.
- Moving every month of every input CSV 30 years later changes no artifact
  byte once every month in the artifacts is moved back: the model reads
  months only through their order and distance.
- Writing every input CSV with every field quoted and CRLF line ends, as R's
  ``write.csv`` writes it, changes no artifact byte; so does a UTF-8
  byte-order mark at the start of every input CSV, as Excel's "CSV UTF-8"
  writes it. Either sends each file through the csv module, not the
  tokeniser of plain files.
"""

import csv
import json
import math
import random
import re

import pytest
import yaml

from denguewatch.cli import main
from denguewatch.pipeline import INPUT_VARIABLES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INPUTS = (*INPUT_VARIABLES, "mobility", "outbreaks")
SCALED = ("incidence", "susceptible", "population")
TARGET = "WP"  # the region of the default config
ARTIFACTS = ("calibration.json", "risk.csv", "flagged.csv", "objective_space.svg",
             "baseline.csv", "evaluation.json")


#: A YYYY-MM month, the only form a month takes in the inputs and artifacts.
MONTH = re.compile(r"\b(\d{4})-(\d{2})\b")


def report(root, data, name, **sections):
    """The artifacts of ``report`` on the panel in ``data``, by file name,
    with the config ``sections`` beside its inputs."""
    cfg = {"inputs": {stem: str(data / f"{stem}.csv") for stem in INPUT_VARIABLES}, **sections}
    cfg["inputs"]["mobility"] = str(data / "mobility.csv")
    cfg["inputs"]["actual_outbreaks"] = str(data / "outbreaks.csv")
    cfg_path = root / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = root / name
    assert main(["--config", str(cfg_path), "report", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    return {fname: (out / fname).read_bytes() for fname in ARTIFACTS}


def rewrite(src, dst, stems=(), change=None, encoding="utf-8", **dialect):
    """Copy every input CSV from ``src`` to ``dst``, passing the data rows of
    those in ``stems`` through ``change``; written in ``encoding`` by a
    ``csv.writer`` with LF line ends unless ``dialect`` says otherwise."""
    dst.mkdir()
    for stem in INPUTS:
        with open(src / f"{stem}.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if stem in stems:
            rows = change(rows)
        with open(dst / f"{stem}.csv", "w", newline="", encoding=encoding) as fh:
            csv.writer(fh, **{"lineterminator": "\n", **dialect}).writerows([header, *rows])


def moved(text, years):
    """``text`` with every YYYY-MM month in it moved by ``years``."""
    return MONTH.sub(lambda m: f"{int(m[1]) + years:04d}-{m[2]}", text)


@pytest.fixture(
    scope="module", params=[(0.0, 1), (0.01, 1), (0.05, 3)], ids=["noiseless", "low", "noisy"]
)
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


def test_mobility_times_eight_scales_only_the_normalizer(panel):
    root, data, original = panel

    def times_eight(rows):
        return [[source, target, repr(8 * float(w))] for source, target, w in rows]

    rewrite(data, root / "busier", ("mobility",), times_eight)
    busier = report(root, root / "busier", "busier-report")
    c = json.loads(original["calibration.json"])["mobility_c"]
    text = original["calibration.json"].decode()
    before, after = (f'"mobility_c": {v!r}' for v in (c, 8 * c))
    assert text.count(before) == 1
    assert busier == {**original, "calibration.json": text.replace(before, after).encode()}


def test_a_bystander_region_changes_no_byte(panel):
    root, data, original = panel
    regions = ("AA", "NB", TARGET)

    def with_bystander(rows):
        target = [row for row in rows if row[0] == TARGET]
        values = [value for _, _, value in reversed(target)]
        return rows + [["AA", t, value] for (_, t, _), value in zip(target, values)]

    rewrite(data, root / "bystander", INPUT_VARIABLES, with_bystander)
    with open(root / "bystander" / "mobility.csv", "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["AA", j, "0"] for j in regions] + [[i, "AA", "0"] for i in regions[1:]]
        )
    assert report(root, root / "bystander", "bystander-report") == original


@pytest.mark.parametrize("pinned", ["lags", "cutoffs", "all"])
def test_pinning_the_values_found_changes_no_byte(panel, pinned):
    root, data, original = panel
    found = json.loads(original["calibration.json"])
    band = [found["rainfall_cutoffs"]["r_min"], found["rainfall_cutoffs"]["r_max"]]
    sections = {
        "lags": {"calibration": {"lags": found["lags"]}},
        "cutoffs": {"calibration": {"rainfall_cutoffs": band}},
        "all": {
            "calibration": {"lags": found["lags"], "rainfall_cutoffs": band,
                            "exponents": found["exponents"]},
            "risk": {"mobility_c": found["mobility_c"]},
        },
    }[pinned]
    assert report(root, data, f"pinned-{pinned}", **sections) == original


def test_dates_thirty_years_later_change_no_byte(panel):
    root, data, original = panel

    def later(rows):
        return [[moved(cell, 30) for cell in row] for row in rows]

    rewrite(data, root / "later", INPUTS, later)
    shifted = report(root, root / "later", "later-report")
    assert shifted["risk.csv"] != original["risk.csv"]
    assert {f: moved(b.decode(), -30).encode() for f, b in shifted.items()} == original


def test_quoted_fields_and_crlf_change_no_byte(panel):
    root, data, original = panel
    rewrite(data, root / "quoted", quoting=csv.QUOTE_ALL, lineterminator="\r\n")
    assert (root / "quoted" / "mobility.csv").read_bytes().startswith(b'"from","to","weight"\r\n')
    assert report(root, root / "quoted", "quoted-report") == original


def test_a_leading_byte_order_mark_changes_no_byte(panel):
    root, data, original = panel
    rewrite(data, root / "bom", encoding="utf-8-sig")
    assert (root / "bom" / "outbreaks.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert report(root, root / "bom", "bom-report") == original
