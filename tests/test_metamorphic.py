"""Metamorphic relations of whole runs: ``report`` through ``cli.main`` in
process on the quick-start panel, noiseless (seed 1) and at noise_scale 0.01
(seed 1) and 0.05 (seed 3), against the same run on transformed input files
or with a changed config.

- Shuffling the data rows of every input CSV changes no artifact byte.
- Multiplying incidence, susceptible and population by 2**3, or by 2**40,
  changes no artifact byte but ``baseline.csv``: there the predicted months
  stay the same and the fitted incidence scales by the factor. Every ratio
  the model reads (S/N, I/I_peak, I/N behind the mobility weights) and every
  correlation is unchanged, and a power of two scales a float exactly. At
  2**40 the count columns of the baseline's design outgrow its mobility
  column by about 1e16, so its collinearity test must not depend on units.
- Multiplying every mobility weight by 2**3, or by 2**-40, changes no
  artifact byte but ``mobility_c`` in ``calibration.json``, which becomes
  exactly the factor times the original: R_mob and its normalizer scale
  together, so the mobility membership and every correlation are unchanged.
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

The relations also run on targets of the benchmark's national panel
(``bench/gen.py`` seed 1, 200 regions). On T042, whose input files hold up
to 39,800 rows, shuffled rows, counts × 2**3, a bystander region with
weight-0 rows to and from all 200, every found value pinned, dates moved 30
years, quoted fields with CRLF line ends and a BOM hold as above; so does
mobility × 2**3 on T017 and T042, where R_mob sums 199 terms. The national
cases take about 5 s of the module's 7 s, most of it rewriting and parsing
the large files. Renaming every region so that the sorted order of the
names reverses, on T017 and T042, keeps the lags, the cutoffs, the flags and
the ranks, and moves every other number by at most ``RENAMED_REL_TOL``.
R_mob sums the feeders' terms in region-name order, the one order the model
depends on, so a new order may move the last bits of ``mobility_c`` and of
what is computed from it.
"""

import csv
import functools
import importlib.util
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest
import yaml

from denguewatch.cli import main
from denguewatch.pipeline import INPUT_VARIABLES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALED = ("incidence", "susceptible", "population")
TARGET = "WP"  # the region of the default config
ARTIFACTS = ("calibration.json", "risk.csv", "flagged.csv", "objective_space.svg",
             "baseline.csv", "evaluation.json")


#: A YYYY-MM month, the only form a month takes in the inputs and artifacts.
MONTH = re.compile(r"\b(\d{4})-(\d{2})\b")


def report(root, data, name, outbreaks="outbreaks", **sections):
    """The artifacts of ``report`` on the panel in ``data``, by file name,
    with the config ``sections`` beside its inputs."""
    cfg = {"inputs": {stem: str(data / f"{stem}.csv") for stem in INPUT_VARIABLES}, **sections}
    cfg["inputs"]["mobility"] = str(data / "mobility.csv")
    cfg["inputs"]["actual_outbreaks"] = str(data / f"{outbreaks}.csv")
    cfg_path = root / f"{name}.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = root / name
    assert main(["--config", str(cfg_path), "report", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    return {fname: (out / fname).read_bytes() for fname in ARTIFACTS}


def rewrite(src, dst, stems=(), change=None, encoding="utf-8", **dialect):
    """Copy every CSV from ``src`` to ``dst``, passing the data rows of those
    whose stem is in ``stems`` through ``change``; written in ``encoding`` by
    a ``csv.writer`` with LF line ends unless ``dialect`` says otherwise."""
    dst.mkdir()
    for path in sorted(src.glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if path.stem in stems:
            rows = change(rows)
        with open(dst / path.name, "w", newline="", encoding=encoding) as fh:
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


def every_csv(data):
    return [path.stem for path in data.glob("*.csv")]


def rows_shuffled(root, data, original, **on_target):
    def shuffled(rows):
        random.Random(len(rows)).shuffle(rows)
        return rows

    rewrite(data, root / "shuffled", every_csv(data), shuffled)
    assert report(root, root / "shuffled", "shuffled-report", **on_target) == original


def test_row_order_changes_no_byte(panel):
    rows_shuffled(*panel)


def counts_scaled(root, data, original, factor, **on_target):
    def scaled_rows(rows):
        return [[region, t, value and repr(factor * float(value))] for region, t, value in rows]

    rewrite(data, root / f"scaled-{factor}", SCALED, scaled_rows)
    scaled = report(root, root / f"scaled-{factor}", f"scaled-{factor}-report", **on_target)
    assert {f: b for f, b in scaled.items() if f != "baseline.csv"} == {
        f: b for f, b in original.items() if f != "baseline.csv"
    }
    rows = [list(csv.reader(artifacts["baseline.csv"].decode().splitlines()))
            for artifacts in (original, scaled)]
    assert rows[0][0] == rows[1][0] == ["date", "D_fitted", "predicted_flag"]
    assert len(rows[0]) == len(rows[1]) > 1
    for (t, d, flag), (t8, d8, flag8) in zip(rows[0][1:], rows[1][1:]):
        assert (t8, flag8) == (t, flag)
        assert math.isclose(float(d8), factor * float(d), rel_tol=1e-10, abs_tol=0.0), t


def test_counts_times_eight_scale_only_the_fitted_incidence(panel):
    counts_scaled(*panel, 2**3)
    counts_scaled(*panel, 2**40)


def mobility_scaled(root, data, original, factor, **on_target):
    def scaled_rows(rows):
        return [[source, target, repr(factor * float(w))] for source, target, w in rows]

    rewrite(data, root / f"busier-{factor}", ("mobility",), scaled_rows)
    busier = report(root, root / f"busier-{factor}", f"busier-{factor}-report", **on_target)
    c = json.loads(original["calibration.json"])["mobility_c"]
    text = original["calibration.json"].decode()
    before, after = (f'"mobility_c": {v!r}' for v in (c, factor * c))
    assert text.count(before) == 1
    assert busier == {**original, "calibration.json": text.replace(before, after).encode()}


def test_mobility_times_eight_scales_only_the_normalizer(panel):
    mobility_scaled(*panel, 2**3)
    mobility_scaled(*panel, 2**-40)


def with_bystander(root, data, original, region=TARGET, **on_target):
    with open(data / "incidence.csv", newline="") as fh:
        regions = sorted({row[0] for row in list(csv.reader(fh))[1:]})

    def bystander(rows):
        target = [row for row in rows if row[0] == region]
        values = [value for _, _, value in reversed(target)]
        return rows + [["AA", t, value] for (_, t, _), value in zip(target, values)]

    rewrite(data, root / "bystander", INPUT_VARIABLES, bystander)
    with open(root / "bystander" / "mobility.csv", "a", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["AA", j, "0"] for j in ["AA", *regions]] + [[i, "AA", "0"] for i in regions]
        )
    again = report(root, root / "bystander", "bystander-report", region=region, **on_target)
    assert again == original


def test_a_bystander_region_changes_no_byte(panel):
    with_bystander(*panel)


def pinned_values(root, data, original, pinned, **on_target):
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
    assert report(root, data, f"pinned-{pinned}", **sections, **on_target) == original


@pytest.mark.parametrize("pinned", ["lags", "cutoffs", "all"])
def test_pinning_the_values_found_changes_no_byte(panel, pinned):
    pinned_values(*panel, pinned)


def dates_moved(root, data, original, **on_target):
    def later(rows):
        return [[moved(cell, 30) for cell in row] for row in rows]

    rewrite(data, root / "later", every_csv(data), later)
    shifted = report(root, root / "later", "later-report", **on_target)
    assert shifted["risk.csv"] != original["risk.csv"]
    assert {f: moved(b.decode(), -30).encode() for f, b in shifted.items()} == original


def test_dates_thirty_years_later_change_no_byte(panel):
    dates_moved(*panel)


def quoted_with_crlf(root, data, original, **on_target):
    rewrite(data, root / "quoted", quoting=csv.QUOTE_ALL, lineterminator="\r\n")
    assert (root / "quoted" / "mobility.csv").read_bytes().startswith(b'"from","to","weight"\r\n')
    assert report(root, root / "quoted", "quoted-report", **on_target) == original


def test_quoted_fields_and_crlf_change_no_byte(panel):
    quoted_with_crlf(*panel)


def byte_order_mark(root, data, original, **on_target):
    rewrite(data, root / "bom", encoding="utf-8-sig")
    assert (root / "bom" / "mobility.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    assert report(root, root / "bom", "bom-report", **on_target) == original


def test_a_leading_byte_order_mark_changes_no_byte(panel):
    byte_order_mark(*panel)


#: Bound on the relative change of any number in the artifacts of a run on
#: renamed regions; measured changes are below 1e-11 (see ``national``).
RENAMED_REL_TOL = 1e-9
#: A number in an artifact: its digits, with the sign left in the text.
NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def bench_gen():
    """``bench/gen.py``, loaded without writing bytecode under ``bench/``."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def national(tmp_path_factory):
    """The root, the national panel's directory (seed 1), the same panel with
    every region renamed so that the sorted names come in reverse order, and
    the new names."""
    gen = bench_gen()
    root = tmp_path_factory.mktemp("national")
    data, renamed = root / "data", root / "renamed"
    national_panel = gen.national_panel(1)
    gen.write_national(national_panel, data)
    regions = sorted(national_panel.regions)
    names = {r: f"R{len(regions) - 1 - i:03d}" for i, r in enumerate(regions)}
    renamed.mkdir()
    for path in data.iterdir():
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        # the leading fields that name regions: from,to; region; none in a calendar
        k = 2 if path.name == "mobility.csv" else 0 if path.name.startswith("outbreaks") else 1
        rows[1:] = [[names[c] for c in row[:k]] + row[k:] for row in rows[1:]]
        with open(renamed / path.name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return root, data, renamed, names


@pytest.fixture(scope="module")
def national_target(national):
    """For a target of the national panel: a directory of its own, the
    panel's directory, the artifacts of ``report`` on the target, and the
    keyword arguments that point ``report`` at it; made once per target."""
    root, data = national[:2]

    @functools.cache
    def made(target):
        own = root / f"{target}-relations"
        own.mkdir()
        on_target = {"outbreaks": f"outbreaks-{target}", "region": target}
        return own, data, report(own, data, "original", **on_target), on_target

    return made


@pytest.mark.parametrize("target", ["T017", "T042"])
def test_renamed_regions_move_only_the_last_bits(national, national_target, target):
    root, _, renamed, names = national
    *_, original, on_target = national_target(target)
    renamed_run = report(root, renamed, f"{target}-renamed", on_target["outbreaks"], region=names[target])
    found, again = (json.loads(a["calibration.json"]) for a in (original, renamed_run))
    assert again["lags"] == found["lags"]
    for key in ("r_min", "r_max"):
        assert again["rainfall_cutoffs"][key] == found["rainfall_cutoffs"][key]
    for name in ARTIFACTS:
        texts = [a[name].decode() for a in (original, renamed_run)]
        assert NUMBER.sub("#", texts[1]) == NUMBER.sub("#", texts[0]), name
        pairs = zip(*(map(float, NUMBER.findall(text)) for text in texts))
        assert all(math.isclose(x, y, rel_tol=RENAMED_REL_TOL) for x, y in pairs), name


@pytest.mark.parametrize("target", ["T017", "T042"])
def test_mobility_times_eight_on_national_targets(national_target, target):
    *case, on_target = national_target(target)
    mobility_scaled(*case, 2**3, **on_target)


def test_quoted_fields_and_crlf_on_a_national_target(national_target):
    *case, on_target = national_target("T042")
    quoted_with_crlf(*case, **on_target)


@pytest.mark.parametrize("relation", [
    rows_shuffled,
    functools.partial(counts_scaled, factor=2**3),
    with_bystander,
    functools.partial(pinned_values, pinned="all"),
    dates_moved,
    byte_order_mark,
], ids=["shuffled", "counts-times-eight", "bystander", "pinned", "dates-moved", "bom"])
def test_relations_on_a_national_target(national_target, relation):
    *case, on_target = national_target("T042")
    relation(*case, **on_target)
