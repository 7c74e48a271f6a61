"""The parse cache of ``panel.load_series_table`` and ``panel.load_mobility``:
a load of bytes the cache holds (a hit) returns what their parse returned (a
miss), and any other load parses exactly as without a cache.

Each test starts with an empty cache of its own (``conftest.py``). A load is
shown to be a hit by a parser that fails the test if it runs. The quick-start
files are smaller than ``panel.CACHE_MIN_BYTES``, so the tests cache files of
any size unless they restore the floor.
"""

import csv
import os
import sys

import numpy as np
import pytest
import yaml

from denguewatch import panel
from denguewatch.cli import main
from denguewatch.errors import IngestionError
from denguewatch.panel import Variable, load_mobility, load_series_table
from denguewatch.pipeline import INPUT_VARIABLES

from test_metamorphic import bench_gen

FLOOR = panel.CACHE_MIN_BYTES


@pytest.fixture(autouse=True)
def cache_any_size(monkeypatch):
    monkeypatch.setattr(panel, "CACHE_MIN_BYTES", 0)


def load_all(data):
    """Every series table of the panel in ``data``, then its mobility matrix."""
    tables = [load_series_table(data / f"{stem}.csv", v) for stem, v in INPUT_VARIABLES.items()]
    return tables, load_mobility(data / "mobility.csv")


def assert_same(got, expected):
    tables, mobility = got
    for table, other in zip(tables, expected[0], strict=True):
        assert list(table) == list(other)  # the regions in order of first appearance
        for region, series in table.items():
            assert series == other[region] and series.start == other[region].start
            assert not series.values.flags.writeable
    assert mobility == expected[1] and mobility.regions == expected[1].regions
    assert not mobility.weights.flags.writeable


@pytest.fixture
def no_parse(monkeypatch):
    """Fail any load that parses its file from here on."""
    def parse(path, *args, **kwargs):
        pytest.fail(f"{path} was parsed, not read from the cache")
    monkeypatch.setattr(panel, "_columns", parse)


def synth(root, **settings):
    cfg = root / "synth.yaml"
    cfg.write_text(yaml.safe_dump({"synth": settings}))
    assert main(["--config", str(cfg), "synth", "--out", str(root / "data")]) == 0
    return root / "data"


def rewrite(src, dst, encoding="utf-8", **dialect):
    """Every CSV of ``src`` written again into ``dst`` by a ``csv.writer``."""
    dst.mkdir()
    for path in src.glob("*.csv"):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(dst / path.name, "w", newline="", encoding=encoding) as fh:
            csv.writer(fh, **dialect).writerows(rows)
    return dst


@pytest.fixture(scope="module", params=[(0.0, 1), (0.01, 1), (0.05, 3)],
                ids=["noiseless", "low", "noisy"])
def quick_start(request, tmp_path_factory):
    """The quick-start panel's directory, plain, quoted with CRLF line ends,
    and with a byte-order mark, by name."""
    noise_scale, seed = request.param
    root = tmp_path_factory.mktemp("quick-start")
    data = synth(root, noise_scale=noise_scale, seed=seed)
    return {
        "plain": data,
        "quoted-crlf": rewrite(data, root / "quoted", quoting=csv.QUOTE_ALL, lineterminator="\r\n"),
        "bom": rewrite(data, root / "bom", encoding="utf-8-sig", lineterminator="\n"),
    }


@pytest.fixture(scope="module")
def national(tmp_path_factory):
    """The benchmark's national panel (seed 1)."""
    gen = bench_gen()
    data = tmp_path_factory.mktemp("national") / "data"
    gen.write_national(gen.national_panel(1), data)
    return data


@pytest.mark.parametrize("form", ["plain", "quoted-crlf", "bom"])
def test_a_hit_equals_a_miss(quick_start, form, parse_cache, request):
    data = quick_start[form]
    missed = load_all(data)
    assert len(list(parse_cache.glob("*.npz"))) == 7
    request.getfixturevalue("no_parse")
    assert_same(load_all(data), missed)


def test_a_hit_equals_a_miss_on_the_national_panel(national, request):
    missed = load_all(national)
    request.getfixturevalue("no_parse")
    assert_same(load_all(national), missed)


def test_only_files_from_the_floor_up_are_cached(quick_start, national, parse_cache, monkeypatch):
    monkeypatch.setattr(panel, "CACHE_MIN_BYTES", FLOOR)
    calls = []
    columns = panel._columns
    monkeypatch.setattr(
        panel, "_columns", lambda *args, **kw: calls.append(1) or columns(*args, **kw)
    )
    for attempt in ("first", "second"):
        load_all(quick_start["plain"])
    assert len(calls) == 14 and not parse_cache.exists()
    assert max(p.stat().st_size for p in quick_start["plain"].glob("*.csv")) < FLOOR
    load_all(national)
    inputs = [national / f"{stem}.csv" for stem in (*INPUT_VARIABLES, "mobility")]
    assert min(p.stat().st_size for p in inputs) >= FLOOR
    assert len(list(parse_cache.glob("*.npz"))) == 7


@pytest.mark.parametrize("short", [0, 1], ids=["at-the-floor", "a-byte-below"])
def test_the_floor_is_inclusive(national, parse_cache, monkeypatch, short):
    path = national / "rainfall.csv"
    monkeypatch.setattr(panel, "CACHE_MIN_BYTES", path.stat().st_size + short)
    load_series_table(path, Variable.RAINFALL)
    assert len(list(parse_cache.glob("*.npz"))) == 1 - short


def test_another_file_of_a_kind_replaces_its_entry(quick_start, parse_cache, monkeypatch):
    """One entry per loader, so the cache holds one input set at most: a load
    of other bytes of the same kind replaces the entry, and the first file,
    loaded again, is parsed again to the same values."""
    first = load_all(quick_start["plain"])
    load_all(quick_start["quoted-crlf"])  # every file's bytes differ
    loaders = [variable.value for variable in INPUT_VARIABLES.values()] + ["mobility"]
    assert sorted(p.name for p in parse_cache.iterdir()) == sorted(f"{k}.npz" for k in loaders)
    calls = []
    columns = panel._columns
    monkeypatch.setattr(
        panel, "_columns", lambda *args, **kw: calls.append(1) or columns(*args, **kw)
    )
    assert_same(load_all(quick_start["plain"]), first)
    assert len(calls) == 7


def report(data, out, region=None, outbreaks="outbreaks"):
    """``report`` on the panel in ``data``: its exit code and artifacts."""
    cfg = {"inputs": {stem: str(data / f"{stem}.csv") for stem in INPUT_VARIABLES}}
    cfg["inputs"]["mobility"] = str(data / "mobility.csv")
    cfg["inputs"]["actual_outbreaks"] = str(data / f"{outbreaks}.csv")
    if region is not None:
        cfg["region"] = region
    out.mkdir()
    (out / "config.yaml").write_text(yaml.safe_dump(cfg))
    code = main(["--config", str(out / "config.yaml"), "report", "--out", str(out / "run")])
    return code, {p.name: p.read_bytes() for p in (out / "run").iterdir()} if code == 0 else {}


def test_a_report_from_the_cache_writes_the_same_bytes(national, tmp_path, capsys, request):
    missed = report(national, tmp_path / "miss", "T042", "outbreaks-T042")
    request.getfixturevalue("no_parse")
    assert report(national, tmp_path / "hit", "T042", "outbreaks-T042") == missed
    assert missed[0] == 0 and len(missed[1]) == 6


def test_a_changed_byte_is_a_miss(quick_start, monkeypatch, tmp_path):
    path = quick_start["plain"] / "rainfall.csv"
    original = path.read_bytes()
    before = load_series_table(path, Variable.RAINFALL)
    stat = path.stat()
    row = original.rindex(b"\n", 0, len(original) - 1) + 1  # the last row
    region = original[row : original.index(b",", row)].decode()
    k = original.index(b",", original.index(b",", row) + 1) + 1  # its value's first digit
    changed = original[:k] + (b"7" if original[k : k + 1] != b"7" else b"8") + original[k + 1 :]
    try:
        path.write_bytes(changed)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        got = load_series_table(path, Variable.RAINFALL)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "empty"))
        parsed = load_series_table(path, Variable.RAINFALL)
    finally:
        path.write_bytes(original)
    assert list(got) == list(parsed) and all(got[r] == parsed[r] for r in got)
    assert [r for r in got if got[r] != before[r]] == [region]


def flip_a_bit(entry, raw):
    """``entry`` with one bit of its copy of the input ``raw`` flipped."""
    k = entry.index(raw) + len(raw) // 2
    return entry[:k] + bytes([entry[k] ^ 1]) + entry[k + 1 :]


@pytest.mark.parametrize("spoil", [
    lambda entry, raw: entry[: len(entry) // 2],
    lambda entry, raw: b"not an entry",
    flip_a_bit,
], ids=["truncated", "garbage", "one-bit"])
def test_a_spoiled_entry_is_parsed_again_and_rewritten(quick_start, parse_cache, spoil):
    data = quick_start["plain"]
    missed = load_all(data)
    entry, = parse_cache.glob("mobility.npz")
    stored = entry.read_bytes()
    entry.write_bytes(spoil(stored, (data / "mobility.csv").read_bytes()))
    assert_same(load_all(data), missed)
    assert entry.read_bytes() == stored


def test_an_unusable_cache_changes_nothing(quick_start, tmp_path, monkeypatch, capsys):
    data = quick_start["plain"]
    expected = report(data, tmp_path / "cached")
    (tmp_path / "file").write_text("in the way\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file" / "cache"))
    for attempt in ("first", "second"):
        capsys.readouterr()
        assert report(data, tmp_path / attempt) == expected
        assert capsys.readouterr().err == ""
    assert expected[0] == 0 and len(expected[1]) == 6


@pytest.mark.parametrize("load, data, message", [
    (load_series_table, b"region,date,value\nWP,2000-01,1\nWP,2000-02,abc\n",
     "line 3: non-numeric value 'abc'"),
    (load_series_table, b"region,date,value\nWP,2000-01,1\nWP,2000-02,-1\n",
     "negative incidence_count at 2000-02 in WP"),
    (load_series_table, b"region,date,value\nWP,2000-01,1\nWP,\xff,1\n",
     "not UTF-8 text (invalid start byte)"),
    (load_mobility, b"from,to,weight\nA,B,1\nA,B,2\n", "line 3: duplicate pair (A, B)"),
], ids=["non-numeric", "negative", "not-utf8", "duplicate-pair"])
def test_a_file_that_fails_is_never_stored(tmp_path, parse_cache, load, data, message):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    args = (Variable.INCIDENCE,) if load is load_series_table else ()
    for attempt in ("first", "second"):
        with pytest.raises(IngestionError) as raised:
            load(path, *args)
        assert str(raised.value) == f"{path}: {message}"
        assert not parse_cache.exists() or not any(parse_cache.iterdir())


def test_another_parser_is_a_miss(quick_start, monkeypatch, request):
    data = quick_start["plain"]
    missed = load_all(data)
    monkeypatch.setattr(panel, "_parser_identity", lambda: "another parser")
    calls = []
    columns = panel._columns
    monkeypatch.setattr(
        panel, "_columns", lambda *args, **kw: calls.append(1) or columns(*args, **kw)
    )
    assert_same(load_all(data), missed)
    assert len(calls) == 7
    request.getfixturevalue("no_parse")  # the entries now hold the other parser's parse
    assert_same(load_all(data), missed)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="the csv module reads NUL from 3.11 on")
def test_a_region_name_numpy_cannot_store_is_not_stored(tmp_path, parse_cache):
    path = tmp_path / "in.csv"
    path.write_bytes(b'region,date,value\n"WP\x00",2000-01,1\n')
    assert list(load_series_table(path, Variable.RAINFALL)) == ["WP\x00"]
    assert not parse_cache.exists() or not any(parse_cache.iterdir())
    assert np.array(["WP\x00"]).tolist() == ["WP"]  # why: numpy drops a trailing NUL
