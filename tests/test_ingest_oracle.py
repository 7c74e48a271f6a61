"""The streaming loaders agree with the per-row reference loaders.

On every file, ``load_series_table`` and ``load_mobility`` must return the
same series (start month and values per region) and the same W as the
loaders kept in ``reference.py``, or raise the same exception type with the
same message. The corpus mixes valid rows with every kind of bad row, so the
first bad line in file order decides the message.
"""

import csv
import functools
import os
import random
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from denguewatch.errors import IngestionError
from denguewatch.evaluation import load_calendar
from denguewatch.panel import MobilityMatrix, Variable, load_mobility, load_series_table

from reference import as_tuple, reference_load_mobility, reference_load_series_table

REGIONS = ["WP", "NB", " WP ", "wp", "", "Té"]
DATES = [
    "2010-01", "2010-02", "2010-03", "2010-05", "2009-12", " 2010-04 ",
    "2010-13", "2010-00", "201X-01", "2010-1", "10-01", "",
    "٢٠١٠-٠٦",  # 2010-06 in Arabic-Indic digits
]
VALUES = [
    "1.5", "0", "2", "-3", " 4.25 ", "", "nan", "inf", "-inf", "1e400",
    "1_000", "١٢", "abc", "0x10", "1e-300",
]
GOOD_VALUES = ["1.5", "0", "2", " 4.25 ", "", "1e-300"]
WEIGHTS = ["1.5", "0", "0.001", "-1", "", "nan", "inf", "1_0", "٣", "abc", " 2 "]
SERIES_HEADERS = ["region,date,value", " Region , DATE ,value", "region,date", "date,region,value"]
MOBILITY_HEADERS = ["from,to,weight", "FROM, to ,Weight", "from,to"]
SPECIAL_ROWS = ["", " , , ", " ", ",,", "  ,  ,  "]


def outcome(load, *args):
    """What a loader did: its normalised result, or its exception."""
    try:
        result = load(*args)
    except Exception as exc:  # the oracle compares whatever is raised
        return ("raised", type(exc), str(exc))
    if isinstance(result, dict):
        return ("ok", {r: as_tuple(s) for r, s in result.items()}, list(result))
    if isinstance(result, MobilityMatrix):
        return ("ok", result.regions, result.weights.tolist())
    return ("ok", result)


def assert_same_series(path):
    for variable in (Variable.RAINFALL, Variable.INCIDENCE):
        assert outcome(load_series_table, path, variable) == outcome(
            reference_load_series_table, path, variable
        )


def assert_same_mobility(path):
    assert outcome(load_mobility, path) == outcome(reference_load_mobility, path)


def month_text(rng, ordinal):
    text = f"{ordinal // 12:04d}-{ordinal % 12 + 1:02d}"
    return f" {text} " if rng.random() < 0.05 else text


def with_errors(rng, rows, bad_rows, blanks=SPECIAL_ROWS):
    """``rows`` shuffled, with blank rows and, in half the files, 1-3 bad
    rows at random places."""
    rows = rows + [rng.choice(blanks) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        rows += [bad_rows(rng, rows) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return rows


def bad_series_row(rng, rows, pools=(REGIONS, DATES, VALUES)):
    choice = rng.randrange(4)
    if choice == 0 and any(r.count(",") == 2 for r in rows):  # duplicate
        return rng.choice([r for r in rows if r.count(",") == 2])
    if choice == 1:  # short or long row
        return rng.choice(["WP,2010-01", "WP,2010-01,1,2", "WP"])
    return ",".join(rng.choice(pool) for pool in pools)


def series_rows(rng):
    rows = []
    for region in rng.sample(REGIONS[:2] + ["Té"], rng.randint(1, 3)):
        start = rng.randint(2009 * 12, 2011 * 12)
        for t in range(start, start + rng.randint(1, 24)):
            if rng.random() < 0.9:  # the rest are gaps
                rows.append(",".join([region, month_text(rng, t), rng.choice(GOOD_VALUES)]))
    return with_errors(rng, rows, bad_series_row)


def bad_mobility_row(rng, rows, pools=(REGIONS, REGIONS, WEIGHTS)):
    choice = rng.randrange(4)
    if choice == 0 and any(r.count(",") == 2 for r in rows):
        return rng.choice([r for r in rows if r.count(",") == 2])
    if choice == 1:
        return rng.choice(["A,B", "A,B,1,2", "A"])
    return ",".join(rng.choice(pool) for pool in pools)


def mobility_rows(rng):
    names = rng.sample(["A", "B", "C", " D ", "É", "f"], rng.randint(1, 6))
    pairs = [(i, j) for i in names for j in names if rng.random() < 0.5]
    rows = [",".join([i, j, rng.choice(WEIGHTS[:3])]) for i, j in pairs]
    return with_errors(rng, rows, bad_mobility_row)


def csv_text(header, rows, newline="\n"):
    text = newline.join(([header] if header is not None else []) + rows)
    return text + (newline if text else "")


def write(path, header, rows, newline="\n"):
    path.write_bytes(csv_text(header, rows, newline).encode("utf-8"))
    # Path() drops the "." that the loaders' messages otherwise keep.
    return f"{path.parent}/./{path.name}"


class TestSeededCorpus:
    @pytest.mark.parametrize("seed", range(60))
    def test_series(self, tmp_path, seed):
        rng = random.Random(seed)
        header = SERIES_HEADERS[0] if rng.random() < 0.9 else rng.choice(SERIES_HEADERS)
        rows = series_rows(rng)
        assert_same_series(write(tmp_path / "s.csv", header, rows))

    @pytest.mark.parametrize("seed", range(60))
    def test_mobility(self, tmp_path, seed):
        rng = random.Random(seed)
        header = MOBILITY_HEADERS[0] if rng.random() < 0.9 else rng.choice(MOBILITY_HEADERS)
        rows = mobility_rows(rng)
        assert_same_mobility(write(tmp_path / "m.csv", header, rows))

    @pytest.mark.parametrize(
        "header, rows",
        [
            (None, []),  # empty file
            ("region,date,value", []),  # header only
            ("region,date,value", ["", " , , "]),  # header and blank rows only
            ("region,date,value", ["WP,2010-03,1", "WP,2010-01,2", "NB,2009-11,3"]),  # unsorted
            ("region,date,value", ["WP,2010-01,1", "WP,2010-01,2", "WP,201X-02,3"]),  # dup first
            ("region,date,value", ["WP,2010-01,abc", "WP,2010-01,2"]),  # bad value first
            ("region,date,value", ["WP,2010-01,-1", "NB,2010-01,-2", "WP,2010-02,x"]),
            ("region,date,value", ["WP,2010-01,-1", "NB,2010-01,-2"]),  # negative counts
            ("region,date,value", ["WP, 2010-13 ,1"]),  # month out of range
            ("region,date,value", ["WP,2010-01,1,", "WP,2010-02"]),  # long row, short row
            ("region,date,value", ["WP,2010-01,1.5"]),  # one row
            ("region,date,value", ["WP,2010-01,"]),  # one row, a gap
            ("region,date,value", ["WP,2010-02,abc"]),  # one row, bad
            # a duplicate in the last row
            ("region,date,value", ["WP,2010-01,1", "NB,2010-01,2", "WP,2010-02,3", "WP,2010-01,4"]),
            # blank and whitespace-only rows between data rows, then a bad row
            ("region,date,value", ["WP,2010-01,1", "", " , , ", "  ", ",", "\t", "WP,2010-02,x"]),
            ("region,date,value", ["", "WP,2010-01,1", " ", "WP,2010-01,2"]),
            # quoted fields holding commas and newlines: lines count rows
            ("region,date,value", ['"W,P",2010-01,1', '"N\nB",2010-01,2', '"W,P",2010-02,"1\n2"']),
            ("region,date,value", ['"W\nP",2010-01,"1,5"']),
            ("region,date,value", ['" W,P ",2010-01,1', '"W,P",2010-01,2']),  # padded duplicate
        ],
    )
    def test_series_cases(self, tmp_path, header, rows):
        assert_same_series(write(tmp_path / "s.csv", header, rows))

    @pytest.mark.parametrize(
        "header, rows",
        [
            (None, []),
            ("from,to,weight", []),
            ("from,to,weight", ["", " , , "]),
            ("from,to,weight", ["B,A,1", "A,B,2", "C,A,0", "A,A,3"]),
            ("from,to,weight", ["A,B,1", "A,B,2", "A,C,-1"]),  # dup before bad weight
            ("from,to,weight", ["A,B,nan", "A,B,1"]),
            ("from,to,weight", [" A , B , 1 ", "A,B,1"]),  # padded duplicate
            ("from,to,weight", ["A,B,1"]),  # one row
            ("from,to,weight", ["A,B,"]),  # one row, bad
            ("from,to,weight", ["A,B,1", "B,A,2", "C,A,3", "B,A,4"]),  # last row repeats
            ("from,to,weight", ["A,B,1", "", " , , ", "  ", "B,A,-2"]),  # blanks, then bad
            ("from,to,weight", ['"A,1",B,1', '"B\n2",A,2', 'A,B,"x\ny"']),  # quoted
        ],
    )
    def test_mobility_cases(self, tmp_path, header, rows):
        assert_same_mobility(write(tmp_path / "m.csv", header, rows))

    @pytest.mark.parametrize("bad_at", [None, 4095, 4096, 9000])
    @pytest.mark.parametrize(
        "bad_row, bad_pair",
        [("WP", "R1,S1"), ("R1,1000-01,1", "R1,S1,1"), ("WP,2030-01,x", "R1,S2,x")],
        ids=["short", "repeat", "non-numeric"],
    )
    def test_long_files(self, tmp_path, bad_at, bad_row, bad_pair):
        """Files of several read blocks: line numbers run on across them."""
        rows = [f"R{k % 7},{1000 + k // 84:04d}-{k // 7 % 12 + 1:02d},{k}" for k in range(10_000)]
        rows[3000] = rows[6000] = " , , "
        pairs = [f"R{k // 100},S{k % 100},{k}" for k in range(10_000)]
        if bad_at is not None:
            rows.insert(bad_at, bad_row)
            pairs.insert(bad_at, bad_pair)
        assert_same_series(write(tmp_path / "s.csv", "region,date,value", rows))
        assert_same_mobility(write(tmp_path / "m.csv", "from,to,weight", pairs))

    @pytest.mark.parametrize("seed", range(10))
    def test_crlf_line_ends(self, tmp_path, seed):
        rng = random.Random(seed)
        assert_same_series(write(tmp_path / "s.csv", SERIES_HEADERS[0], series_rows(rng), "\r\n"))
        assert_same_mobility(write(tmp_path / "m.csv", MOBILITY_HEADERS[0], mobility_rows(rng), "\r\n"))

    def test_crlf_matches_lf(self, tmp_path):
        rows = ["WP,2010-02,2", "", "WP,2010-01,1", "NB,2010-01,3"]
        lf = outcome(load_series_table, write(tmp_path / "lf.csv", "region,date,value", rows), Variable.RAINFALL)
        crlf = outcome(
            load_series_table, write(tmp_path / "crlf.csv", "region,date,value", rows, "\r\n"),
            Variable.RAINFALL,
        )
        assert lf == crlf and lf[0] == "ok"

    def test_missing_file(self, tmp_path):
        path = f"{tmp_path}/./absent.csv"
        assert_same_series(path)
        assert_same_mobility(path)


def through_pipe(path, text, load):
    """What ``load(path)`` does when ``text`` arrives through a named pipe at
    ``path``, which can be read only once."""
    os.mkfifo(path)
    writer = threading.Thread(target=Path(path).write_text, args=(text,), kwargs={"encoding": "utf-8"})
    writer.start()
    try:
        return outcome(load, path)
    finally:  # a reader end, so that the writer never waits for one
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=30)
        os.close(fd)
        assert not writer.is_alive()


SERIES = functools.partial(load_series_table, variable=Variable.INCIDENCE)
REFERENCE_SERIES = functools.partial(reference_load_series_table, variable=Variable.INCIDENCE)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestNamedPipe:
    """A pipe gives the same result or line-numbered error as a file."""

    @pytest.mark.parametrize(
        "load, reference, header, rows",
        [
            (SERIES, REFERENCE_SERIES, "region,date,value",
             ["WP,2010-01,1", "", "NB,2010-01,2", "WP,2010-02,abc", "WP,2010-13,1"]),
            (SERIES, REFERENCE_SERIES, "region,date,value", ["WP,2010-01,1", "WP,2010-01,2"]),
            (SERIES, REFERENCE_SERIES, "region,date,value", ["WP,2010-01,-1", "WP,2010-02,1"]),
            (SERIES, REFERENCE_SERIES, "region,date,value", ["WP,2010-02,1", "WP,2010-01,"]),
            (load_mobility, reference_load_mobility, "from,to,weight", ["A,B,1", " ", "B,A,x", "A,B,1"]),
            (load_mobility, reference_load_mobility, "from,to,weight", ["A,B,1", "B,A,2"]),
            (load_calendar, None, "date", ["2012-11", "", "2012-13", "bad"]),
            (load_calendar, None, "date,flag", ["2012-11,1", "2013-02,0"]),
            (load_calendar, None, "flag,date", ["1,2012-11", "1", "2,2013-02,extra"]),
        ],
    )
    def test_same_as_a_file(self, tmp_path, load, reference, header, rows):
        path = write(tmp_path / "in.csv", header, rows)
        expected = outcome(load, path)
        if reference is not None:
            assert expected == outcome(reference, path)
        os.unlink(path)
        assert through_pipe(path, csv_text(header, rows), load) == expected


GOOD_ROWS = "".join(f"WP,{2000 + k // 12:04d}-{k % 12 + 1:02d},1\n" for k in range(24, 1200)).encode()
GOOD_PAIRS = "".join(f"R{k},S{k},1\n" for k in range(1500)).encode()
BIG_FIELD = b'WP,2100-01,"' + b"9" * 200_000 + b'"\n'


class TestReadFaults:
    """A fault that stops the read (bytes that are not UTF-8, an oversized
    field) counts as a bad row at that place: a bad row before it, tens of
    kilobytes earlier, is the one reported."""

    @pytest.mark.parametrize(
        "load, data, message",
        [
            (SERIES, b"region,date,value\nWP,2000-01,1\nWP,2000-02,abc\n" + GOOD_ROWS + b"WP,\xff,1\n",
             "line 3: non-numeric value 'abc'"),
            (SERIES, b"region,date,value\nWP,2000-01,1\nWP,2000-01,2\n" + GOOD_ROWS + b"WP,\xff,1\n",
             "line 3: duplicate row for (WP, 2000-01)"),
            (SERIES, b"region,date,value\nWP,2000-01,1\nWP\n" + GOOD_ROWS + b"WP,\xff,1\n",
             "line 3: expected 3 fields"),
            (SERIES, b"region,date,value\nWP,2000-01,1\n" + GOOD_ROWS + b"WP,\xff,1\nWP,2000-02,abc\n",
             "not UTF-8 text (invalid start byte)"),
            (SERIES, b"region,date,value\nWP,2000-01,-1\n" + GOOD_ROWS + b"WP,\xff,1\n",
             "not UTF-8 text (invalid start byte)"),  # whole-file checks come last
            (SERIES, b"region,date,value\nWP,2000-01,1\nWP,2000-02,abc\n" + GOOD_ROWS + BIG_FIELD,
             "line 3: non-numeric value 'abc'"),
            (SERIES, b"region,date,value\nWP,2000-01,1\n" + BIG_FIELD + b"WP,2000-02,abc\n",
             "line 3: field larger than field limit (131072)"),
            (load_mobility, b"from,to,weight\nA,B,1\nA,B,x\n" + GOOD_PAIRS + b"A,\xff,1\n",
             "line 3: non-numeric weight 'x'"),
            (load_mobility, b"from,to,weight\nA,B,1\nA,B,2\n" + GOOD_PAIRS + b"A,\xff,1\n",
             "line 3: duplicate pair (A, B)"),
            (load_mobility, b"from,to,weight\nA,B,1\n" + GOOD_PAIRS + b"A,\xff,1\nA,B,x\n",
             "not UTF-8 text (invalid start byte)"),
            (load_mobility, b"from,to,weight\n" + b"\xff" * 10_000 + b"\n",
             "not UTF-8 text (invalid start byte)"),
            (load_calendar, b"date\n2012-01\n2012-13\n" + b"2012-01\n" * 2000 + b"\xff\n",
             "line 3: month must be in 1..12, got 13"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, load, data, message):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        assert outcome(load, path) == ("raised", IngestionError, f"{path}: {message}")


def fuzz_rows(regions, dates, values, blanks=SPECIAL_ROWS):
    field_lists = st.lists(
        st.one_of(st.sampled_from(regions), st.sampled_from(dates), st.sampled_from(values)),
        min_size=0,
        max_size=4,
    )
    row = st.one_of(
        st.tuples(st.sampled_from(regions), st.sampled_from(dates), st.sampled_from(values)),
        field_lists,
        st.sampled_from(blanks),
    )
    return st.lists(row.map(lambda r: r if isinstance(r, str) else ",".join(r)), max_size=30)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestFuzzedCorpus:
    @FUZZ
    @given(st.sampled_from(SERIES_HEADERS), fuzz_rows(REGIONS, DATES, VALUES))
    def test_series(self, tmp_path, header, rows):
        assert_same_series(write(tmp_path / "s.csv", header, rows))

    @FUZZ
    @given(st.sampled_from(MOBILITY_HEADERS), fuzz_rows(REGIONS, REGIONS, WEIGHTS))
    def test_mobility(self, tmp_path, header, rows):
        assert_same_mobility(write(tmp_path / "m.csv", header, rows))


# Plain files (printable ASCII without quotes, LF or CRLF line ends) are
# tokenised with numpy and never reach the csv module.

PLAIN_REGIONS = ["WP", "NB", "wp", "R1", ""]
PLAIN_DATES = [
    "2010-01", "2010-02", "2010-03", "2010-05", "2009-12", "2010-13", "2010-00",
    "201X-01", "2010-1", "10-01", "", "2010-01x",
]
PLAIN_VALUES = [
    "1.5", "0", "2", "-3", "", "nan", "-inf", "inf", "1e400", "1_000", "abc", "0x10",
    "1e-300", "+.5", "1e", "-0",
]
PLAIN_GOOD_VALUES = ["1.5", "0", "2", "", "1e-300", "4.25", "1_0", "7."]
PLAIN_WEIGHTS = ["1.5", "0", "0.001", "-1", "", "nan", "inf", "1_0", "abc", "2."]
PLAIN_BLANKS = ["", ",", ",,"]
PLAIN_SERIES_HEADERS = ["region,date,value", "Region,DATE,value", "region,date", "date,region,value"]
PLAIN_MOBILITY_HEADERS = ["from,to,weight", "FROM,to,Weight", "from,to"]


def plain_series_rows(rng):
    rows = []
    for region in rng.sample(PLAIN_REGIONS[:4], rng.randint(1, 4)):
        start = rng.randint(2009 * 12, 2011 * 12)
        rows += [
            f"{region},{t // 12:04d}-{t % 12 + 1:02d},{rng.choice(PLAIN_GOOD_VALUES)}"
            for t in range(start, start + rng.randint(1, 24))
            if rng.random() < 0.9
        ]
    bad = functools.partial(bad_series_row, pools=(PLAIN_REGIONS, PLAIN_DATES, PLAIN_VALUES))
    return with_errors(rng, rows, bad, PLAIN_BLANKS)


def plain_mobility_rows(rng):
    names = rng.sample(["A", "B", "C", "D", "e", "F1"], rng.randint(1, 6))
    pairs = [(i, j) for i in names for j in names if rng.random() < 0.5]
    rows = [f"{i},{j},{rng.choice(PLAIN_WEIGHTS[:3])}" for i, j in pairs]
    bad = functools.partial(bad_mobility_row, pools=(PLAIN_REGIONS, PLAIN_REGIONS, PLAIN_WEIGHTS))
    return with_errors(rng, rows, bad, PLAIN_BLANKS)


def padded(rng, rows):
    """``rows`` with 0-2 spaces on either side of each field."""
    def pad():
        return " " * rng.randint(0, 2)
    return [",".join(pad() + field + pad() for field in row.split(",")) for row in rows]


def without_csv_reader(load, *args):
    """``outcome(load, *args)``, failing if it calls ``csv.reader``."""
    with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader called")) as reader:
        result = outcome(load, *args)
    assert not reader.called
    return result


def assert_plain_series(path):
    for variable in (Variable.RAINFALL, Variable.INCIDENCE):
        assert without_csv_reader(load_series_table, path, variable) == outcome(
            reference_load_series_table, path, variable
        )


def assert_plain_mobility(path):
    assert without_csv_reader(load_mobility, path) == outcome(reference_load_mobility, path)


NEWLINES = pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])


class TestPlainFiles:
    """Plain files load as the reference loaders load them, with
    ``csv.reader`` patched to raise: they never reach it."""

    @NEWLINES
    @pytest.mark.parametrize("pad", [False, True], ids=["bare", "padded"])
    @pytest.mark.parametrize("seed", range(40))
    def test_series(self, tmp_path, seed, pad, newline):
        rng = random.Random(seed)
        header = PLAIN_SERIES_HEADERS[0] if rng.random() < 0.9 else rng.choice(PLAIN_SERIES_HEADERS)
        rows = plain_series_rows(rng)
        rows = padded(rng, rows) if pad else rows
        assert_plain_series(write(tmp_path / "s.csv", header, rows, newline))

    @NEWLINES
    @pytest.mark.parametrize("pad", [False, True], ids=["bare", "padded"])
    @pytest.mark.parametrize("seed", range(40))
    def test_mobility(self, tmp_path, seed, pad, newline):
        rng = random.Random(seed)
        header = (
            PLAIN_MOBILITY_HEADERS[0] if rng.random() < 0.9 else rng.choice(PLAIN_MOBILITY_HEADERS)
        )
        rows = plain_mobility_rows(rng)
        rows = padded(rng, rows) if pad else rows
        assert_plain_mobility(write(tmp_path / "m.csv", header, rows, newline))

    @pytest.mark.parametrize(
        "data",
        [
            b"region,date,value",  # header only, no line end
            b"region,date,value\r\n",  # header only
            b"region,date,value\n\n\n",  # blank lines only
            b"region,date,value\n,,\r\n,\n",  # blank rows of 3, 2 and 0 fields
            b"\nregion,date,value\nWP,2010-01,1\n",  # a blank first line: no header
            b"region,date,value\nWP,2010-01,1\nWP,2010-02,2",  # no last line end
            b"region,date,value\nWP,2010-01,1\n,2010-02,2\n",  # an empty region
            b"region,date,value\nWP,2010-01,1\n,,\nWP,2010-02\n,,\n",  # short row among blanks
            b"region,date,value\nWP,2010-01,1\n,\nWP,2010-02,,\n",  # long row with an empty field
            b"region,date,value\nWP,2010-02,1\nWP,2010-01,\nNB,2010-01,1e-320\n",
            b"region,date,value\nWP,2010-01,1\r\n\r\nWP,2010-03,3\n",  # LF and CRLF mixed
        ],
    )
    def test_series_cases(self, tmp_path, data):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        assert_plain_series(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"from,to,weight\n",  # no rows is no pair
            b"from,to,weight\n\n,,\n",
            b"from,to,weight\nA,B,1\nB,A,2",
            b"from,to,weight\nA,B,1\nA,,2\n,B,3\n,,4\n",  # empty names
            b"from,to,weight\nA,B,1\nA,B\n",
            b"from,to,weight\nA,B,1e-400\nB,A,1.7976931348623159e308\n",
        ],
    )
    def test_mobility_cases(self, tmp_path, data):
        path = tmp_path / "m.csv"
        path.write_bytes(data)
        assert_plain_mobility(path)

    @pytest.mark.parametrize("bad_at", [4095, 4096, 9000])
    @pytest.mark.parametrize(
        "bad_row",
        ["WP", "WP,2030-01,1,2", "R1,1000-01,1", "WP,2030-1,1", "WP,2030-13,1", "WP,2030-01,x",
         "WP,2030-01,inf", "WP,2030-01,-1"],
        ids=["short", "long", "repeat", "bad-date", "month-13", "non-numeric", "non-finite",
             "negative"],
    )
    def test_long_series(self, tmp_path, bad_at, bad_row):
        """Line numbers run on past a read block's worth of rows."""
        rows = [f"R{k % 7},{1000 + k // 84:04d}-{k // 7 % 12 + 1:02d},{k}" for k in range(10_000)]
        rows[3000] = rows[6000] = ",,"
        rows.insert(bad_at, bad_row)
        assert_plain_series(write(tmp_path / "s.csv", "region,date,value", rows))

    @pytest.mark.parametrize("bad_at", [4095, 4096, 9000])
    @pytest.mark.parametrize(
        "bad_pair",
        ["R1,S1", "R1,S1,1,2", "R1,S1,1", "R1,S2,x", "R1,S2,nan", "R1,S2,-1", "R1,S2,"],
        ids=["short", "long", "repeat", "non-numeric", "non-finite", "negative", "empty"],
    )
    def test_long_mobility(self, tmp_path, bad_at, bad_pair):
        pairs = [f"R{k // 100},S{k % 100},{k}" for k in range(10_000)]
        pairs.insert(bad_at, bad_pair)
        assert_plain_mobility(write(tmp_path / "m.csv", "from,to,weight", pairs))

    def test_long_files_without_a_bad_row(self, tmp_path):
        rows = [f"R{k % 7},{1000 + k // 84:04d}-{k // 7 % 12 + 1:02d},{k}" for k in range(10_000)]
        pairs = [f"R{k // 100},S{k % 100},{k}" for k in range(10_000)]
        assert_plain_series(write(tmp_path / "s.csv", "region,date,value", rows, "\r\n"))
        assert_plain_mobility(write(tmp_path / "m.csv", "from,to,weight", pairs, "\r\n"))

    @pytest.mark.parametrize(
        "data",
        [
            b'region,date,value\n"WP",2010-01,1\n',
            "region,date,value\nTé,2010-01,1\n".encode(),
            b"region,date,value\nWP\t,2010-01,1\n",
            b"region,date,value\rWP,2010-01,1\r",
            b"region,date,value\nWP,2010-01,1\r\nWP,2010-02,2\r",
            b"region,date,value\nWP\x00,2010-01,1\n",
            b"",
            # one field so wide that padding every row to it would take
            # more than 4 times the file and 1 MiB
            b"region,date,value\n" + b"WP,2010-01,1\n" * 20 + b"WP,2030-01," + b"1" * 100_000,
        ],
        ids=["quote", "non-ascii", "tab", "cr", "last-cr", "nul", "empty", "ragged"],
    )
    def test_other_files_take_the_csv_module(self, tmp_path, data):
        path = tmp_path / "s.csv"
        path.write_bytes(data)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            result = outcome(SERIES, path)
        assert reader.called
        assert result == outcome(REFERENCE_SERIES, path)

    @pytest.mark.parametrize(
        "data",
        [
            b"region,date,value\nWP,2010-01,1\n",
            b"Region, DATE ,value\r\nWP,2010-01,1\r\nWP,2010-03,x\r\n",
            b'"region","date","value"\n"WP","2010-01","1"\n"WP","2010-02",""\n',
        ],
        ids=["plain", "bad-row", "quoted"],
    )
    def test_a_leading_bom_is_skipped(self, tmp_path, data):
        """A file that starts with a UTF-8 byte-order mark, as Excel's "CSV
        UTF-8" writes one, loads through the csv module as it does without."""
        path = tmp_path / "s.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            result = outcome(SERIES, path)
        assert reader.called
        path.write_bytes(data)
        assert result == outcome(REFERENCE_SERIES, path)

    def test_a_line_over_the_field_limit_takes_the_csv_module(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"region,date,value\nWP,2010-01,1\nWP,2010-02," + b"9" * 200_000 + b"\n")
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            result = outcome(SERIES, path)
        assert reader.called
        assert result == ("raised", IngestionError,
                          f"{path}: line 3: field larger than field limit (131072)")


class TestFuzzedPlainCorpus:
    @FUZZ
    @given(
        st.sampled_from(PLAIN_SERIES_HEADERS),
        fuzz_rows(PLAIN_REGIONS, PLAIN_DATES, PLAIN_VALUES, PLAIN_BLANKS),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_series(self, tmp_path, header, rows, newline):
        assert_plain_series(write(tmp_path / "s.csv", header, rows, newline))

    @FUZZ
    @given(
        st.sampled_from(PLAIN_MOBILITY_HEADERS),
        fuzz_rows(PLAIN_REGIONS, PLAIN_REGIONS, PLAIN_WEIGHTS, PLAIN_BLANKS),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_mobility(self, tmp_path, header, rows, newline):
        assert_plain_mobility(write(tmp_path / "m.csv", header, rows, newline))


VALUE_TEXTS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: format(x, ".12g")),
    st.from_regex(r"[+-]?[0-9_]{0,6}(\.[0-9_]{0,6})?([eE][+-]?[0-9_]{0,4})?", fullmatch=True),
    st.text(alphabet="0123456789+-._eEinfatyINFATYx", max_size=12),
)


def float_bits(text):
    """The bits of ``float(text)``, or None where float() rejects it."""
    try:
        return np.array([float(text)]).view(np.uint64).tolist()[0]
    except ValueError:
        return None


class TestValueCast:
    """The loaders convert a column of plain value fields with one numpy cast
    from fixed-width bytes: each value has the exact bits of float(text),
    and the cast fails exactly where float() fails."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(VALUE_TEXTS, min_size=1, max_size=8))
    def test_cast_is_float(self, texts):
        column = np.array([text.encode() for text in texts])
        expected = [float_bits(text) for text in texts]
        for field, bits in zip(column, expected):
            if bits is None:
                with pytest.raises(ValueError):
                    np.array([field]).astype(float)
            else:
                assert np.array([field]).astype(float).view(np.uint64).tolist() == [bits]
        if None in expected:
            with pytest.raises(ValueError):
                column.astype(float)
        else:
            assert column.astype(float).view(np.uint64).tolist() == expected
