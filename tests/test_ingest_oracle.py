"""The streaming loaders agree with the per-row reference loaders.

On every file, ``load_series_table`` and ``load_mobility`` must return the
same series (start month and values per region) and the same W as the
loaders kept in ``reference.py``, or raise the same exception type with the
same message. The corpus mixes valid rows with every kind of bad row, so the
first bad line in file order decides the message.
"""

import functools
import os
import random
import threading
from pathlib import Path

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


def with_errors(rng, rows, bad_rows):
    """``rows`` shuffled, with blank rows and, in half the files, 1-3 bad
    rows at random places."""
    rows = rows + [rng.choice(SPECIAL_ROWS) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        rows += [bad_rows(rng, rows) for _ in range(rng.randint(1, 3))]
    rng.shuffle(rows)
    return rows


def bad_series_row(rng, rows):
    choice = rng.randrange(4)
    if choice == 0 and any(r.count(",") == 2 for r in rows):  # duplicate
        return rng.choice([r for r in rows if r.count(",") == 2])
    if choice == 1:  # short or long row
        return rng.choice(["WP,2010-01", "WP,2010-01,1,2", "WP"])
    return ",".join([rng.choice(REGIONS), rng.choice(DATES), rng.choice(VALUES)])


def series_rows(rng):
    rows = []
    for region in rng.sample(REGIONS[:2] + ["Té"], rng.randint(1, 3)):
        start = rng.randint(2009 * 12, 2011 * 12)
        for t in range(start, start + rng.randint(1, 24)):
            if rng.random() < 0.9:  # the rest are gaps
                rows.append(",".join([region, month_text(rng, t), rng.choice(GOOD_VALUES)]))
    return with_errors(rng, rows, bad_series_row)


def bad_mobility_row(rng, rows):
    choice = rng.randrange(4)
    if choice == 0 and any(r.count(",") == 2 for r in rows):
        return rng.choice([r for r in rows if r.count(",") == 2])
    if choice == 1:
        return rng.choice(["A,B", "A,B,1,2", "A"])
    return ",".join([rng.choice(REGIONS), rng.choice(REGIONS), rng.choice(WEIGHTS)])


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


def fuzz_rows(regions, dates, values):
    field_lists = st.lists(
        st.one_of(st.sampled_from(regions), st.sampled_from(dates), st.sampled_from(values)),
        min_size=0,
        max_size=4,
    )
    row = st.one_of(
        st.tuples(st.sampled_from(regions), st.sampled_from(dates), st.sampled_from(values)),
        field_lists,
        st.sampled_from(SPECIAL_ROWS),
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
