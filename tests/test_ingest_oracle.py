"""The streaming loaders agree with the per-row reference loaders.

On every file, ``load_series_table`` and ``load_mobility`` must return the
same series (start month and values per region) and the same W as the
loaders kept in ``reference.py``, or raise the same exception type with the
same message. The corpus mixes valid rows with every kind of bad row, so the
first bad line in file order decides the message.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from denguewatch.panel import Variable, load_mobility, load_series_table

from reference import reference_load_mobility, reference_load_series_table

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
        return ("ok", {r: (s.region, s.variable, s.start, s.values) for r, s in result.items()},
                list(result))
    return ("ok", result.regions, result.weights)


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


def write(path, header, rows):
    text = "\n".join(([header] if header is not None else []) + rows)
    path.write_text(text + ("\n" if text else ""), encoding="utf-8")
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
        ],
    )
    def test_mobility_cases(self, tmp_path, header, rows):
        assert_same_mobility(write(tmp_path / "m.csv", header, rows))

    def test_missing_file(self, tmp_path):
        path = f"{tmp_path}/./absent.csv"
        assert_same_series(path)
        assert_same_mobility(path)


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
