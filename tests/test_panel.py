import pytest
from hypothesis import given, strategies as st

from denguewatch.errors import AlignmentError, IngestionError, ParameterError
from denguewatch.panel import (
    MonthIndex,
    MonthlySeries,
    Panel,
    Variable,
    align,
    lag_shift,
    load_series,
    load_series_table,
    load_mobility,
    write_series,
)


def mk(values, start=MonthIndex(2010, 1), variable=Variable.RAINFALL, region="WP"):
    return MonthlySeries(region, variable, start, tuple(values))


class TestMonthIndex:
    def test_ordering_is_lexicographic(self):
        assert MonthIndex(2010, 12) < MonthIndex(2011, 1)
        assert MonthIndex(2010, 3) < MonthIndex(2010, 4)

    def test_arithmetic(self):
        assert MonthIndex(2010, 11) + 3 == MonthIndex(2011, 2)
        assert MonthIndex(2011, 2) - 3 == MonthIndex(2010, 11)
        assert MonthIndex(2011, 2) - MonthIndex(2010, 11) == 3

    def test_parse_and_str_roundtrip(self):
        assert str(MonthIndex.parse("2010-07")) == "2010-07"

    def test_invalid_month_rejected(self):
        with pytest.raises(ParameterError):
            MonthIndex(2010, 13)

    @given(st.integers(1990 * 12, 2050 * 12), st.integers(-120, 120))
    def test_add_then_subtract_is_identity(self, ordinal, k):
        t = MonthIndex.from_ordinal(ordinal)
        assert (t + k) - k == t
        assert (t + k) - t == k


class TestLoadSeries:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,120.5\nWP,2010-02,88.0\n")
        s = load_series(p, Variable.RAINFALL)
        assert s.start == MonthIndex(2010, 1)
        assert s.values == (120.5, 88.0)

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("")
        with pytest.raises(IngestionError, match="no data rows"):
            load_series(p, Variable.RAINFALL)

    def test_header_only_errors(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\n")
        with pytest.raises(IngestionError, match="no data rows"):
            load_series(p, Variable.RAINFALL)

    def test_gap_becomes_missing_marker(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,2010-03,3.0\n")
        s = load_series(p, Variable.RAINFALL)
        assert s.values == (1.0, None, 3.0)

    def test_unsorted_rows_accepted(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-02,2.0\nWP,2010-01,1.0\n")
        assert load_series(p, Variable.RAINFALL).values == (1.0, 2.0)

    def test_explicit_missing_value(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,2010-02,\n")
        assert load_series(p, Variable.RAINFALL).values == (1.0, None)

    def test_malformed_date_names_line(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,201X-02,2.0\n")
        with pytest.raises(IngestionError, match="line 3"):
            load_series(p, Variable.RAINFALL)

    def test_non_numeric_value_names_line(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,abc\n")
        with pytest.raises(IngestionError, match="line 2.*non-numeric"):
            load_series(p, Variable.RAINFALL)

    def test_duplicate_row_names_line(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,2010-01,2.0\n")
        with pytest.raises(IngestionError, match="line 3.*duplicate"):
            load_series(p, Variable.RAINFALL)

    def test_multi_region_table(self, tmp_path):
        p = tmp_path / "inc.csv"
        p.write_text("region,date,value\nWP,2010-01,5\nNB,2010-01,2\n")
        table = load_series_table(p, Variable.INCIDENCE)
        assert set(table) == {"WP", "NB"}
        with pytest.raises(IngestionError, match="2 regions"):
            load_series(p, Variable.INCIDENCE)
        assert load_series(p, Variable.INCIDENCE, region="NB").values == (2.0,)

    def test_negative_count_rejected(self, tmp_path):
        p = tmp_path / "inc.csv"
        p.write_text("region,date,value\nWP,2010-01,-3\n")
        with pytest.raises(IngestionError, match="negative"):
            load_series(p, Variable.INCIDENCE)

    def test_roundtrip_is_byte_normalized(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            "region,date,value\nWP,2010-02,2\nWP,2010-01,1.5\nWP,2010-03,\n"
        )
        s = load_series(src, Variable.RAINFALL)
        out = tmp_path / "out.csv"
        write_series(s, out)
        assert out.read_bytes() == (
            b"region,date,value\r\nWP,2010-01,1.5\r\nWP,2010-02,2\r\nWP,2010-03,\r\n"
        )
        assert load_series(out, Variable.RAINFALL) == s


class TestMobility:
    def test_unlisted_pairs_default_to_zero(self, tmp_path):
        p = tmp_path / "mob.csv"
        p.write_text("from,to,weight\nWP,NB,1.5\n")
        m = load_mobility(p)
        assert m.regions == ("NB", "WP")
        assert m.weights == ((0.0, 0.0), (1.5, 0.0))

    def test_negative_weight_rejected(self, tmp_path):
        p = tmp_path / "mob.csv"
        p.write_text("from,to,weight\nWP,NB,-1\n")
        with pytest.raises(IngestionError):
            load_mobility(p)


class TestAlign:
    def test_common_span_intersection(self):
        # 2010-01..2018-12 meets 2010-04..2019-03 on 105 months
        a = mk([1.0] * 108, MonthIndex(2010, 1))
        b = mk([2.0] * 108, MonthIndex(2010, 4), Variable.INCIDENCE)
        p = align(Panel(series={("WP", Variable.RAINFALL): a, ("WP", Variable.INCIDENCE): b}))
        assert p.span == (MonthIndex(2010, 4), MonthIndex(2018, 12))
        assert all(len(s) == 105 for s in p.series.values())

    def test_single_series_unchanged(self):
        a = mk([1.0, 2.0])
        p = align(Panel(series={("WP", Variable.RAINFALL): a}))
        assert p.series[("WP", Variable.RAINFALL)] == a
        assert p.span == (a.start, a.end)

    def test_disjoint_spans_error_lists_spans(self):
        a = mk([1.0] * 3, MonthIndex(2010, 1))
        b = mk([1.0] * 3, MonthIndex(2012, 1), Variable.INCIDENCE)
        with pytest.raises(AlignmentError, match="2010-01..2010-03"):
            align(Panel(series={("WP", Variable.RAINFALL): a, ("WP", Variable.INCIDENCE): b}))

    def test_idempotent(self):
        a = mk([1.0] * 10, MonthIndex(2010, 1))
        b = mk([2.0] * 10, MonthIndex(2010, 3), Variable.INCIDENCE)
        once = align(Panel(series={("WP", Variable.RAINFALL): a, ("WP", Variable.INCIDENCE): b}))
        twice = align(once)
        assert twice == once


class TestLagShift:
    def test_basic(self):
        assert lag_shift(mk([1, 2, 3]), 1).values == (None, 1, 2)

    def test_zero_is_identity(self):
        s = mk([1, 2, 3])
        assert lag_shift(s, 0) is s

    def test_two_months(self):
        assert lag_shift(mk([5, 7, 9, 11]), 2).values == (None, None, 5, 7)

    def test_lag_beyond_length_is_all_missing(self):
        assert lag_shift(mk([1, 2]), 5).values == (None, None)

    def test_negative_lag_rejected(self):
        with pytest.raises(ParameterError):
            lag_shift(mk([1]), -1)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.integers(0, 5),
        st.integers(0, 5),
    )
    def test_composition_matches_single_shift(self, values, a, b):
        s = mk(values)
        assert lag_shift(lag_shift(s, a), b).values == lag_shift(s, a + b).values
