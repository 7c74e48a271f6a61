import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from denguewatch.errors import AlignmentError, IngestionError, ParameterError
from denguewatch.panel import (
    MobilityMatrix,
    MonthIndex,
    MonthlySeries,
    Panel,
    Variable,
    align,
    lag_shift,
    load_series_table,
    load_mobility,
    write_series,
)

from reference import load_series, values_of


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
        with pytest.raises(IngestionError, match=r"^month must be in 1..12, got 0$"):
            MonthIndex.parse("2010-00")  # input text: the loaders add file and line

    @given(st.integers(1990 * 12, 2050 * 12), st.integers(-120, 120))
    def test_add_then_subtract_is_identity(self, ordinal, k):
        t = MonthIndex.from_ordinal(ordinal)
        assert (t + k) - k == t
        assert (t + k) - t == k


class TestSeriesChecks:
    """Construction rejects the first bad value in month order, by name."""

    def test_gaps_and_finite_values_accepted(self):
        s = mk([1.0, None, -2.0, None])
        assert values_of(s) == (1.0, None, -2.0, None)
        np.testing.assert_array_equal(s.values, [1.0, np.nan, -2.0, np.nan])

    def test_values_are_read_only_and_to_array_copies(self):
        source = np.array([1.0, 2.0])
        s = mk(source)
        source[0] = 5.0  # the series holds its own copy
        assert values_of(s) == (1.0, 2.0)
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 3.0

    def test_nan_marks_a_missing_month(self):
        assert mk([1.0, float("nan")]) == mk([1.0, None])
        assert mk([1.0, None]) != mk([1.0, 0.0])
        assert mk([1.0, None]) != mk([1.0, None], region="NB")

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParameterError, match=r"^non-finite value at 2010-03 in WP/rainfall_mm$"):
            mk([1.0, None, bad, 2.0])

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError, match=r"^negative incidence_count at 2010-02 in WP$"):
            mk([1.0, -1.0, float("nan")], variable=Variable.INCIDENCE)

    def test_first_bad_month_named(self):
        with pytest.raises(ParameterError, match="non-finite value at 2010-02"):
            mk([None, float("inf"), -1.0], variable=Variable.INCIDENCE)

    def test_non_number_raises_type_error(self):
        with pytest.raises(TypeError):
            mk([1.0, object()])

    def test_non_numeric_text_raises_value_error(self):
        with pytest.raises(ValueError, match="could not convert string to float"):
            mk([1.0, "x"])

    def test_mobility_weights_checked(self):
        m = MobilityMatrix(("A", "B"), ((0.0, 1.5), (0.0, 0.0)))
        assert m.weights.tolist() == [[0.0, 1.5], [0.0, 0.0]]
        with pytest.raises(ValueError, match="read-only"):
            m.weights[0, 0] = 1.0
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ParameterError, match="finite and >= 0"):
                MobilityMatrix(("A", "B"), ((0.0, bad), (0.0, 0.0)))
        with pytest.raises(ParameterError, match="square"):
            MobilityMatrix(("A", "B"), ((0.0, 1.0),))


class TestLoadSeries:
    def test_direct_parse(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,120.5\nWP,2010-02,88.0\n")
        s = load_series(p, Variable.RAINFALL)
        assert s.start == MonthIndex(2010, 1)
        assert values_of(s) == (120.5, 88.0)

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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        p = tmp_path / "rain.csv"
        os.mkfifo(p)
        writer = threading.Thread(target=p.write_text, args=("region,date,value\nWP,2010-01,1.5\n",))
        writer.start()
        try:
            s = load_series(p, Variable.RAINFALL)
        finally:  # a reader end, so that the writer never waits for one
            fd = os.open(p, os.O_RDONLY | os.O_NONBLOCK)
            writer.join()
            os.close(fd)
        assert (s.start, values_of(s)) == (MonthIndex(2010, 1), (1.5,))

    def test_gap_becomes_missing_marker(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,2010-03,3.0\n")
        s = load_series(p, Variable.RAINFALL)
        assert values_of(s) == (1.0, None, 3.0)

    def test_unsorted_rows_accepted(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-02,2.0\nWP,2010-01,1.0\n")
        assert values_of(load_series(p, Variable.RAINFALL)) == (1.0, 2.0)

    def test_explicit_missing_value(self, tmp_path):
        p = tmp_path / "rain.csv"
        p.write_text("region,date,value\nWP,2010-01,1.0\nWP,2010-02,\n")
        assert values_of(load_series(p, Variable.RAINFALL)) == (1.0, None)

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
        assert values_of(load_series(p, Variable.INCIDENCE, region="NB")) == (2.0,)

    def test_series_are_read_only_views_of_one_array(self, tmp_path):
        p = tmp_path / "inc.csv"
        p.write_text("region,date,value\nWP,2010-02,5\nNB,2010-01,2\nWP,2010-01,4\nNB,2010-03,1\n")
        table = load_series_table(p, Variable.INCIDENCE)
        wp, nb = table["WP"], table["NB"]
        assert values_of(wp) == (4.0, 5.0) and values_of(nb) == (2.0, None, 1.0)
        assert wp.values.base is nb.values.base is not None
        assert not wp.values.flags.writeable

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
        write_series([s], out)
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
        assert m.weights.tolist() == [[0.0, 0.0], [1.5, 0.0]]

    def test_from_pairs(self):
        m = MobilityMatrix.from_pairs({("WP", "NB"): 1.5, ("NB", "WP"): 2, ("C", "C"): 0.5})
        assert m.regions == ("C", "NB", "WP")
        assert m.weights.tolist() == [[0.5, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 1.5, 0.0]]
        assert MobilityMatrix.from_pairs({}) == MobilityMatrix((), ())

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

    def test_equal_spans_copy_nothing(self):
        a = mk([1.0] * 5, MonthIndex(2010, 1))
        b = mk([2.0] * 5, MonthIndex(2010, 1), Variable.INCIDENCE)
        p = align(Panel(series={("WP", Variable.RAINFALL): a, ("WP", Variable.INCIDENCE): b}))
        assert p.series[("WP", Variable.RAINFALL)] is a
        assert p.series[("WP", Variable.INCIDENCE)] is b

    def test_slice(self):
        a = mk([1.0, 2.0, None, 4.0], MonthIndex(2010, 1))
        assert a.slice(MonthIndex(2010, 1), MonthIndex(2010, 4)) is a
        assert a.slice(MonthIndex(2010, 2), MonthIndex(2010, 3)) == mk([2.0, None], MonthIndex(2010, 2))
        with pytest.raises(AlignmentError, match="exceeds span"):
            a.slice(MonthIndex(2009, 12), MonthIndex(2010, 2))
        with pytest.raises(AlignmentError, match="exceeds span"):
            a.slice(MonthIndex(2010, 2), MonthIndex(2010, 5))

    def test_slice_is_a_read_only_view_equal_to_a_new_series(self):
        a = mk([1.0, 2.0, None, 4.0, 5.0], MonthIndex(2010, 1), Variable.INCIDENCE)
        view = a.slice(MonthIndex(2010, 2), MonthIndex(2010, 4))
        assert np.shares_memory(view.values, a.values)
        with pytest.raises(ValueError, match="read-only"):
            view.values[0] = 0.0
        with pytest.raises(AttributeError):
            view.start = MonthIndex(2010, 1)
        fresh = mk([2.0, None, 4.0], MonthIndex(2010, 2), Variable.INCIDENCE)
        assert view == fresh and fresh == view
        assert (type(view), view.end, len(view)) == (MonthlySeries, MonthIndex(2010, 4), 3)
        inner = view.slice(MonthIndex(2010, 3), MonthIndex(2010, 4))
        assert np.shares_memory(inner.values, a.values)
        assert inner == mk([None, 4.0], MonthIndex(2010, 3), Variable.INCIDENCE)

    @pytest.mark.parametrize("bad, message", [
        (np.inf, "non-finite value at 2010-02 in WP/incidence_count"),
        (-1.0, "negative incidence_count at 2010-02 in WP"),
    ])
    def test_read_only_array_is_kept_and_still_checked(self, bad, message):
        """A read-only float array, such as a loader's view, is not copied,
        and a new series on one is checked all the same."""
        values = np.array([1.0, 2.0])
        values.flags.writeable = False
        assert MonthlySeries("WP", Variable.INCIDENCE, MonthIndex(2010, 1), values).values is values
        values = np.array([1.0, bad])
        values.flags.writeable = False
        with pytest.raises(ParameterError, match=f"^{message}$"):
            MonthlySeries("WP", Variable.INCIDENCE, MonthIndex(2010, 1), values)

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
        assert values_of(lag_shift(mk([1, 2, 3]), 1)) == (None, 1.0, 2.0)

    def test_zero_is_identity(self):
        s = mk([1, 2, 3])
        assert lag_shift(s, 0) is s

    def test_two_months(self):
        assert values_of(lag_shift(mk([5, 7, 9, 11]), 2)) == (None, None, 5.0, 7.0)

    def test_lag_beyond_length_is_all_missing(self):
        assert values_of(lag_shift(mk([1, 2]), 5)) == (None, None)

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
        assert values_of(lag_shift(lag_shift(s, a), b)) == values_of(lag_shift(s, a + b))
