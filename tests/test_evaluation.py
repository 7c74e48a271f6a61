import pytest
from hypothesis import given, strategies as st

from denguewatch.errors import IngestionError, ParameterError
from denguewatch.evaluation import (
    OutbreakCalendar,
    load_calendar,
    score,
    write_calendar,
)
from denguewatch.panel import MonthIndex

from reference import table2_fixture

SPAN = (MonthIndex(2010, 4), MonthIndex(2018, 12))  # 105 months


def months(*pairs):
    return tuple(MonthIndex(y, m) for y, m in pairs)


class TestScore:
    def test_identity_prediction_is_perfect(self):
        actual = OutbreakCalendar(months((2011, 3), (2014, 8)))
        r = score(actual.months, actual, SPAN)
        assert (r.matches, r.false_positives, r.false_negatives) == (2, 0, 0)
        assert r.error_rate == 0.0

    def test_off_by_one_matches_inside_default_window(self):
        actual = OutbreakCalendar(months((2011, 3),))
        r = score(months((2011, 4)), actual, SPAN)
        assert r.matches == 1 and r.error_rate == 0.0

    def test_off_by_two_misses(self):
        actual = OutbreakCalendar(months((2011, 3),))
        r = score(months((2011, 5)), actual, SPAN)
        assert r.matches == 0
        assert (r.false_positives, r.false_negatives) == (1, 1)

    def test_seven_mismatches_over_105_months(self):
        # 7 unmatched months in either direction over the 105-month span
        actual = OutbreakCalendar(months(*[(2012, m) for m in range(1, 8)]))
        r = score((), actual, SPAN, match_window=0)
        assert r.total_months == 105
        assert r.error_rate * 100 == pytest.approx(6.67, abs=0.01)

    def test_twelve_mismatches_over_105_months(self):
        actual = OutbreakCalendar(months(*[(2012, m) for m in range(1, 13)]))
        r = score((), actual, SPAN, match_window=0)
        assert r.error_rate * 100 == pytest.approx(11.43, abs=0.01)

    def test_one_to_one_matching(self):
        # two predictions crowd one actual month; only one may match
        actual = OutbreakCalendar(months((2013, 6),))
        r = score(months((2013, 5), (2013, 7)), actual, SPAN)
        assert r.matches == 1 and r.false_positives == 1

    def test_fp_fn_swap_under_role_reversal(self):
        a = months((2011, 2), (2013, 9), (2016, 4))
        b = months((2011, 2), (2015, 1))
        fwd = score(b, OutbreakCalendar(a), SPAN)
        rev = score(a, OutbreakCalendar(b), SPAN)
        assert fwd.matches == rev.matches
        assert (fwd.false_positives, fwd.false_negatives) == (
            rev.false_negatives,
            rev.false_positives,
        )

    def test_empty_against_empty(self):
        r = score((), OutbreakCalendar(()), SPAN)
        assert r.error_rate == 0.0 and r.matches == 0

    def test_prediction_outside_span_rejected(self):
        with pytest.raises(ParameterError, match="outside span"):
            score(months((2009, 1)), OutbreakCalendar(()), SPAN)

    def test_negative_window_rejected(self):
        with pytest.raises(ParameterError):
            score((), OutbreakCalendar(()), SPAN, match_window=-1)

    @given(
        st.lists(st.integers(0, 104), max_size=20),
        st.lists(st.integers(0, 104), max_size=20),
        st.integers(0, 2),
    )
    def test_widening_the_window_never_hurts(self, pred_k, act_k, w):
        start = SPAN[0]
        pred = [start + k for k in pred_k]
        act = OutbreakCalendar(tuple(start + k for k in act_k))
        narrow = score(pred, act, SPAN, match_window=w)
        wide = score(pred, act, SPAN, match_window=w + 1)
        assert wide.matches >= narrow.matches
        assert wide.error_rate <= narrow.error_rate


class TestCalendarIO:
    def test_roundtrip(self, tmp_path):
        cal = OutbreakCalendar(months((2012, 5), (2010, 9)))
        p = tmp_path / "cal.csv"
        write_calendar(cal, p)
        assert load_calendar(p) == cal

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "flagged.csv"
        p.write_text("date,rank,flag\n2012-05,0,front\n2013-06,1,near\n")
        assert load_calendar(p).months == months((2012, 5), (2013, 6))

    def test_missing_date_column_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("month,value\n2012-05,1\n")
        with pytest.raises(IngestionError, match="date"):
            load_calendar(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_calendar(tmp_path / "nope.csv")

    def test_short_row_is_a_line_numbered_error(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("flag,date\n1,2012-11\n1\n2,2013-02,extra\n")
        with pytest.raises(IngestionError) as info:
            load_calendar(p)
        assert str(info.value) == f"{p}: line 3: expected at least 2 fields"

    def test_blank_rows_and_empty_dates_skipped(self, tmp_path):
        p = tmp_path / "cal.csv"
        p.write_text("flag,date\n1,2012-11\n\n , \n1,\n \n2,2013-02,extra\n")
        assert load_calendar(p).months == months((2012, 11), (2013, 2))


class TestPublishedComparison:
    def test_cardinalities(self):
        actual, multicriteria, regression = table2_fixture()
        assert len(actual.months) == 23
        assert len(multicriteria) == 17
        assert len(regression) == 19

    def test_spot_months(self):
        actual, multicriteria, regression = table2_fixture()
        assert MonthIndex(2017, 7) in actual.months
        assert MonthIndex(2012, 6) not in multicriteria
        assert MonthIndex(2010, 8) in regression

    def test_all_months_inside_span(self):
        actual, multicriteria, regression = table2_fixture()
        lo, hi = SPAN
        for t in list(actual.months) + sorted(multicriteria) + sorted(regression):
            assert lo <= t <= hi
