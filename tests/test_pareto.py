import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from denguewatch.errors import ParameterError
from denguewatch.panel import MonthIndex
from denguewatch.pareto import (
    FlaggedMonth,
    detect_outbreaks,
    rank_points,
    reliability,
)
from denguewatch.risk import RiskMonth, RiskSeries

from reference import Point, pareto_front, with_ranks

T0 = MonthIndex(2010, 1)


def points(*coords):
    return [Point(T0 + i, d1, d2) for i, (d1, d2) in enumerate(coords)]


def dominates(a: Point, b: Point) -> bool:
    """Minimization dominance: a is no worse in both and better in one."""
    return a.d1 <= b.d1 and a.d2 <= b.d2 and (a.d1 < b.d1 or a.d2 < b.d2)


def brute_force_ranks(coords):
    """Independent O(n^2) dominator count over plain float pairs."""
    n = len(coords)
    ranks = [0] * n
    for i in range(n):
        a1, a2 = coords[i]
        for j in range(n):
            b1, b2 = coords[j]
            if b1 <= a1 and b2 <= a2 and (b1 < a1 or b2 < a2):
                ranks[i] += 1
    return ranks


# Subnormals are left out: squash() below rounds 5e-324 to 0.0, so on them it
# is not strictly increasing and may merge distinct points.
unit = st.floats(0, 1, allow_nan=False, allow_subnormal=False)
point_st = st.tuples(unit, unit)


class TestDominates:
    def test_strictly_better(self):
        a, b = points((0.2, 0.3), (0.4, 0.5))
        assert dominates(a, b) and not dominates(b, a)

    def test_equal_points_do_not_dominate(self):
        a, b = points((0.3, 0.3), (0.3, 0.3))
        assert not dominates(a, b) and not dominates(b, a)

    def test_incomparable(self):
        a, b = points((0.1, 0.9), (0.9, 0.1))
        assert not dominates(a, b) and not dominates(b, a)

    @given(point_st)
    def test_irreflexive(self, c):
        p = Point(T0, *c)
        assert not dominates(p, p)

    @given(point_st, point_st)
    def test_asymmetric(self, c1, c2):
        a, b = Point(T0, *c1), Point(T0 + 1, *c2)
        assert not (dominates(a, b) and dominates(b, a))

    @given(point_st, point_st, point_st)
    def test_transitive(self, c1, c2, c3):
        a = Point(T0, *c1)
        b = Point(T0 + 1, *c2)
        c = Point(T0 + 2, *c3)
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)


class TestRankPoints:
    def test_mutually_nondominated(self):
        assert rank_points([0, 1, 0.5], [1, 0, 0.5]).tolist() == [0, 0, 0]

    def test_single_dominator(self):
        assert rank_points([0, 1, 0.5, 0.6], [1, 0, 0.5, 0.6]).tolist() == [0, 0, 0, 1]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            coords = rng.random((200, 2))
            ranks = rank_points(coords[:, 0], coords[:, 1]).tolist()
            assert ranks == brute_force_ranks([tuple(xy) for xy in coords])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            rank_points([], [])


class TestParetoFront:
    def test_single_point(self):
        front = pareto_front(points((0.4, 0.4)))
        assert len(front) == 1 and front[0].rank == 0

    def test_chain_keeps_only_minimum(self):
        front = pareto_front(points((0.5, 0.5), (0.4, 0.4), (0.3, 0.3), (0.2, 0.2)))
        assert [(p.d1, p.d2) for p in front] == [(0.2, 0.2)]

    def test_ties_enter_front_together(self):
        front = pareto_front(points((0.2, 0.2), (0.2, 0.2), (0.5, 0.1)))
        assert len(front) == 3

    def test_front_sorted_by_month(self):
        front = pareto_front(points((0.1, 0.9), (0.9, 0.1), (0.5, 0.5)))
        months = [p.t for p in front]
        assert months == sorted(months)

    @given(st.lists(point_st, min_size=1, max_size=60))
    def test_front_properties(self, coords):
        pts = [Point(T0 + i, *c) for i, c in enumerate(coords)]
        ranked = with_ranks(pts)
        front = pareto_front(pts)
        front_keys = {p.t for p in front}
        for p in ranked:
            dominators = [q for q in ranked if dominates(q, p)]
            if p.t in front_keys:
                assert not dominators
            else:
                assert any(q.t in front_keys for q in dominators)

    @given(st.lists(point_st, min_size=2, max_size=40))
    def test_adding_dominated_point_preserves_front(self, coords):
        pts = [Point(T0 + i, *c) for i, c in enumerate(coords)]
        front = pareto_front(pts)
        anchor = front[0]
        worse = Point(T0 + len(pts), min(anchor.d1 + 0.1, 1.0001), min(anchor.d2 + 0.1, 1.0001))
        if not dominates(anchor, worse):
            return
        assert {p.t for p in pareto_front(pts + [worse])} == {p.t for p in front}

    @given(st.lists(point_st, min_size=1, max_size=40))
    def test_monotone_transform_preserves_membership(self, coords):
        pts = [Point(T0 + i, *c) for i, c in enumerate(coords)]

        def squash(x):  # strictly increasing on [0, 1]
            return x**3 + 0.5 * x

        mapped = [Point(p.t, squash(p.d1), squash(p.d2)) for p in pts]
        assert {p.t for p in pareto_front(pts)} == {p.t for p in pareto_front(mapped)}


def risk_series(coords):
    months = tuple(
        RiskMonth(T0 + i, 1 - d1, 1 - d2, d1, d2) for i, (d1, d2) in enumerate(coords)
    )
    return RiskSeries(region="WP", months=months)


class TestNearFront:
    """The near-front months that detect_outbreaks flags "near"."""

    def test_threshold_zero_invalid(self):
        with pytest.raises(ParameterError):
            detect_outbreaks(risk_series([(0.1, 0.1)]), rank_threshold=0)

    def test_all_front_gives_empty(self):
        flagged = detect_outbreaks(risk_series([(0, 1), (1, 0)]), rank_threshold=2)
        assert [f.flag for f in flagged] == ["front", "front"]

    def test_rank_window(self):
        # chain: ranks 0, 1, 2, 3
        coords = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (0.4, 0.4)]
        flagged = detect_outbreaks(risk_series(coords), rank_threshold=2)
        near = [f for f in flagged if f.flag == "near"]
        assert [f.rank for f in near] == [1, 2]
        assert [f.t for f in near] == [T0 + 1, T0 + 2]


class TestDetectOutbreaks:
    def test_identical_objectives_all_front(self):
        flagged = detect_outbreaks(risk_series([(0.4, 0.4)] * 5))
        assert len(flagged) == 5
        assert all(f.flag == "front" and f.rank == 0 for f in flagged)

    def test_ideal_point_reliability_one(self):
        flagged = detect_outbreaks(risk_series([(0.0, 0.0), (0.5, 0.5)]))
        best = flagged[0]
        assert best.reliability == pytest.approx(1.0)

    def test_reliability_formula(self):
        assert reliability(1.0, 1.0) == pytest.approx(0.0)
        assert reliability(0.3, 0.4) == pytest.approx(1 - 0.5 / math.sqrt(2))

    def test_output_sorted_and_flag_split(self):
        coords = [(0.1, 0.5), (0.5, 0.1), (0.2, 0.6), (0.9, 0.9), (0.95, 0.95), (0.99, 0.99)]
        flagged = detect_outbreaks(risk_series(coords), rank_threshold=2)
        months = [f.t for f in flagged]
        assert months == sorted(months)
        flags = {str(f.t): f.flag for f in flagged}
        assert flags["2010-01"] == "front" and flags["2010-02"] == "front"
        assert flags["2010-03"] == "near"

    def test_flagged_month_attributes_and_immutability(self):
        (f,) = detect_outbreaks(risk_series([(0.3, 0.4)]))
        assert type(f) is FlaggedMonth
        assert (f.t, f.d1, f.d2, f.rank, f.flag) == (T0, 0.3, 0.4, 0, "front")
        assert f.reliability == reliability(0.3, 0.4)
        with pytest.raises(AttributeError):
            f.rank = 1
        assert f == (T0, 0.3, 0.4, 0, "front", f.reliability)  # a named tuple: equal to a plain one
