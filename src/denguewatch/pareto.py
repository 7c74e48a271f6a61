"""Dominance ranking, Pareto frontier extraction, and outbreak flagging.

Both objectives are minimized; rank is the number of dominating points
(degree of dominance), so rank 0 is exactly the Pareto optimal frontier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .panel import MonthIndex
from .risk import RiskSeries

#: Near-front months keep ranks 1..this by default.
DEFAULT_RANK_THRESHOLD = 2


@dataclass(frozen=True)
class ObjectivePoint:
    t: MonthIndex
    d1: float
    d2: float
    rank: int = -1  # -1 = not yet ranked


@dataclass(frozen=True)
class FlaggedMonth:
    t: MonthIndex
    d1: float
    d2: float
    rank: int
    flag: str  # "front" or "near"
    reliability: float


def rank_points(points) -> list:
    """Assign each point its dominator count.

    Vectorized over the full pairwise comparison; exactly equal points tie
    at the same rank (an equal point does not dominate).
    """
    points = list(points)
    if not points:
        raise ParameterError("rank_points requires a nonempty point set")
    d1 = np.array([p.d1 for p in points])
    d2 = np.array([p.d2 for p in points])
    le = (d1[:, None] <= d1[None, :]) & (d2[:, None] <= d2[None, :])
    strict = (d1[:, None] < d1[None, :]) | (d2[:, None] < d2[None, :])
    counts = (le & strict).sum(axis=0)
    return [replace(p, rank=int(c)) for p, c in zip(points, counts)]


def pareto_front(points) -> list:
    """The rank-0 (non-dominated) points, sorted by month."""
    ranked = rank_points(points)
    return sorted((p for p in ranked if p.rank == 0), key=lambda p: p.t)


def reliability(d1: float, d2: float) -> float:
    """1 minus the distance to the ideal point, normalized by the unit-square
    diagonal; 1.0 at (0, 0)."""
    return 1.0 - math.hypot(d1, d2) / math.sqrt(2.0)


def detect_outbreaks(
    risk: RiskSeries, rank_threshold: int = DEFAULT_RANK_THRESHOLD
) -> list:
    """Flag front and near-front months of a risk series, chronologically.

    Each flagged month carries a reliability score derived from its distance
    to the ideal point.
    """
    if rank_threshold < 1:
        raise ParameterError(f"rank_threshold must be >= 1, got {rank_threshold}")
    points = [ObjectivePoint(m.t, m.d1, m.d2) for m in risk.months]
    ranked = rank_points(points)
    flagged = []
    for p in ranked:
        if p.rank == 0:
            flag = "front"
        elif p.rank <= rank_threshold:
            flag = "near"
        else:
            continue
        flagged.append(
            FlaggedMonth(p.t, p.d1, p.d2, p.rank, flag, reliability(p.d1, p.d2))
        )
    flagged.sort(key=lambda f: f.t)
    return flagged
