"""Dominance ranking and outbreak flagging.

Both objectives are minimized; rank is the number of dominating points
(degree of dominance), so rank 0 is exactly the Pareto optimal frontier.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .panel import MonthIndex
from .risk import RiskSeries

#: Near-front months keep ranks 1..this by default.
DEFAULT_RANK_THRESHOLD = 2


class FlaggedMonth(NamedTuple):
    t: MonthIndex
    d1: float
    d2: float
    rank: int
    flag: str  # "front" or "near"
    reliability: float


def rank_points(d1, d2) -> np.ndarray:
    """Each point's dominator count, for points ``(d1[i], d2[i])``.

    Vectorized over the full pairwise comparison; exactly equal points tie
    at the same rank (an equal point does not dominate).
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    if not d1.size:
        raise ParameterError("rank_points requires a nonempty point set")
    le = (d1[:, None] <= d1[None, :]) & (d2[:, None] <= d2[None, :])
    strict = (d1[:, None] < d1[None, :]) | (d2[:, None] < d2[None, :])
    return (le & strict).sum(axis=0)


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
    ranks = rank_points([m.d1 for m in risk.months], [m.d2 for m in risk.months])
    flagged = []
    for m, rank in zip(risk.months, ranks.tolist()):
        if rank == 0:
            flag = "front"
        elif rank <= rank_threshold:
            flag = "near"
        else:
            continue
        flagged.append(FlaggedMonth(m.t, m.d1, m.d2, rank, flag, reliability(m.d1, m.d2)))
    flagged.sort(key=lambda f: f.t)
    return flagged
