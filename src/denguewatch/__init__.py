"""Dengue outbreak month detection from monthly climate, mobility, and
incidence panels via two-objective Pareto closeness, with a linear-regression
baseline for comparison."""

from .panel import MonthIndex, MonthlySeries, MobilityMatrix, Panel, Variable
from .fuzzy import PiecewiseLinearMF
from .risk import Calibration, Lags, MembershipFunctions, RiskSeries
from .pareto import detect_outbreaks, rank_points
from .evaluation import EvalResult, OutbreakCalendar, score

__version__ = "0.1.0"

__all__ = [
    "Calibration",
    "EvalResult",
    "Lags",
    "MembershipFunctions",
    "MobilityMatrix",
    "MonthIndex",
    "MonthlySeries",
    "OutbreakCalendar",
    "Panel",
    "PiecewiseLinearMF",
    "RiskSeries",
    "Variable",
    "detect_outbreaks",
    "rank_points",
    "score",
    "__version__",
]
