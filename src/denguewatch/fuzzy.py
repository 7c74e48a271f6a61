"""Piecewise-linear membership functions mapping factor values to risk degrees.

Each function returns a degree in [0,1]: 0 = no transmission potential,
1 = fully suitable conditions. Between breakpoints evaluation is linear
interpolation; outside the breakpoint range the boundary degree extends
as a constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

#: Default shoulder width (fraction of the cutoff) for the rainfall trapezoid.
RAINFALL_SHOULDER = 0.25

#: Suitability band edges for average temperature (degC): inactive below 15
#: or above 36, fully suitable on 20..30.
TEMPERATURE_BREAKPOINTS = ((15.0, 0.0), (20.0, 1.0), (30.0, 1.0), (36.0, 0.0))

#: Default trapezoid for relative humidity (%).
HUMIDITY_BREAKPOINTS = ((40.0, 0.0), (60.0, 1.0), (90.0, 1.0), (100.0, 0.8))


@dataclass(frozen=True)
class PiecewiseLinearMF:
    """Membership function given as strictly x-increasing (x, y) breakpoints."""

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if len(pts) < 2:
            raise ParameterError("membership function needs at least 2 breakpoints")
        for (x0, y0), (x1, _) in zip(pts, pts[1:]):
            if not x1 > x0:
                raise ParameterError(f"breakpoint x values must strictly increase ({x0} >= {x1})")
        for x, y in pts:
            if not (math.isfinite(x) and 0.0 <= y <= 1.0):
                raise ParameterError(f"breakpoint ({x}, {y}) outside finite x, y in [0,1]")
        object.__setattr__(self, "_xs", np.array([x for x, _ in pts]))
        object.__setattr__(self, "_ys", np.array([y for _, y in pts]))

    def evaluate(self, x):
        """Membership degree for x (scalar or array-like)."""
        out = np.interp(x, self._xs, self._ys)
        if np.ndim(x) == 0:
            return float(out)
        return out

    __call__ = evaluate


def temperature_mf_default() -> PiecewiseLinearMF:
    """Trapezoid over the vector's survival temperature band."""
    return PiecewiseLinearMF(TEMPERATURE_BREAKPOINTS)


def humidity_mf_default() -> PiecewiseLinearMF:
    """Default humidity trapezoid; override via config when lab data differ."""
    return PiecewiseLinearMF(HUMIDITY_BREAKPOINTS)


def rainfall_mf_from_cutoffs(
    r_min: float, r_max: float, shoulder: float = RAINFALL_SHOULDER
) -> PiecewiseLinearMF:
    """Trapezoid with full risk on [r_min, r_max] and linear shoulders.

    The feet sit at r_min*(1-shoulder) and r_max*(1+shoulder): rainfall both
    creates and flushes breeding sites, so risk decays on both sides of the
    correlation-optimal band.
    """
    if not (0 <= r_min < r_max):
        raise ParameterError(f"need 0 <= r_min < r_max, got ({r_min}, {r_max})")
    if not 0 < shoulder:
        raise ParameterError(f"shoulder width must be > 0, got {shoulder}")
    pts = []
    left_foot = r_min * (1.0 - shoulder)
    if left_foot < r_min:
        pts.append((left_foot, 0.0))
    pts += [(r_min, 1.0), (r_max, 1.0), (r_max * (1.0 + shoulder), 0.0)]
    return PiecewiseLinearMF(tuple(pts))


def mobility_mf(c_max: float) -> PiecewiseLinearMF:
    """Linear ramp from 0 at no mobility risk to 1 at the normalizer c_max.

    Values above c_max clamp to 1 (constant extension).
    """
    if not (math.isfinite(c_max) and c_max > 0):
        raise ParameterError(f"mobility normalizer must be > 0, got {c_max}")
    return PiecewiseLinearMF(((0.0, 0.0), (c_max, 1.0)))
