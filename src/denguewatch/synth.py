"""Deterministic synthetic panel generator with planted ground truth.

The generator plants outbreak months and wires every factor series so the
whole chain is recoverable: each factor enters its ideal band exactly at the
planted lag before an outbreak, the neighbor's infections lead the target by
the mobility lag, and last month's susceptible/infected densities peak right
before each outbreak. Climate series carry a seasonal sinusoid on top and
stay inside plausible monthly ranges (rainfall 3.2-794.8 mm, humidity
62-95 %, temperature 22-33 degC).

Randomness comes from a self-contained splitmix64 stream so fixtures are
bit-identical across platforms for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

from .errors import ConfigError
from .evaluation import OutbreakCalendar
from .panel import (
    MobilityMatrix,
    MonthIndex,
    MonthlySeries,
    Panel,
    Variable,
    align,
)
from .risk import Lags

TARGET_REGION = "WP"
NEIGHBOR_REGION = "NB"

TARGET_POPULATION = 1000.0
NEIGHBOR_POPULATION = 500.0

RAIN_RANGE = (3.2, 794.8)
TEMP_RANGE = (22.0, 33.0)
HUMID_RANGE = (62.0, 95.0)

_PULSE_HALF_WIDTH = 3  # months from pulse center to zero
_INCIDENCE_BASE, _INCIDENCE_AMP = 20.0, 180.0
_NEIGHBOR_BASE, _NEIGHBOR_AMP = 10.0, 90.0

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Pinned 64-bit generator (splitmix64) so streams never depend on the
    platform's RNG implementation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._spare_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal via Box-Muller."""
        if self._spare_normal is not None:
            z, self._spare_normal = self._spare_normal, None
            return z
        u1 = self.uniform()
        while u1 == 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)


def default_outbreak_offsets(months: int) -> tuple:
    """Irregularly spaced pulse centers (avoids 12-month periodicity)."""
    steps = (16, 17, 19, 15, 18)
    offsets = []
    pos = 10
    i = 0
    while pos <= months - 3 and len(offsets) < 5:
        offsets.append(pos)
        pos += steps[i % len(steps)]
        i += 1
    return tuple(offsets)


@dataclass(frozen=True)
class SynthConfig:
    months: int = 96
    seed: int = 20180401
    start: MonthIndex = MonthIndex(2012, 1)
    planted_lags: Lags = field(default_factory=Lags)
    rain_band: tuple = (150.0, 350.0)
    outbreak_months: tuple = ()  # empty = derive from default offsets
    noise_scale: float = 0.0

    def __post_init__(self):
        if self.months < 24:
            raise ConfigError(f"months must be >= 24, got {self.months}")
        if max(astuple(self.planted_lags)) > 6:
            raise ConfigError("planted lags must be <= 6 months")
        if not (0 <= self.rain_band[0] < self.rain_band[1]):
            raise ConfigError(f"invalid rain band {self.rain_band}")
        if self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")

    def outbreak_offsets(self) -> tuple:
        if self.outbreak_months:
            offsets = tuple(sorted(t - self.start for t in self.outbreak_months))
        else:
            offsets = default_outbreak_offsets(self.months)
        max_lag = max(astuple(self.planted_lags))
        for o in offsets:
            if o < max_lag + 2:
                raise ConfigError(
                    f"outbreak month {self.start + o} falls before the max planted lag"
                )
            if o > self.months - 3:
                raise ConfigError(f"outbreak month {self.start + o} too close to the end")
        for a, b in zip(offsets, offsets[1:]):
            if b - a < 2 * _PULSE_HALF_WIDTH + 1:
                raise ConfigError(
                    f"outbreak months {self.start + a} and {self.start + b} overlap"
                )
        return offsets


def _pulse(offsets, x: float) -> float:
    """Triangular pulse train, 1 at each outbreak center, 0 beyond 3 months."""
    best = 0.0
    for o in offsets:
        best = max(best, 1.0 - abs(x - o) / _PULSE_HALF_WIDTH)
    return max(0.0, best)


def _clip(x, lo, hi):
    return max(lo, min(hi, x))


def generate(config: SynthConfig):
    """Build an aligned two-region panel plus its ground-truth calendar."""
    offsets = config.outbreak_offsets()
    lags = config.planted_lags
    n = config.months
    rng = SplitMix64(config.seed)
    rain_center = 0.5 * (config.rain_band[0] + config.rain_band[1])

    def seasonal(i, phase):
        return 0.5 * (1.0 + math.sin(2.0 * math.pi * i / 12.0 + phase))

    temp, humid, rain, inc, inc_nb, sus = [], [], [], [], [], []
    rain_extras = (420.0, 30.0, 520.0, 90.0)
    extra_slot = 0
    for i in range(n):
        p_t = _pulse(offsets, i + lags.temp)
        p_h = _pulse(offsets, i + lags.humid)
        p_r = _pulse(offsets, i + lags.rain)
        p_m = _pulse(offsets, i + lags.mobility)
        p_0 = _pulse(offsets, i)

        temp_i = 33.0 - 3.0 * max(p_t, 0.15 * seasonal(i, 0.3))
        humid_i = 90.0 + 5.0 * (1.0 - max(p_h, 0.2 * seasonal(i, 1.7)))
        base_rain = 60.0 + 25.0 * seasonal(i, 2.9)
        rain_i = base_rain + (rain_center - base_rain) * p_r
        # sporadic dry/wet excursions, at least 4 months from every rain-pulse centre
        rain_clear = all(abs(i + lags.rain - o) > _PULSE_HALF_WIDTH for o in offsets)
        if rain_clear and p_0 == 0.0 and i % 9 == 4:
            rain_i = rain_extras[extra_slot % len(rain_extras)]
            extra_slot += 1
        inc_i = _INCIDENCE_BASE + _INCIDENCE_AMP * p_0
        inc_nb_i = _NEIGHBOR_BASE + _NEIGHBOR_AMP * p_m
        sus_i = TARGET_POPULATION * (
            0.95 if (i + 1) in offsets else 0.3
        )

        if config.noise_scale > 0:
            s = config.noise_scale
            temp_i += s * 3.0 * rng.normal()
            humid_i += s * 5.0 * rng.normal()
            rain_i += s * (rain_center - 60.0) * rng.normal()
            inc_i += s * _INCIDENCE_AMP * rng.normal()
            inc_nb_i += s * _NEIGHBOR_AMP * rng.normal()

        temp.append(_clip(temp_i, *TEMP_RANGE))
        humid.append(_clip(humid_i, *HUMID_RANGE))
        rain.append(_clip(rain_i, *RAIN_RANGE))
        inc.append(max(0.0, inc_i))
        inc_nb.append(max(0.0, inc_nb_i))
        sus.append(sus_i)

    start = config.start
    columns = (
        (TARGET_REGION, Variable.RAINFALL, rain),
        (TARGET_REGION, Variable.TEMPERATURE, temp),
        (TARGET_REGION, Variable.HUMIDITY, humid),
        (TARGET_REGION, Variable.INCIDENCE, inc),
        (TARGET_REGION, Variable.SUSCEPTIBLE, sus),
        (TARGET_REGION, Variable.POPULATION, [TARGET_POPULATION] * n),
        (NEIGHBOR_REGION, Variable.INCIDENCE, inc_nb),
        (NEIGHBOR_REGION, Variable.POPULATION, [NEIGHBOR_POPULATION] * n),
    )
    panel = Panel(
        series={
            (region, variable): MonthlySeries(region, variable, start, values)
            for region, variable, values in columns
        },
        mobility=MobilityMatrix.from_pairs({(TARGET_REGION, NEIGHBOR_REGION): 1.0}),
    )
    calendar = OutbreakCalendar(tuple(start + o for o in offsets))
    return align(panel), calendar
