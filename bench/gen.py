"""Seeded inputs for the benchmark workloads.

Nothing here imports ``denguewatch``: the program only ever sees the files
(``report-national``) or the synthetic configuration (``rolling-origin``)
that these functions produce.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

START_YEAR, START_MONTH = 2010, 1

NATIONAL_TARGETS = 100  # regions with every series; each op targets one
NATIONAL_MONTHS = 120
FEEDER_WEIGHT = 1.0  # target <- its own feeder region
BACKGROUND_WEIGHT = (0.0005, 0.0015)  # every other ordered pair

RAIN_CENTER = 250.0  # middle of the planted wet band
RAIN_EXTRAS = (420.0, 30.0, 520.0, 90.0)  # dry/wet excursions clear of pulses
PULSE_HALF_WIDTH = 3
MAX_LAG = 6  # the program's default lag search window

SERIES_FILES = {
    "rainfall": "rainfall.csv",
    "temperature": "temperature.csv",
    "humidity": "humidity.csv",
    "incidence": "incidence.csv",
    "susceptible": "susceptible.csv",
    "population": "population.csv",
}


def month_label(offset: int) -> str:
    n = START_YEAR * 12 + START_MONTH - 1 + offset
    return f"{n // 12:04d}-{n % 12 + 1:02d}"


def pulse(offsets, x: np.ndarray) -> np.ndarray:
    """Triangular pulse train: 1 at each planted month, 0 from 3 months away."""
    out = np.zeros_like(x, dtype=float)
    for o in offsets:
        out = np.maximum(out, 1.0 - np.abs(x - o) / PULSE_HALF_WIDTH)
    return out


def outbreak_offsets(rng: np.random.Generator, months: int, first_min: int) -> tuple:
    """Irregular gaps of 15-21 months, so no 12-month period lines them up."""
    offsets = []
    pos = int(rng.integers(first_min, first_min + 6))
    while pos <= months - 4:
        offsets.append(pos)
        pos += int(rng.integers(15, 22))
    return tuple(offsets)


def planted_lags(rng: np.random.Generator) -> dict:
    return {
        "rain": int(rng.integers(1, 4)),
        "temp": int(rng.integers(1, 5)),
        "humid": int(rng.integers(1, 4)),
        "mobility": int(rng.integers(1, 3)),
    }


@dataclass
class NationalPanel:
    """A wide panel: targets T000.. with every series, feeders F000.. with
    incidence and population only. Feeder i leads target i's outbreaks by
    the planted mobility lag; every other pair carries a weak weight."""

    regions: list  # target names, then feeder names
    series: dict  # variable -> {region: float array over the months}
    weights: np.ndarray  # weights[i, j]: from regions[i] to regions[j]
    lags: dict  # target -> planted lag dict
    outbreaks: dict  # target -> planted month offsets
    order: list  # target of op k is order[k % len(order)]


def national_panel(seed: int) -> NationalPanel:
    rng = np.random.default_rng([seed, 2])
    n, m = NATIONAL_TARGETS, NATIONAL_MONTHS
    targets = [f"T{i:03d}" for i in range(n)]
    feeders = [f"F{i:03d}" for i in range(n)]
    regions = targets + feeders
    x = np.arange(m, dtype=float)
    series = {name: {} for name in SERIES_FILES}
    lags, outbreaks = {}, {}
    for target, feeder in zip(targets, feeders):
        lag = planted_lags(rng)
        offsets = outbreak_offsets(rng, m, first_min=8)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        pop = float(rng.integers(800, 1201))
        feeder_pop = float(rng.integers(400, 601))

        def seasonal(ph):
            return 0.5 * (1.0 + np.sin(2.0 * np.pi * x / 12.0 + ph))

        p_rain = pulse(offsets, x + lag["rain"])
        p_now = pulse(offsets, x)
        temp = 33.0 - 3.0 * np.maximum(pulse(offsets, x + lag["temp"]), 0.15 * seasonal(phase[0]))
        humid = 90.0 + 5.0 * (1.0 - np.maximum(pulse(offsets, x + lag["humid"]), 0.2 * seasonal(phase[1])))
        base = 60.0 + 25.0 * seasonal(phase[2])
        rain = base + (RAIN_CENTER - base) * p_rain
        # An excursion pairs with base incidence at every searched lag, so it
        # lowers the correlation at all of them alike and moves no argmax.
        clear = np.all([pulse(offsets, x + k) == 0.0 for k in range(MAX_LAG + 1)], axis=0)
        slots = np.flatnonzero(clear & (x % 9 == 4))
        rain[slots] = np.resize(RAIN_EXTRAS, slots.size)
        series["rainfall"][target] = rain
        series["temperature"][target] = temp
        series["humidity"][target] = humid
        series["incidence"][target] = (20.0 + 180.0 * p_now) * pop / 1000.0
        prev = np.isin(x + 1, offsets)
        series["susceptible"][target] = np.where(prev, 0.95, 0.3) * pop
        series["population"][target] = np.full(m, pop)
        series["incidence"][feeder] = (10.0 + 90.0 * pulse(offsets, x + lag["mobility"])) * feeder_pop / 500.0
        series["population"][feeder] = np.full(m, feeder_pop)
        lags[target], outbreaks[target] = lag, offsets

    weights = rng.uniform(*BACKGROUND_WEIGHT, size=(2 * n, 2 * n))
    np.fill_diagonal(weights, 0.0)
    for i in range(n):
        weights[i, n + i] = FEEDER_WEIGHT
    order = [targets[i] for i in rng.permutation(n)]
    return NationalPanel(regions, series, weights, lags, outbreaks, order)


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def write_national(panel: NationalPanel, out: Path) -> dict:
    """Write the panel as the program's CSV inputs; returns name -> path."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, by_region in panel.series.items():
        path = out / SERIES_FILES[name]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["region", "date", "value"])
            for region in sorted(by_region):
                values = by_region[region]
                w.writerows(
                    (region, month_label(k), _fmt(v)) for k, v in enumerate(values)
                )
        paths[name] = path
    path = out / "mobility.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["from", "to", "weight"])
        for i, a in enumerate(panel.regions):
            for j, b in enumerate(panel.regions):
                if panel.weights[i, j] != 0.0:
                    w.writerow((a, b, _fmt(panel.weights[i, j])))
    paths["mobility"] = path
    for target, offsets in panel.outbreaks.items():
        with open(out / f"outbreaks-{target}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.write("date\n" + "".join(month_label(o) + "\n" for o in offsets))
    return paths


ROLLING_MONTHS = 132
ROLLING_WARMUP = 72  # observed months at the first origin


def _excursions_clear(offsets, rain_lag: int, months: int) -> bool:
    """``synth.generate`` puts a rainfall excursion at each month i = 4 (mod 9)
    that lies outside the rain and incidence pulses. True when every such
    month also pairs with base incidence at every searched lag, so that the
    planted lags are the unique argmax of the lag search."""
    x = np.arange(months, dtype=float)
    excursion = (pulse(offsets, x + rain_lag) == 0) & (pulse(offsets, x) == 0) & (x % 9 == 4)
    clear = np.all([pulse(offsets, x + k) == 0 for k in range(MAX_LAG + 1)], axis=0)
    return not np.any(excursion & ~clear)


def rolling_plan(seed: int, sweep: int) -> dict:
    """Synthetic-panel settings for one sweep of the rolling re-run: seeded
    planted lags and outbreak months 15-21 months apart over the whole span."""
    rng = np.random.default_rng([seed, 3, sweep])
    lag = planted_lags(rng)
    offsets = []
    pos = max(lag.values()) + int(rng.integers(4, 10))
    while True:
        while pos <= ROLLING_MONTHS - 4 and not _excursions_clear(
            offsets + [pos], lag["rain"], ROLLING_MONTHS
        ):
            pos += 1
        if pos > ROLLING_MONTHS - 4:
            break
        offsets.append(pos)
        pos += int(rng.integers(15, 22))
    return {
        "months": ROLLING_MONTHS,
        "lags": lag,
        "outbreak_offsets": tuple(offsets),
        "outbreak_months": [month_label(o) for o in offsets],
        "start": month_label(0),
    }
