"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``denguewatch``. The objective space is re-derived with
numpy from the inputs and the emitted calibration, using the membership
shapes documented in ``denguewatch.fuzzy``; ranks come from a direct
dominance count; planted months are matched by a matcher of our own.
Every check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
MATCH_WINDOW = 1

# Membership shapes as documented in denguewatch.fuzzy.
TEMPERATURE_BREAKPOINTS = ((15.0, 0.0), (20.0, 1.0), (30.0, 1.0), (36.0, 0.0))
HUMIDITY_BREAKPOINTS = ((40.0, 0.0), (60.0, 1.0), (90.0, 1.0), (100.0, 0.8))
RAINFALL_SHOULDER = 0.25


class CheckFailed(Exception):
    pass


def ordinal(label: str) -> int:
    year, month = label.split("-")
    return int(year) * 12 + int(month) - 1


def label(n: int) -> str:
    return f"{n // 12:04d}-{n % 12 + 1:02d}"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    """One target region's inputs over the aligned span (month ordinals
    ``start .. start + len - 1``). ``rmob`` is mobility risk W.(I/N)."""

    start: int
    rain: np.ndarray
    temp: np.ndarray
    humid: np.ndarray
    inc: np.ndarray
    sus: np.ndarray
    pop: np.ndarray
    rmob: np.ndarray


@dataclass
class Table:
    """Every input CSV of a panel as region -> array over a common span."""

    start: int
    series: dict  # variable name -> {region: np.ndarray}
    regions: list
    weights: np.ndarray  # dense, regions x regions

    def target(self, region: str) -> Inputs:
        s = self.series
        density = np.array([s["incidence"][r] / s["population"][r] for r in self.regions])
        row = self.weights[self.regions.index(region)]
        return Inputs(
            self.start,
            s["rainfall"][region],
            s["temperature"][region],
            s["humidity"][region],
            s["incidence"][region],
            s["susceptible"][region],
            s["population"][region],
            row @ density,
        )


def read_table(paths: dict) -> Table:
    """Parse ``region,date,value`` and ``from,to,weight`` CSVs and cut every
    series to the span all of them share."""
    raw = {}
    for name, path in paths.items():
        if name in ("mobility", "actual_outbreaks"):
            continue
        by_region = {}
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            for region, date, value in rows:
                by_region.setdefault(region, {})[ordinal(date)] = float(value)
        raw[name] = by_region
    spans = [(min(m), max(m)) for by in raw.values() for m in by.values()]
    start, end = max(a for a, _ in spans), min(b for _, b in spans)
    series = {
        name: {
            r: np.array([m[t] for t in range(start, end + 1)]) for r, m in by.items()
        }
        for name, by in raw.items()
    }
    regions = sorted({r for by in raw.values() for r in by})
    index = {r: i for i, r in enumerate(regions)}
    weights = np.zeros((len(regions), len(regions)))
    with open(paths["mobility"], newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        for a, b, w in rows:
            if a in index and b in index:
                weights[index[a], index[b]] = float(w)
    return Table(start, series, regions, weights)


# ---------------------------------------------------------------------------
# Program outputs, in one plain shape for both CLI artifacts and in-process
# results
# ---------------------------------------------------------------------------


@dataclass
class Output:
    lags: dict  # rain/temp/humid/mobility -> int
    cutoffs: tuple  # (r_min, r_max)
    exponents: tuple
    mobility_c: float
    risk: list  # (ordinal, R, L, d1, d2)
    flagged: list  # (ordinal, d1, d2, rank, flag, reliability)


def read_artifacts(out: Path) -> Output:
    cal = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    with open(out / "risk.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    risk = [(ordinal(r[0]), *map(float, r[1:5])) for r in rows]
    with open(out / "flagged.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    flagged = [
        (ordinal(r[0]), float(r[1]), float(r[2]), int(r[3]), r[4], float(r[5]))
        for r in rows
    ]
    cut = cal["rainfall_cutoffs"]
    return Output(
        dict(cal["lags"]),
        (cut["r_min"], cut["r_max"]),
        tuple(cal["exponents"]),
        cal["mobility_c"],
        risk,
        flagged,
    )


def digest(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def check_lags(output: Output, planted: dict) -> None:
    if output.lags != planted:
        raise CheckFailed(f"calibrated lags {output.lags} != planted {planted}")


def _interp(x, points):
    xs, ys = zip(*points)
    return np.interp(x, xs, ys)


def _rain_points(r_min: float, r_max: float):
    pts = []
    if r_min * (1.0 - RAINFALL_SHOULDER) < r_min:
        pts.append((r_min * (1.0 - RAINFALL_SHOULDER), 0.0))
    return pts + [(r_min, 1.0), (r_max, 1.0), (r_max * (1.0 + RAINFALL_SHOULDER), 0.0)]


def objective_space(inp: Inputs, output: Output) -> list:
    """(ordinal, R, L, d1, d2) for every month whose lagged inputs exist."""
    lags = output.lags
    n = inp.inc.size
    first = max(1, *lags.values())
    k = np.arange(first, n)
    degrees = (
        _interp(inp.rain[k - lags["rain"]], _rain_points(*output.cutoffs)),
        _interp(inp.temp[k - lags["temp"]], TEMPERATURE_BREAKPOINTS),
        _interp(inp.humid[k - lags["humid"]], HUMIDITY_BREAKPOINTS),
        _interp(inp.rmob[k - lags["mobility"]], ((0.0, 0.0), (output.mobility_c, 1.0))),
    )
    r = np.ones(k.size)
    for m, c in zip(degrees, output.exponents):
        r = r * m**c
    r = np.clip(r, 0.0, 1.0)
    peak = inp.inc.max()
    l = np.clip(inp.sus[k - 1] / inp.pop[k - 1], 0, 1) * np.clip(inp.inc[k - 1] / peak, 0, 1)
    d1 = np.clip(1.0 - r, 0.0, 1.0)
    d2 = np.clip(1.0 - l, 0.0, 1.0)
    return list(zip((inp.start + k).tolist(), r, l, d1, d2))


def check_objective(inp: Inputs, output: Output) -> None:
    want = objective_space(inp, output)
    got = output.risk
    emitted, admissible = [g[0] for g in got], [w[0] for w in want]
    if emitted != admissible:
        extra = sorted(set(emitted) - set(admissible))
        lost = sorted(set(admissible) - set(emitted))
        raise CheckFailed(
            f"emitted months differ from the admissible ones: extra "
            f"{[label(t) for t in extra]}, missing {[label(t) for t in lost]}"
        )
    for w, g in zip(want, got):
        for name, a, b in zip(("R", "L", "d1", "d2"), w[1:], g[1:]):
            if abs(a - b) > TOLERANCE:
                raise CheckFailed(f"{name} at {label(w[0])}: emitted {float(b)!r}, re-derived {float(a)!r}")


def dominance_ranks(points) -> list:
    """Number of points that dominate each (d1, d2), both minimised."""
    d1 = np.array([p[0] for p in points])
    d2 = np.array([p[1] for p in points])
    ranks = []
    for a, b in zip(d1, d2):
        dominators = (d1 <= a) & (d2 <= b) & ((d1 < a) | (d2 < b))
        ranks.append(int(dominators.sum()))
    return ranks


def check_flags(output: Output, rank_threshold: int) -> None:
    ranks = dominance_ranks([(m[3], m[4]) for m in output.risk])
    want = [
        (m[0], rank) for m, rank in zip(output.risk, ranks) if rank <= rank_threshold
    ]
    got = [(f[0], f[3]) for f in output.flagged]
    if got != want:
        raise CheckFailed(
            f"flagged (month, rank) {[(label(t), k) for t, k in got]} "
            f"!= oracle {[(label(t), k) for t, k in want]}"
        )
    by_month = {m[0]: m for m in output.risk}
    for t, d1, d2, rank, flag, rel in output.flagged:
        if (d1, d2) != by_month[t][3:5]:
            raise CheckFailed(f"flagged {label(t)} (d1, d2) differ from risk output")
        if flag != ("front" if rank == 0 else "near"):
            raise CheckFailed(f"flagged {label(t)} rank {rank} labelled {flag!r}")
        if abs(rel - (1.0 - np.hypot(d1, d2) / np.sqrt(2.0))) > TOLERANCE:
            raise CheckFailed(f"flagged {label(t)} reliability {rel!r}")


def match(flagged, planted, window: int = MATCH_WINDOW):
    """One-to-one matching of month ordinals: each planted month, in order,
    takes the earliest free flag within +-window. Returns (missed, false)."""
    free = sorted(flagged)
    missed = []
    for t in sorted(planted):
        hit = next((f for f in free if abs(f - t) <= window), None)
        if hit is None:
            missed.append(t)
        else:
            free.remove(hit)
    return missed, free


def check_planted(output: Output, planted, last: int | None = None) -> None:
    """Every planted month is flagged (+-1) and no flag is false; with
    ``last``, only months up to that ordinal are judged."""
    flags = [f[0] for f in output.flagged if last is None or f[0] <= last]
    planted = [t for t in planted if last is None or t <= last]
    missed, false = match(flags, planted)
    if missed or false:
        raise CheckFailed(
            f"planted months missed {[label(t) for t in missed]}, "
            f"false flags {[label(t) for t in false]}"
        )


def check_same_bytes(got: dict, first: dict) -> None:
    if got != first:
        diff = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
        raise CheckFailed(f"artifacts differ from the first op's: {', '.join(diff)}")


# ---------------------------------------------------------------------------
# Self-test: each check must reject a deliberately corrupted output
# ---------------------------------------------------------------------------


def self_test(inp: Inputs, output: Output, planted_lags: dict, rank_threshold: int,
              planted=None, last=None, out: Path | None = None) -> list:
    """Feed each check a corrupted copy of a passing output; returns the
    names of the checks that wrongly accepted it. ``planted`` (the month
    matcher) and ``out`` (byte identity of an artifact directory) are
    optional, as not every workload runs those checks."""
    t, r, l, d1, d2 = output.risk[len(output.risk) // 2]
    nudged = list(output.risk)
    nudged[len(output.risk) // 2] = (t, r, l, d1 + 1e-6, d2)
    dropped = replace(output, flagged=output.flagged[1:])
    lag = dict(output.lags, rain=output.lags["rain"] + 1)
    cases = {
        "lags": lambda: check_lags(replace(output, lags=lag), planted_lags),
        "objective": lambda: check_objective(inp, replace(output, risk=nudged)),
        "ranks": lambda: check_flags(dropped, rank_threshold),
    }
    if planted is not None:
        cases["planted"] = lambda: check_planted(dropped, planted, last)
    if out is not None:
        cases["bytes"] = lambda: check_same_bytes(_flip_one_byte(out), digest(out))
    accepted = []
    for name, case in cases.items():
        try:
            case()
        except CheckFailed:
            continue
        accepted.append(name)
    return accepted


def _flip_one_byte(out: Path) -> dict:
    """Digests of ``out`` as if the middle byte of risk.csv were changed."""
    data = bytearray((out / "risk.csv").read_bytes())
    data[len(data) // 2] ^= 1
    got = digest(out)
    got["risk.csv"] = hashlib.sha256(bytes(data)).hexdigest()
    return got
