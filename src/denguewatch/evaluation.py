"""Scoring of flagged months against an actual-outbreak calendar."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import IngestionError, ParameterError
from .panel import MonthIndex, read_csv, write_csv

DEFAULT_MATCH_WINDOW = 1


@dataclass(frozen=True)
class OutbreakCalendar:
    months: tuple  # sorted MonthIndex

    def __post_init__(self):
        object.__setattr__(self, "months", tuple(sorted(set(self.months))))


@dataclass(frozen=True)
class EvalResult:
    matches: int
    false_positives: int
    false_negatives: int
    total_months: int
    error_rate: float


def score(
    predicted,
    actual: OutbreakCalendar,
    span,
    match_window: int = DEFAULT_MATCH_WINDOW,
) -> EvalResult:
    """Greedy chronological one-to-one matching within +-match_window months.

    Unmatched predictions are false positives, unmatched actual outbreaks
    false negatives; the error rate divides their sum by the span length.
    """
    if match_window < 0:
        raise ParameterError(f"match_window must be >= 0, got {match_window}")
    start, end = span
    if end < start:
        raise ParameterError(f"invalid span {start}..{end}")
    pred = sorted(set(predicted))
    act = list(actual.months)
    for t in pred:
        if t < start or t > end:
            raise ParameterError(f"predicted month {t} outside span {start}..{end}")
    for t in act:
        if t < start or t > end:
            raise ParameterError(f"actual month {t} outside span {start}..{end}")

    # Two-pointer sweep: a pair within the window is always matched, since
    # skipping it can never enable more matches later.
    matches = 0
    i = j = 0
    while i < len(pred) and j < len(act):
        delta = pred[i] - act[j]
        if abs(delta) <= match_window:
            matches += 1
            i += 1
            j += 1
        elif delta < 0:
            i += 1
        else:
            j += 1
    fp = len(pred) - matches
    fn = len(act) - matches
    total = end - start + 1
    return EvalResult(
        matches=matches,
        false_positives=fp,
        false_negatives=fn,
        total_months=total,
        error_rate=(fp + fn) / total,
    )


def load_calendar(path) -> OutbreakCalendar:
    """Read outbreak months from any CSV carrying a ``date`` column.

    Extra columns (ranks, flags, ...) are ignored, so both dedicated
    calendars and flagged-months artifacts are accepted. Blank rows and
    empty dates are skipped; a row too short to hold a date is an error.
    """
    path = Path(path)
    rows = read_csv(path)
    header = [c.strip().lower() for c in next(rows)]
    if "date" not in header:
        raise IngestionError(f"{path}: no 'date' column in header")
    col = header.index("date")
    months = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) <= col and any(map(str.strip, row)):
            raise IngestionError(f"{path}: line {lineno}: expected at least {col + 1} fields")
        if len(row) <= col or not row[col].strip():
            continue
        try:
            months.append(MonthIndex.parse(row[col]))
        except IngestionError as exc:
            raise IngestionError(f"{path}: line {lineno}: {exc}") from None
    return OutbreakCalendar(tuple(months))


def write_calendar(calendar: OutbreakCalendar, path) -> None:
    write_csv(path, ["date"], ([str(t)] for t in calendar.months))
