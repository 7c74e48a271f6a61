"""Spans around the calls into each layer of ``denguewatch``.

``install()`` replaces each public function listed in ``WRAPPED`` with a
wrapper in every ``denguewatch`` module namespace that binds it (and, for
``PiecewiseLinearMF.evaluate``, on the class), so calls are seen whichever
module makes them. Each call records a span ``[name, parent, op, start,
end, count, error]`` in memory; the spans are written out once, at the end.
A layer's self time is its span's duration minus that of its child spans.

Run as a script, it is the traced child of the CLI workloads::

    PYTHONPATH=src python3 bench/spans.py SPANS.json -- <denguewatch argv>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "cli", "config", "panel", "calibrate", "fuzzy", "risk", "pipeline",
    "baseline", "pareto", "evaluation", "svgplot", "synth",
)


def _table_rows(args, kwargs, result):
    return sum(len(s.values) for s in result.values())


def _design_rows(args, kwargs, result):
    return len(result[1])


def _points(args, kwargs, result):
    return len(result)


# (module, attribute, span name, count recorded on the span)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("panel", "load_series_table", "panel.load_series_table", _table_rows),
    ("panel", "load_mobility", "panel.load_mobility", None),
    ("panel", "align", "panel.align", None),
    ("panel", "lag_shift", "panel.lag_shift", None),
    ("calibrate", "best_lag", "calibrate.best_lag", None),
    ("calibrate", "rainfall_cutoffs", "calibrate.rainfall_cutoffs", None),
    ("calibrate", "estimate_exponents", "calibrate.estimate_exponents", None),
    ("calibrate", "pearson", "calibrate.pearson", None),
    ("fuzzy", "PiecewiseLinearMF.evaluate", "fuzzy.evaluate", None),
    ("risk", "objective_space", "risk.objective_space", None),
    ("risk", "mobility_risk", "risk.mobility_risk", None),
    ("risk", "default_mobility_c", "risk.default_mobility_c", None),
    ("pipeline", "load_panel", "pipeline.load_panel", None),
    ("pipeline", "calibrate_panel", "pipeline.calibrate_panel", None),
    ("pipeline", "mobility_risk_series", "pipeline.mobility_risk_series", None),
    ("pipeline", "detect", "pipeline.detect", None),
    ("pipeline", "run_baseline", "pipeline.run_baseline", None),
    ("pipeline", "write_risk_csv", "pipeline.write", None),
    ("pipeline", "write_flagged_csv", "pipeline.write", None),
    ("pipeline", "write_baseline_csv", "pipeline.write", None),
    ("pipeline", "_write_json", "pipeline.write", None),
    ("pipeline", "report", "pipeline.report", None),
    ("baseline", "build_design", "baseline.build_design", _design_rows),
    ("baseline", "fit_ols", "baseline.fit_ols", None),
    ("pareto", "detect_outbreaks", "pareto.detect_outbreaks", None),
    ("pareto", "rank_points", "pareto.rank_points", _points),
    ("evaluation", "score", "evaluation.score", None),
    ("evaluation", "load_calendar", "evaluation.load_calendar", None),
    ("svgplot", "objective_scatter_svg", "svgplot.objective_scatter_svg", None),
    ("synth", "generate", "synth.generate", None),
)

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPPED})
COUNTED = {
    "panel.load_series_table.rows": "panel.load_series_table",
    "baseline.build_design.rows": "baseline.build_design",
    "pareto.rank_points.points": "pareto.rank_points",
}
UNDEFINED = ("calibrate.pearson.undefined", "calibrate.pearson", "CorrelationUndefinedError")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = 0

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every function in ``WRAPPED`` wherever ``denguewatch`` binds it."""
    modules = [importlib.import_module(f"denguewatch.{m}") for m in MODULES]
    modules.append(importlib.import_module("denguewatch"))
    for home, attr, name, count in WRAPPED:
        owner = importlib.import_module(f"denguewatch.{home}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            wrapper = tracer.wrap(name, original, count)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def totals(spans, ops=None, out=None) -> dict:
    """Self time, calls and counts per span name, summed over the spans of
    one recording (``parent`` indexes into it) whose op is in ``ops`` (all
    when None), added to ``out``."""
    out = defaultdict(float) if out is None else out
    child_time = defaultdict(float)
    for name, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, _, op, start, end, count, error) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        out[name + "_s"] += end - start - child_time[i]
        out[name + ".calls"] += 1
        out[name + ".count"] += count
        if error is not None:
            out[f"{name}.raised.{error}"] += 1
    return out


def layer_metric(total: dict, metric: str) -> float:
    """Look up one per-layer metric name in :func:`totals` output."""
    if metric in COUNTED:
        return total[COUNTED[metric] + ".count"]
    if metric == UNDEFINED[0]:
        return total[f"{UNDEFINED[1]}.raised.{UNDEFINED[2]}"]
    base = metric[:-2] if metric.endswith("_s") else metric.rsplit(".", 1)[0]
    if base not in SPAN_NAMES:
        raise KeyError(f"no span for per-layer metric {metric!r}")
    return total[metric]


def main(argv) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: spans.py SPANS.json -- <denguewatch argv>")
    tracer = Tracer()
    install(tracer)
    import denguewatch.cli

    try:
        return denguewatch.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
