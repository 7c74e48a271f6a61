"""The rolling-origin workload, run in a process of its own.

Each operation is one origin of a monthly re-run: with the months observed
so far, it calibrates, detects, fits the baseline and scores, all in
process. Run by ``run.py`` as::

    PYTHONPATH=src python3 bench/worker.py --seed N --seconds S --trace 0|1 \
        --result RESULT.json [--setup-only]

Set-up, timed from the first line of this file, is importing
``denguewatch`` and generating the first sweep's panel.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from denguewatch import config, evaluation, panel, pipeline, synth  # noqa: E402
from denguewatch.panel import MonthIndex, Panel  # noqa: E402
from denguewatch.risk import Lags  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

RANK_THRESHOLD = 2
LAST_JUDGED = 3  # planted months this many months before the origin, or more


@dataclass
class Sweep:
    plan: dict
    panel: Panel
    calendar: evaluation.OutbreakCalendar


def make_sweep(seed: int, index: int) -> Sweep:
    plan = gen.rolling_plan(seed, index)
    cfg = synth.SynthConfig(
        months=plan["months"],
        seed=seed,
        start=MonthIndex.parse(plan["start"]),
        planted_lags=Lags(**plan["lags"]),
        outbreak_months=tuple(MonthIndex.parse(t) for t in plan["outbreak_months"]),
    )
    panel, calendar = synth.generate(cfg)
    return Sweep(plan, panel, calendar)


def reference(panel: Panel) -> checks.Table:
    """The generated inputs as plain arrays, for the checks."""
    series = {}
    for (region, variable), s in panel.series.items():
        by_region = series.setdefault(variable.name.lower(), {})
        by_region[region] = checks.np.array(s.values, dtype=float)
    mob = panel.mobility
    return checks.Table(
        panel.span[0].ordinal, series, list(mob.regions), checks.np.array(mob.weights)
    )


def origin(sweep: Sweep, observed: int):
    """One operation: the monthly re-run on the first ``observed`` months."""
    cfg = config.load_config()
    start = sweep.panel.span[0]
    end = start + (observed - 1)
    observed_panel = panel.align(
        Panel(
            series={k: s.slice(start, end) for k, s in sweep.panel.series.items()},
            mobility=sweep.panel.mobility,
        )
    )
    calibration = pipeline.calibrate_panel(observed_panel, cfg)
    series, flagged = pipeline.detect(observed_panel, cfg, calibration)
    pipeline.run_baseline(observed_panel, cfg, calibration)
    actual = evaluation.OutbreakCalendar(tuple(t for t in sweep.calendar.months if t <= end))
    evaluation.score([f.t for f in flagged], actual, (start, end), 1)
    return calibration, series, flagged


def as_output(calibration, series, flagged) -> checks.Output:
    lags = calibration.lags
    return checks.Output(
        {"rain": lags.rain, "temp": lags.temp, "humid": lags.humid, "mobility": lags.mobility},
        (calibration.cutoffs.r_min, calibration.cutoffs.r_max),
        tuple(calibration.exponents),
        calibration.mobility_c,
        [(m.t.ordinal, m.R, m.L, m.d1, m.d2) for m in series.months],
        [(f.t.ordinal, f.d1, f.d2, f.rank, f.flag, f.reliability) for f in flagged],
    )


def truncated(inp: checks.Inputs, observed: int) -> checks.Inputs:
    return replace(
        inp, **{k: getattr(inp, k)[:observed] for k in
                ("rain", "temp", "humid", "inc", "sus", "pop", "rmob")}
    )


def check(sweep: Sweep, inp: checks.Inputs, observed: int, output: checks.Output) -> None:
    planted = [t.ordinal for t in sweep.calendar.months]
    last = inp.start + observed - 1 - LAST_JUDGED
    checks.check_lags(output, sweep.plan["lags"])
    checks.check_objective(truncated(inp, observed), output)
    checks.check_flags(output, RANK_THRESHOLD)
    checks.check_planted(output, planted, last)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    sweep = make_sweep(args.seed, 0)
    setup_s = time.perf_counter() - STARTED
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    times, months, failures, self_test = [], 0, [], None
    index = 0
    while True:
        inp = reference(sweep.panel).target(synth.TARGET_REGION)
        for observed in range(gen.ROLLING_WARMUP, sweep.plan["months"] + 1):
            if tracer is not None:
                tracer.op = len(times) + 1
            t0 = time.perf_counter()
            try:
                outcome = origin(sweep, observed)
            except Exception as exc:  # an op that raises counts as failed
                times.append(time.perf_counter() - t0)
                failures.append(f"sweep {index} origin {observed}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            output = as_output(*outcome)
            try:
                check(sweep, inp, observed, output)
            except checks.CheckFailed as exc:
                failures.append(f"sweep {index} origin {observed}: {exc}")
                continue
            months += len(output.risk)
            if self_test is None:
                planted = [t.ordinal for t in sweep.calendar.months]
                last = inp.start + observed - 1 - LAST_JUDGED
                self_test = checks.self_test(
                    truncated(inp, observed), output, sweep.plan["lags"],
                    RANK_THRESHOLD, planted, last,
                )
        index += 1
        if tracer is not None or sum(times) >= args.seconds:
            break
        sweep = make_sweep(args.seed, index)

    result.update(
        op_s=times,
        months=months,
        failures=failures,
        self_test=self_test,
        sweeps=index,
    )
    if tracer is not None:
        spans_path = Path(args.result).with_suffix(".spans.json")
        tracer.dump(spans_path)
        result["spans"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
