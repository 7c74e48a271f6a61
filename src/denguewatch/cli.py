"""Command-line front end.

Exit codes: 0 success, 1 pipeline/data error, 2 usage error (including
missing input files). Errors print a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import dump_defaults, load_config
from .errors import ConfigError, DengueWatchError, UsageError
from .evaluation import load_calendar, write_calendar
from .panel import MonthIndex, write_mobility, write_series
from .risk import Lags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denguewatch",
        description="Dengue outbreak month detection via two-objective Pareto closeness",
    )
    parser.add_argument("--config", help="YAML config file (merged over defaults)")
    parser.add_argument(
        "--print-defaults",
        action="store_true",
        help="print the default configuration and exit",
    )
    sub = parser.add_subparsers(dest="command")

    for name, help_text in [
        ("synth", "write a synthetic panel plus ground-truth outbreak calendar"),
        ("calibrate", "emit the calibration report (lags, cutoffs, exponents)"),
        ("detect", "emit per-month risk values and flagged outbreak months"),
        ("baseline", "emit fitted linear-regression values and predicted months"),
        ("evaluate", "score a predictions CSV against an actual-outbreaks CSV"),
        ("report", "run the full pipeline and write every artifact"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default="out", help="output directory")
        if name == "evaluate":
            p.add_argument("--predictions", required=True, help="CSV with a date column")
            p.add_argument("--actual", required=True, help="CSV with a date column")
    return parser


def _cmd_synth(cfg: dict, out: Path) -> None:
    from .synth import SynthConfig, generate  # only this command needs it

    scfg = cfg["synth"]  # types checked by load_config
    config = SynthConfig(
        months=scfg["months"],
        seed=scfg["seed"],
        start=MonthIndex.parse(scfg["start"]),
        planted_lags=Lags(**scfg["lags"]),
        rain_band=tuple(float(v) for v in scfg["rain_band"]),
        outbreak_months=tuple(MonthIndex.parse(t) for t in scfg["outbreak_months"] or ()),
        noise_scale=float(scfg["noise_scale"]),
    )
    panel, calendar = generate(config)
    pipeline.make_out_dir(out)
    for name, variable in pipeline.INPUT_VARIABLES.items():
        series = [s for (_, v), s in panel.series.items() if v is variable]
        write_series(series, out / f"{name}.csv")
    write_mobility(panel.mobility, out / "mobility.csv")
    write_calendar(calendar, out / "outbreaks.csv")
    print(f"wrote synthetic panel ({config.months} months) to {out}")


def _cmd_evaluate(cfg: dict, out: Path, predictions: str, actual: str) -> None:
    predicted = load_calendar(predictions).months
    payload = pipeline.evaluation_payload(cfg, load_calendar(actual), predicted, result=predicted)
    pipeline.make_out_dir(out)
    pipeline._write_json(payload, out / "evaluation.json")
    print(json.dumps(payload["result"], sort_keys=True))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(dump_defaults())
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        if args.command == "synth":
            _cmd_synth(cfg, out)
        elif args.command == "evaluate":
            _cmd_evaluate(cfg, out, args.predictions, args.actual)
        else:
            print(pipeline.report(cfg, out, args.command))
    except (FileNotFoundError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DengueWatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
