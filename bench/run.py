"""The denguewatch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing, as the
program runs with ``PYTHONPATH=src``. Workloads, metrics and checks are
described in ``bench/README.md``. With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

CLI = ("-c", "import sys; from denguewatch.cli import main; sys.exit(main())")
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
OP_TIMEOUT_S = 120.0
RANK_THRESHOLD = 2  # the program's default detection.rank_threshold
DEFAULT_SYNTH_LAGS = {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}
TRACED_OPS = {"report-default": 5, "report-national": 3}


class SetupError(Exception):
    pass


@dataclass
class Proc:
    wall: float
    rss_kib: int
    code: int
    stderr: str


def run_process(argv, log_stem: Path) -> Proc:
    """Run ``python3 argv`` from the checkout root with the program on the
    path; its wall time and its own peak RSS (from wait4)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(BENCH), env.get("PYTHONPATH")) if p
    )
    out, err = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out, "w") as fo, open(err, "w") as fe:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, stdout=fo, stderr=fe)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss, proc.returncode, err.read_text(errors="replace"))


def program(argv, span_file: Path | None = None) -> tuple:
    """``denguewatch argv`` as the installed entry point runs it, or inside
    the traced child that writes its spans to ``span_file``."""
    if span_file is None:
        return (*CLI, *argv)
    return (str(BENCH / "spans.py"), str(span_file), "--", *argv)


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tail_line(text: str) -> str:
    lines = [l for l in text.strip().splitlines() if l.strip()]
    return lines[-1] if lines else "(no output)"


@dataclass
class Result:
    setup_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    months: int = 0
    rss_kib: int = 0
    failures: list = field(default_factory=list)
    self_test: list | None = None  # checks that accepted a corrupted output
    notes: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CLI workloads: one `denguewatch report` process per operation
# ---------------------------------------------------------------------------


class CliWorkload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.config = work / "config.json"

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed: whatever the checks need from the inputs."""

    def write_config(self, k: int) -> None:
        raise NotImplementedError

    def check(self, k: int, output: checks.Output) -> None:
        raise NotImplementedError

    def self_test(self, k: int, output: checks.Output) -> list:
        raise NotImplementedError

    def op(self, k: int, result: Result, traced: bool = False):
        """Run op ``k`` and check it; returns its spans when ``traced``."""
        self.write_config(k)
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ("--config", str(self.config), "report", "--out", str(self.out))
        span_file = self.work / f"spans-{k}.json" if traced else None
        proc = run_process(program(argv, span_file), self.work / "op")
        result.op_s.append(proc.wall)
        result.rss_kib = max(result.rss_kib, proc.rss_kib)
        try:
            if proc.code != 0:
                raise checks.CheckFailed(f"exit code {proc.code}: {tail_line(proc.stderr)}")
            output = checks.read_artifacts(self.out)
            self.check(k, output)
        except Exception as exc:  # a missing or malformed artifact fails the op
            result.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
        else:
            result.months += len(output.risk)
            if result.self_test is None:
                result.self_test = self.self_test(k, output)
        if traced and span_file.exists():
            recorded = json.loads(span_file.read_text())["spans"]
            main_s = sum(s[4] - s[3] for s in recorded if s[0] == "cli.main" and s[1] < 0)
            return recorded, proc.wall - main_s
        return [], 0.0

    def measure(self, seconds: float) -> Result:
        result = Result()
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            self.setup()
            result.setup_s.append(time.perf_counter() - started)
        self.prepare()
        k = 0
        while k == 0 or sum(result.op_s) < seconds:
            self.op(k, result)
            k += 1
        return result

    def trace(self) -> Result:
        result = Result()
        started = time.perf_counter()
        setup_spans = self.traced_setup()
        result.setup_s.append(time.perf_counter() - started)
        self.prepare()
        op_totals, process = None, []
        for k in range(TRACED_OPS[self.name]):
            recorded, outside_main = self.op(k, result, traced=True)
            op_totals = spans.totals(recorded, out=op_totals)
            process.append(outside_main)
        n = len(result.op_s)
        result.layers = layer_values(op_totals, n, spans.totals(setup_spans))
        result.layers["cli.process_s"] = statistics.fmean(process)
        return result

    def traced_setup(self) -> list:
        self.setup()
        return []


class ReportDefault(CliWorkload):
    """The README quick start: `denguewatch synth` with default settings,
    then `denguewatch report` on it. The noiseless default panel draws no
    random numbers, so every seed gives the same inputs."""

    name = "report-default"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.data = work / "data"
        self.first_digest = None

    def _synth(self, traced: bool) -> list:
        shutil.rmtree(self.data, ignore_errors=True)
        argv = ("synth", "--out", str(self.data))
        span_file = self.work / "spans-setup.json" if traced else None
        proc = run_process(program(argv, span_file), self.work / "synth")
        if proc.code != 0:
            raise SetupError(f"denguewatch synth: exit code {proc.code}: {tail_line(proc.stderr)}")
        self.paths = {
            name: self.data / f"{name}.csv"
            for name in (*gen.SERIES_FILES, "mobility")
        }
        self.paths["actual_outbreaks"] = self.data / "outbreaks.csv"
        self.config.write_text(
            json.dumps({"inputs": {k: str(v) for k, v in self.paths.items()}}, indent=2),
            encoding="utf-8",
        )
        return json.loads(span_file.read_text())["spans"] if traced else []

    def setup(self):
        self._synth(traced=False)

    def traced_setup(self):
        return self._synth(traced=True)

    def prepare(self):
        self.inputs = checks.read_table(self.paths).target("WP")
        with open(self.paths["actual_outbreaks"], encoding="utf-8") as fh:
            self.planted = [checks.ordinal(line.strip()) for line in fh.readlines()[1:]]

    def write_config(self, k):
        pass

    def check(self, k, output):
        checks.check_lags(output, DEFAULT_SYNTH_LAGS)
        checks.check_objective(self.inputs, output)
        checks.check_flags(output, RANK_THRESHOLD)
        checks.check_planted(output, self.planted)
        got = checks.digest(self.out)
        if self.first_digest is None:
            self.first_digest = got
        checks.check_same_bytes(got, self.first_digest)

    def self_test(self, k, output):
        return checks.self_test(
            self.inputs, output, DEFAULT_SYNTH_LAGS, RANK_THRESHOLD,
            planted=self.planted, out=self.out,
        )


class ReportNational(CliWorkload):
    """A wide seeded panel written as CSVs; op k targets a different region."""

    name = "report-national"

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.data = work / "data"
        self.recall = [0, 0]  # planted months matched, planted months

    def setup(self):
        self.panel = gen.national_panel(self.seed)
        self.paths = gen.write_national(self.panel, self.data)

    def prepare(self):
        self.table = checks.read_table(self.paths)

    def target(self, k: int) -> str:
        return self.panel.order[k % len(self.panel.order)]

    def write_config(self, k):
        target = self.target(k)
        inputs = {name: str(path) for name, path in self.paths.items()}
        inputs["actual_outbreaks"] = str(self.data / f"outbreaks-{target}.csv")
        cfg = {"region": target, "inputs": inputs}
        self.config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")

    def check(self, k, output):
        target = self.target(k)
        checks.check_lags(output, self.panel.lags[target])
        checks.check_objective(self.table.target(target), output)
        checks.check_flags(output, RANK_THRESHOLD)
        planted = [checks.ordinal(gen.month_label(o)) for o in self.panel.outbreaks[target]]
        missed, _ = checks.match([f[0] for f in output.flagged], planted)
        self.recall[0] += len(planted) - len(missed)
        self.recall[1] += len(planted)

    def self_test(self, k, output):
        target = self.target(k)
        return checks.self_test(
            self.table.target(target), output, self.panel.lags[target], RANK_THRESHOLD
        )


# ---------------------------------------------------------------------------
# rolling-origin: in-process monthly re-runs inside one worker process
# ---------------------------------------------------------------------------


class RollingOrigin:
    name = "rolling-origin"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def _worker(self, seconds: float, trace: bool, setup_only: bool, tag: str):
        result_path = self.work / f"worker-{tag}.json"
        argv = [
            str(BENCH / "worker.py"), "--seed", str(self.seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--result", str(result_path),
        ]
        if setup_only:
            argv.append("--setup-only")
        proc = run_process(argv, self.work / f"worker-{tag}")
        if proc.code != 0:
            raise SetupError(f"rolling-origin worker: exit code {proc.code}: {tail_line(proc.stderr)}")
        return proc, json.loads(result_path.read_text())

    def _result(self, proc, report) -> Result:
        return Result(
            setup_s=[report["setup_s"]],
            op_s=report["op_s"],
            months=report["months"],
            rss_kib=proc.rss_kib,
            failures=report["failures"],
            self_test=report["self_test"],
            notes=[f"{report['sweeps']} sweep(s) of {len(report['op_s']) // report['sweeps']} origins"],
        )

    def measure(self, seconds: float) -> Result:
        setups = [
            self._worker(seconds, False, True, f"setup{i}")[1]["setup_s"]
            for i in range(SETUP_REPEATS - 1)
        ]
        result = self._result(*self._worker(seconds, False, False, "run"))
        result.setup_s += setups
        return result

    def trace(self) -> Result:
        proc, report = self._worker(0, True, False, "trace")
        result = self._result(proc, report)
        recorded = json.loads(Path(report["spans"]).read_text())["spans"]
        n = len(result.op_s)
        ops = spans.totals(recorded, ops=range(1, n + 1))
        result.layers = layer_values(ops, n, spans.totals(recorded, ops={0}))
        result.layers["cli.process_s"] = 0.0  # no CLI process per op
        return result


WORKLOADS = {w.name: w for w in (ReportDefault, ReportNational, RollingOrigin)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_values(op_totals: dict, n_ops: int, setup_totals: dict) -> dict:
    """Per-layer metrics per op; ``synth.generate`` runs only in set-up, so
    its time is that of the one traced set-up."""
    values = {}
    for metric in per_layer_names():
        if metric.startswith("cli."):
            continue
        if metric.startswith("synth."):
            values[metric] = spans.layer_metric(setup_totals, metric)
        else:
            values[metric] = spans.layer_metric(op_totals, metric) / n_ops
    return values


def import_cost(work: Path) -> float:
    """Median fresh-process import of denguewatch.cli minus a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_process(("-c", "pass"), work / "bare").wall)
        full.append(run_process(("-c", "import denguewatch.cli"), work / "import").wall)
    return statistics.median(full) - statistics.median(bare)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def per_layer_names() -> list:
    return [m["name"] for m in benchmark_spec()["per_layer"]]


def tail(values: list):
    """(percentile, value) with at least ten samples beyond it, or None
    below forty samples."""
    n = len(values)
    if n < 40:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(result: Result) -> dict:
    return {
        "setup_s": statistics.median(result.setup_s),
        "op_s": statistics.median(result.op_s),
        "months_per_s": result.months / sum(result.op_s),
        "peak_rss_mib": result.rss_kib / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "denguewatch" / "__init__.py").is_file():
        print(f"error: no denguewatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    work = fresh(WORK / args.workload)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        if args.trace:
            import_s = import_cost(work)
            result = workload.trace()
            result.layers["cli.import_s"] = import_s
        else:
            result = workload.measure(args.seconds)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = spec["per_layer"]
        values = result.layers
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(result)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metric(s) {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    n = len(result.op_s)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n} ops, {len(result.failures)} failed, set-ups {len(result.setup_s)}")
    line = f"op_s median {statistics.median(result.op_s):.4f} s over {n} samples"
    tail_pct = tail(result.op_s)
    if tail_pct is not None:
        line += f"; p{tail_pct[0]} {tail_pct[1]:.4f} s (reference, not bounded)"
    print(line)
    for note in result.notes:
        print(note)
    if isinstance(workload, ReportNational) and workload.recall[1]:
        matched, planted = workload.recall
        print(f"planted-month recall (reference, not checked): {matched}/{planted}")
    for failure in result.failures[:10]:
        print(f"FAILED {failure}")
    if result.self_test is None:
        print("self-test not run: no op passed its checks")
    elif result.self_test:
        print(f"SELF-TEST FAILED: checks that accepted a corrupted output: {', '.join(result.self_test)}")
    else:
        print("self-test passed: every check rejected its corrupted output")
    correct = result.self_test == []
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
