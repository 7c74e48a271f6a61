"""The ``rolling-origin`` benchmark worker runs one sweep cleanly.

``bench/worker.py`` uses more of the package than the names its tracer
wraps: it builds a ``Panel``, slices and aligns it, calibrates, detects,
fits the baseline, scores, and reads the fields of the records returned. A
change that breaks any of these fails its ops. The worker runs here as the
benchmark runs it, with ``-B`` so that nothing is written under ``bench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_sweep_of_the_rolling_origin_worker(tmp_path):
    result = tmp_path / "r.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "worker.py"), "--seed", "1",
         "--seconds", "0", "--trace", "0", "--result", str(result)],
        check=True, env=env, cwd=tmp_path, timeout=120,
    )
    run = json.loads(result.read_text(encoding="utf-8"))
    assert run["sweeps"] == 1
    assert len(run["op_s"]) == 61
    assert run["failures"] == []
    assert run["self_test"] == []
