"""The benchmark's traced output carries every per-layer metric that
BENCHMARK.json declares, and its output checks pass."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_emits_every_declared_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "data-starved",
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["per_layer"]}
