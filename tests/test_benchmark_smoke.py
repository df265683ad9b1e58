"""The benchmark runs on this checkout and reports every metric it declares.

Each case runs ``perfbench/run.py`` for a tenth of a second as a
subprocess, reading ``perfbench/`` and ``BENCHMARK.json`` without editing
either: the run must exit 0, name no absent span, and end in one JSON line
that reports a correct run with no failed job and exactly the metric names
that ``BENCHMARK.json`` declares for its mode (per-layer with ``--trace 1``,
end-to-end with ``--trace 0``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@pytest.mark.parametrize("workload,trace",
                         [(w, 1) for w in WORKLOADS] + [("sampled-symbolic", 0)])
def test_benchmark_run_reports_every_declared_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "absent" not in done.stdout, done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
