"""Tier-1 guards for the benchmark's output.

``perfbench/tracer.py`` wraps package functions by name and reports a
metric as absent when a name it needs is gone; ``perfbench/smoke.py``
fails on any absent or renamed metric. Running it here makes a rename
that silently nulls a benchmark metric fail the test suite.

The benchmark's result is the last line of ``perfbench/run.py``'s
standard output, so the package must print nothing there itself, and a
metric that is ``NaN`` or infinite is no result either.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]


def _refuse(name):
    raise ValueError(f"non-finite constant {name} in the benchmark result")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_result_is_one_finite_json_line(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout[-2000:]
    result = json.loads(lines[0], parse_constant=_refuse)
    assert result["correct"] is True
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
