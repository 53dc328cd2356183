"""Tier-1 guard for the benchmark's metric names.

``perfbench/tracer.py`` wraps package functions by name and reports a
metric as absent when a name it needs is gone; ``perfbench/smoke.py``
fails on any absent or renamed metric. Running it here makes a rename
that silently nulls a benchmark metric fail the test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
