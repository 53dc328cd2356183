#!/usr/bin/env python3
"""Smoke check: every workload of BENCHMARK.json at tiny shapes.

    python3 perfbench/smoke.py

For each workload it runs the benchmark command untraced and traced for
one second and checks the result line: exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, every answer correct, no
failed query, and the metric names and units that BENCHMARK.json lists.
Last, it checks that the command fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, command: list[str], workload: str, trace: int):
    return subprocess.run(
        command + ["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_result(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        errors.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    got = {k: m["unit"] for k, m in result.get("metrics", {}).items()}
    if got != expected:
        errors.append(f"metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got.items()) ^ set(expected.items()))}")
    absent = [k for k, m in result.get("metrics", {}).items() if m["value"] is None]
    if absent:
        errors.append(f"absent metrics {absent}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    layers = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_result(run(ROOT, command, w["name"], trace), layers[trace])
            print(f"{w['name']} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
            failures += bool(errors)

    # without the sources the command must fail and print no result
    (HERE / "work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        proc = run(bare, command, spec["workloads"][0]["name"], 0)
        ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"without sources: {'ok' if ok else f'exit {proc.returncode}, stdout {proc.stdout!r}'}")
        failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
