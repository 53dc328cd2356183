#!/usr/bin/env python3
"""Run one workload k times, each with its own seed in a fresh process,
and print the median, quartiles and spread of every metric.

    python3 perfbench/steady.py --workload point-64-disk --runs 10 --seconds 20

Spread is (q3 - q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``; the bounds in BENCHMARK.json are
set from it. Seeds run from ``--first-seed`` upward. Runs are untraced;
per-layer metrics come from ``run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    fails = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        fails.append((result["failed"], result["attempted"]))
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            units[name] = m["unit"]
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}, {args.runs} runs, {args.seconds} s each")
    print(f"{'metric':34} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    summary = {}
    for name, unit in units.items():
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit}
        print(f"{name:34} {unit:6} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%}")
    print("per run, in seed order:")
    for name, vals in values.items():
        print(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"failed/attempted per run: {fails}")
    print(json.dumps({"workload": args.workload, "runs": args.runs,
                      "seconds": args.seconds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
