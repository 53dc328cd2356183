#!/usr/bin/env python3
"""End-to-end benchmark of shrouddb's public API (``engine.setup``,
``engine.query``), driven as one closed-loop client.

    python3 perfbench/run.py --workload point-64-disk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Inputs derive from ``--seed`` alone. Every query, warm-ups
included, is checked against a direct filter of the generated dataset.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). See README.md
for the workloads and the meaning of each metric.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
OUT = HERE / "out"

WARMUP = 5        # checked, not timed
ROUND = 10        # queries per round; a run times whole rounds
MIN_TIMED = 100   # so that ten or more samples lie beyond p90
QUERY_POOL = 10_000
DEPLOYMENTS = 2   # setups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    n: int
    domain: int
    record_size: int
    span: int          # keys per range; 1 means point queries
    m: int
    mode: str
    storage: str       # disk or remote


WORKLOADS = {
    "range-4k-remote": Workload(10_000, 1_000, 4096, 5, 2, "gamma", "remote"),
    "point-64-disk": Workload(100_000, 100_000, 64, 1, 1, "single", "disk"),
}


def tiny(w: Workload) -> Workload:
    """Smoke-test shape of a workload: same layers, a few hundred records."""
    domain = 400 if w.span == 1 else 200
    return replace(w, n=400, domain=domain, span=min(w.span, 4))


END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "qps": "1/s",
    "client_cpu_ms_per_q": "ms",
    "bytes_down_per_q": "B",
    "bytes_up_per_q": "B",
    "roundtrips_per_q": "count",
    "server_bytes_per_data_byte": "ratio",
    "peak_rss_mb": "MB",
}


def make_inputs(w: Workload, seed: int):
    """The dataset and the query stream, from the package's own generators
    (the same ones ``shrouddb run`` uses). The stream cycles through
    ``QUERY_POOL`` queries, more than any run asks at these shapes."""
    from shrouddb.bench import generate_dataset, generate_queries

    db = generate_dataset(w.n, w.domain, w.record_size, seed)
    kind = "point" if w.span == 1 else "range"
    qs = generate_queries(w.domain, w.span / w.domain, QUERY_POOL, seed, kind)
    return db, itertools.cycle(qs)


class Oracle:
    """Expected answers by a direct filter of the dataset: no index, no ORAM."""

    def __init__(self, db):
        self.records = {r.rid: r for r in db.records}
        pairs = sorted((r.key, r.rid) for r in db.records)
        self.keys = [k for k, _ in pairs]
        self.rids = [rid for _, rid in pairs]

    def check(self, state, w: Workload, q, res) -> str | None:
        """Reason the result is wrong, or None."""
        lo = bisect.bisect_left(self.keys, q.a)
        hi = bisect.bisect_right(self.keys, q.b)
        want = sorted(self.rids[lo:hi])
        if [r.rid for r in res.records] != want:
            return f"record ids differ from the direct filter for [{q.a}, {q.b}]"
        for r in res.records:
            ref = self.records[r.rid]
            if r.key != ref.key or r.payload != ref.payload:
                return f"record {r.rid} came back with another key or payload"
        if res.true_count != len(want):
            return f"true_count {res.true_count}, direct filter {len(want)}"
        if res.fetched_count < res.true_count:
            return f"fetched {res.fetched_count} < true {res.true_count}"
        touched = sum(1 for c in res.per_oram_requests if c)
        if res.roundtrips != 2 * touched:
            return f"{res.roundtrips} round trips for {touched} touched ORAMs"
        if w.mode == "gamma" and len(set(res.per_oram_requests)) > 1:
            return f"unequal per-ORAM requests {res.per_oram_requests}"
        for st in state.orams:
            if st.stash_peak > st.stash_limit:
                return f"stash peak {st.stash_peak} above limit {st.stash_limit}"
        return None


class Server:
    """``python -m shrouddb serve`` in a child process on a free port."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "shrouddb", "serve", "--listen", "127.0.0.1:0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.startswith("listening on "):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.endpoint = line.rsplit(" ", 1)[1]

    def cpu_s(self) -> float:
        """User plus system CPU time of the server process so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_bytes(self) -> int:
        """Resident memory of the server process now (VmRSS)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
        raise RuntimeError("server process has no VmRSS")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Deployment:
    """One ``engine.setup`` with the backend it needs; ``close`` frees both."""

    def __init__(self, engine, db, w: Workload, seed: int):
        from shrouddb.engine import EngineConfig

        self.server = Server() if w.storage == "remote" else None
        WORK.mkdir(parents=True, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="disk-", dir=WORK) \
            if w.storage == "disk" else None
        spec = f"remote={self.server.endpoint}" if self.server else w.storage
        config = EngineConfig(domain=w.domain, record_size=w.record_size, m=w.m, mode=w.mode)
        self.state = None
        try:
            t0 = time.perf_counter()
            self.state = engine.setup(db, config, spec, seed, data_dir=self.data_dir)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.close()
            raise

    def server_bytes(self) -> int:
        """Bytes the server holds: the log files on disk, the resident
        memory of the remote server."""
        if self.data_dir:
            return sum(p.stat().st_size for p in Path(self.data_dir).rglob("*") if p.is_file())
        return self.server.rss_bytes()

    def close(self) -> None:
        if self.state is not None:
            self.state.close()
            self.state = None
        if self.server:
            self.server.close()
        if self.data_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def run(args) -> dict:
    from shrouddb import engine

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    min_timed = ROUND if args.tiny else MIN_TIMED
    db, queries = make_inputs(w, args.seed)
    oracle = Oracle(db)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        for name in sorted(tracer.missing):
            print(f"trace: {name} no longer exists; its metrics are absent", file=sys.stderr)

    attempted = failed = 0
    wrong: list[str] = []

    def ask(dep, q, index):
        """One checked query: its result (None if it failed), and the wall
        and process CPU time of ``engine.query`` alone. The check runs
        after both clocks have stopped."""
        nonlocal attempted, failed
        attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            res = engine.query(dep.state, q)
        except Exception:
            failed += 1
            if failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None, 0.0, 0.0
        finally:
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
        reason = oracle.check(dep.state, w, q, res)
        if reason:
            wrong.append(f"query {index}: {reason}")
        if reason or res.failed:
            failed += 1
            return None, elapsed, cpu
        return res, elapsed, cpu

    setup_times = []
    dep = None
    try:
        for k in range(DEPLOYMENTS):
            last = k == DEPLOYMENTS - 1
            if tracer and last:
                tracer.tag = "setup"
                tracer.install()
            try:
                dep = Deployment(engine, db, w, args.seed)
            finally:
                if tracer and last:
                    tracer.uninstall()
            setup_times.append(dep.setup_s)
            if not last:
                dep.close()
                dep = None

        for i in range(WARMUP):
            ask(dep, next(queries), f"warm-up {i}")

        lat: list[float] = []
        plain_lat: list[float] = []
        traced: list[dict] = []
        totals = dict(up=0, down=0, rt=0)
        server_bytes = None
        server_cpu = log_bytes = 0.0
        log_before = 0
        cpu = 0.0
        t_start = time.perf_counter()
        while len(lat) + len(plain_lat) < min_timed or time.perf_counter() - t_start < args.seconds:
            for _ in range(ROUND):
                index = attempted
                trace_this = tracer is not None and index % 2 == 0
                if trace_this:
                    tracer.tag = index
                    tracer.install()
                    cpu0 = dep.server.cpu_s() if dep.server else 0.0
                    log_before = dep.server_bytes() if dep.data_dir else 0
                try:
                    res, elapsed, q_cpu = ask(dep, next(queries), index)
                finally:
                    if trace_this:
                        tracer.uninstall()
                if res is None:
                    continue
                if trace_this:
                    if dep.server:
                        server_cpu += dep.server.cpu_s() - cpu0
                    if dep.data_dir:
                        log_bytes += dep.server_bytes() - log_before
                    traced.append({
                        "tag": index, "true": res.true_count, "fetched": res.fetched_count,
                        "touched_buckets": [st.n_buckets for st, c in
                                            zip(dep.state.orams, res.per_oram_requests) if c]})
                    lat.append(elapsed)
                elif tracer is not None:
                    plain_lat.append(elapsed)
                else:
                    lat.append(elapsed)
                    cpu += q_cpu
                totals["up"] += res.bytes_up
                totals["down"] += res.bytes_down
                totals["rt"] += res.roundtrips
                if server_bytes is None and len(lat) + len(plain_lat) == min_timed:
                    server_bytes = dep.server_bytes()
        wall = time.perf_counter() - t_start
        if server_bytes is None:
            server_bytes = dep.server_bytes()
    finally:
        if dep is not None:
            dep.close()

    print(f"setup seconds: {' '.join(f'{t:.3f}' for t in setup_times)}; "
          f"{len(lat) + len(plain_lat)} timed queries in {wall:.2f} s", file=sys.stderr)
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed}
    done = len(lat) + len(plain_lat)
    if not done:
        raise RuntimeError("every timed query failed")

    if tracer is None:
        ms = [x * 1000.0 for x in lat]
        values = {
            "setup_s": statistics.median(setup_times),
            "query_p50_ms": statistics.median(ms),
            "query_p90_ms": statistics.quantiles(ms, n=100, method="inclusive")[89],
            "qps": len(lat) / sum(lat),
            "client_cpu_ms_per_q": cpu * 1000.0 / len(lat),
            "bytes_down_per_q": totals["down"] / done,
            "bytes_up_per_q": totals["up"] / done,
            "roundtrips_per_q": totals["rt"] / done,
            "server_bytes_per_data_byte": server_bytes / (w.n * w.record_size),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        nq = len(traced)
        extra = {
            "storage.log_bytes_per_q": log_bytes / nq,
            "server.cpu_ms_per_q": server_cpu * 1000.0 / nq,
            "trace.p50_ratio": statistics.median(lat) / statistics.median(plain_lat),
        }
        values = tracing.per_layer(tracer, traced, "setup", w.storage, extra)
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="least time the timed query phase lasts")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true",
                   help="a few hundred records, for the smoke check")
    args = p.parse_args(argv)
    if not (SRC / "shrouddb").is_dir():
        print(f"error: no shrouddb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
