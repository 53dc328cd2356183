"""Benchmark harness: synthetic workloads, metrics capture, baselines.

An experiment is one engine deployment answering a fixed query list
while a CSV row records each query's latency and observable traffic.
The summary row adds efficiency pairs: server storage and per-query
communication, each expressed as ``a1 * payload_bytes + a2``.

A linear-scan baseline answers the same queries by downloading every
encrypted record and filtering client-side: maximal bandwidth, zero
access-pattern leakage, no ORAM. It bounds what the volume-hiding
engine must beat.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from shrouddb import slots
from shrouddb.crypto import keygen
from shrouddb.data import Database, Query, Record, point_query, range_query
from shrouddb.engine import EngineConfig, EngineState, QueryResult, query, setup
from shrouddb.errors import DataError, ParameterError
from shrouddb.rng import derive_stream
from shrouddb.storage import CountingKvs, bucket_key, connect

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "FixedClock",
    "generate_dataset",
    "generate_queries",
    "write_dataset",
    "read_dataset",
    "write_queries",
    "read_queries",
    "run_experiment",
    "METRIC_FIELDS",
]

METRIC_FIELDS = [
    "index", "elapsed_ms", "true_count", "fetched_count", "bytes_up",
    "bytes_down", "oram_accesses", "roundtrips", "failed",
    "storage_a1", "storage_a2", "comm_a1", "comm_a2",
]

DISTRIBUTIONS = ("uniform", "histogram")
SAMPLINGS = ("uniform", "cdf")
QUERY_KINDS = ("range", "point")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one benchmark run."""

    n: int
    domain: int
    record_size: int
    selectivity: float
    queries: int
    mode: str = "gamma"              # engine mode or "linear-scan"
    m: int = 1
    epsilon: float = math.log(2)
    beta: float = 2.0 ** -20
    fanout: int = 16
    storage: str = "memory"
    seed: int = 0
    distribution: str = "uniform"
    histogram_file: str | None = None
    query_sampling: str = "uniform"
    query_kind: str = "range"

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("dataset size must be >= 1")
        if self.queries < 1:
            raise ParameterError("query count must be >= 1")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        if self.query_sampling not in SAMPLINGS:
            raise ParameterError(f"unknown query sampling {self.query_sampling!r}")
        if self.query_kind not in QUERY_KINDS:
            raise ParameterError(f"unknown query kind {self.query_kind!r}")
        if self.distribution == "histogram" and not self.histogram_file:
            raise ParameterError("histogram distribution needs --histogram-file")


class FixedClock:
    """Deterministic stand-in for ``time.perf_counter``: every reading
    advances one millisecond, making timing columns reproducible."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def _payload(seed: int, rid: int, size: int) -> bytes:
    return hashlib.shake_128(f"{seed}:{rid}".encode()).digest(size)


def _read_histogram(path: str | Path) -> list[tuple[int, int, int]]:
    bins: list[tuple[int, int, int]] = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            lo, hi, count = int(row["lo"]), int(row["hi"]), int(row["count"])
            if lo >= hi or count < 0:
                raise DataError(f"bad histogram bin [{lo}, {hi}) x {count}")
            bins.append((lo, hi, count))
    if not bins or all(c == 0 for _, _, c in bins):
        raise DataError("histogram has no mass")
    return bins


def generate_dataset(n: int, domain: int, record_size: int, seed: int,
                     distribution: str = "uniform",
                     histogram_file: str | Path | None = None) -> Database:
    """Synthesize ``n`` records; keys uniform over the domain or resampled
    from a binned histogram, payloads derived from the seed alone."""
    if n < 1:
        raise ParameterError("dataset size must be >= 1")
    if domain < 1:
        raise ParameterError("domain size must be >= 1")
    rng = derive_stream(seed, "dataset")
    if distribution == "uniform":
        keys = [rng.randrange(domain) for _ in range(n)]
    elif distribution == "histogram":
        bins = _read_histogram(histogram_file)
        for lo, hi, _ in bins:
            if not 0 <= lo < hi <= domain:
                raise DataError(f"histogram bin [{lo}, {hi}) outside [0, {domain})")
        picks = rng.choices(range(len(bins)), weights=[c for _, _, c in bins], k=n)
        keys = [rng.randrange(bins[i][0], bins[i][1]) for i in picks]
    else:
        raise ParameterError(f"unknown distribution {distribution!r}")
    return Database([Record(i, k, _payload(seed, i, record_size))
                     for i, k in enumerate(keys)])


def generate_queries(domain: int, selectivity: float, count: int, seed: int,
                     kind: str = "range", sampling: str = "uniform",
                     data_keys: list[int] | None = None) -> list[Query]:
    """Query workload: ranges span ``round(selectivity * domain)`` values;
    ``cdf`` sampling centers ranges on keys drawn from the data."""
    if count < 1:
        raise ParameterError("query count must be >= 1")
    rng = derive_stream(seed, "queries")
    if sampling == "cdf" and not data_keys:
        raise ParameterError("cdf sampling needs data keys")
    out: list[Query] = []
    if kind == "point":
        for _ in range(count):
            a = rng.choice(data_keys) if sampling == "cdf" else rng.randrange(domain)
            out.append(point_query(a))
        return out
    if kind != "range":
        raise ParameterError(f"unknown query kind {kind!r}")
    span = round(selectivity * domain)
    if span < 1:
        raise ParameterError(
            f"selectivity {selectivity} spans no values over domain {domain}")
    if span > domain:
        raise ParameterError(f"selectivity {selectivity} exceeds the domain")
    for _ in range(count):
        if sampling == "cdf":
            mid = rng.choice(data_keys)
            a = min(max(0, mid - span // 2), domain - span)
        else:
            a = rng.randrange(domain - span + 1)
        out.append(range_query(a, a + span - 1))
    return out


# -- CSV interchange -------------------------------------------------------

def write_dataset(db: Database, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "key"])
        for r in db.records:
            w.writerow([r.rid, r.key])


def read_dataset(path: str | Path, record_size: int, seed: int) -> Database:
    """Load an ``id,key`` CSV; payloads are re-derived from the seed."""
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rid = int(row["id"])
            records.append(Record(rid, int(row["key"]),
                                  _payload(seed, rid, record_size)))
    if not records:
        raise DataError(f"no records in {path}")
    return Database(records)


def write_queries(queries: list[Query], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b"])
        for q in queries:
            w.writerow([q.a, q.b])


def read_queries(path: str | Path) -> list[Query]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            a, b = int(row["a"]), int(row["b"])
            out.append(point_query(a) if a == b else range_query(a, b))
    if not out:
        raise DataError(f"no queries in {path}")
    return out


# -- the harness -----------------------------------------------------------

@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[dict]
    summary: dict
    failed_queries: int
    answers: list[list[int]] = field(default_factory=list)  # matching rids per query

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=METRIC_FIELDS, lineterminator="\n")
        w.writeheader()
        for row in self.rows:
            w.writerow(row)
        w.writerow(self.summary)
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())


def _fit_line(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least squares y = a1*x + a2; flat x collapses to the mean."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, my
    a1 = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return a1, my - a1 * mx


def _metric_row(i: int, elapsed_ms: float, res: QueryResult) -> dict:
    return {
        "index": i,
        "elapsed_ms": f"{elapsed_ms:.3f}",
        "true_count": res.true_count,
        "fetched_count": res.fetched_count,
        "bytes_up": res.bytes_up,
        "bytes_down": res.bytes_down,
        "oram_accesses": res.oram_accesses,
        "roundtrips": res.roundtrips,
        "failed": int(res.failed),
        "storage_a1": "", "storage_a2": "", "comm_a1": "", "comm_a2": "",
    }


def _summarize(spec: ExperimentSpec, rows: list[dict], data_bytes: int,
               server_bytes: int, ds_bytes: int) -> dict:
    xs = [float(r["true_count"]) * spec.record_size for r in rows]
    ys = [float(r["bytes_down"]) for r in rows]
    comm_a1, comm_a2 = _fit_line(xs, ys)
    total = {
        "index": "summary",
        "elapsed_ms": f"{sum(float(r['elapsed_ms']) for r in rows):.3f}",
        "true_count": sum(int(r["true_count"]) for r in rows),
        "fetched_count": sum(int(r["fetched_count"]) for r in rows),
        "bytes_up": sum(int(r["bytes_up"]) for r in rows),
        "bytes_down": sum(int(r["bytes_down"]) for r in rows),
        "oram_accesses": sum(int(r["oram_accesses"]) for r in rows),
        "roundtrips": sum(int(r["roundtrips"]) for r in rows),
        "failed": sum(int(r["failed"]) for r in rows),
        "storage_a1": f"{server_bytes / data_bytes:.6f}",
        "storage_a2": f"{ds_bytes:.6f}",
        "comm_a1": f"{comm_a1:.6f}",
        "comm_a2": f"{comm_a2:.6f}",
    }
    return total


def _resolve_workload(spec: ExperimentSpec, dataset: str | None,
                      queries_file: str | None) -> tuple[Database, list[Query]]:
    if dataset:
        db = read_dataset(dataset, spec.record_size, spec.seed)
    else:
        db = generate_dataset(spec.n, spec.domain, spec.record_size, spec.seed,
                              spec.distribution, spec.histogram_file)
    if queries_file:
        qs = read_queries(queries_file)
    else:
        keys = [r.key for r in db.records]
        qs = generate_queries(spec.domain, spec.selectivity, spec.queries,
                              spec.seed, spec.query_kind, spec.query_sampling, keys)
    return db, qs


def run_experiment(spec: ExperimentSpec, clock=None, dataset: str | None = None,
                   queries_file: str | None = None,
                   data_dir: str | Path | None = None) -> ExperimentResult:
    """Set up the chosen deployment, run the workload, collect metrics."""
    clock = clock or time.perf_counter
    db, qs = _resolve_workload(spec, dataset, queries_file)
    if spec.mode == "linear-scan":
        return _run_scan(spec, db, qs, clock, data_dir)

    config = EngineConfig(
        domain=spec.domain, record_size=spec.record_size, m=spec.m,
        mode=spec.mode, epsilon=spec.epsilon, beta=spec.beta,
        fanout=spec.fanout)
    state = setup(db, config, spec.storage, spec.seed, data_dir)
    try:
        rows: list[dict] = []
        answers: list[list[int]] = []
        failed = 0
        for i, q in enumerate(qs):
            t0 = clock()
            res = query(state, q)
            elapsed_ms = (clock() - t0) * 1000.0
            rows.append(_metric_row(i, elapsed_ms, res))
            answers.append([r.rid for r in res.records])
            failed += res.failed
        summary = _summarize(spec, rows, len(db) * spec.record_size,
                             state.oram_storage_bytes(), state.sanitizer_bytes())
    finally:
        state.close()
    return ExperimentResult(spec, rows, summary, failed, answers)


def _run_scan(spec: ExperimentSpec, db: Database, qs: list[Query], clock,
              data_dir) -> ExperimentResult:
    """Baseline: every query downloads all records and filters locally."""
    cipher = slots.cipher(keygen(128, derive_stream(spec.seed, "scan")).data)
    store = CountingKvs(connect(spec.storage, data_dir))
    counters = store.counters
    body = 16 + spec.record_size  # rid, key, payload
    try:
        plain = b"".join(r.rid.to_bytes(8, "big") + r.key.to_bytes(8, "big") + r.payload
                         for r in db.records)
        sealed = slots.seal_slots(cipher, plain, slots.fresh_nonces(len(db)),
                                  len(db), body)
        all_keys = [bucket_key(i) for i in range(len(db))]
        store.batch_put(list(zip(all_keys, sealed)))
        server_bytes = sum(map(len, sealed))

        rows: list[dict] = []
        answers: list[list[int]] = []
        for i, q in enumerate(qs):
            t0 = clock()
            before = counters.snapshot()
            blobs = store.batch_get(all_keys)
            opened = slots.open_slots(cipher, blobs, len(db), body)
            hits: list[Record] = []
            for j in range(len(db)):
                off = j * body
                k = int.from_bytes(opened[off + 8:off + 16], "big")
                if q.a <= k <= q.b:
                    rid = int.from_bytes(opened[off:off + 8], "big")
                    hits.append(Record(rid, k, opened[off + 16:off + body]))
            hits.sort(key=lambda r: r.rid)
            elapsed_ms = (clock() - t0) * 1000.0
            snap = counters.snapshot()
            res = QueryResult(
                records=hits, true_count=len(hits), fetched_count=len(db),
                failed=False, per_oram_requests=[],
                roundtrips=snap.roundtrips - before.roundtrips,
                bytes_up=snap.bytes_up - before.bytes_up,
                bytes_down=snap.bytes_down - before.bytes_down,
                oram_accesses=0)
            rows.append(_metric_row(i, elapsed_ms, res))
            answers.append([r.rid for r in hits])
        summary = _summarize(spec, rows, len(db) * spec.record_size,
                             server_bytes, 0)
    finally:
        store.close()
    return ExperimentResult(spec, rows, summary, 0, answers)
