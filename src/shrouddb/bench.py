"""Benchmark harness: synthetic workloads, metrics capture, baselines.

An experiment is one deployment answering a fixed query list while a
CSV row records each query's latency and observable traffic. The
summary row adds efficiency pairs: server storage and per-query
communication, each expressed as ``a1 * payload_bytes + a2``.

The deployment is the engine or the linear-scan baseline, which
downloads every encrypted record per query and filters on the client:
maximal bandwidth, no ORAM, the cost the engine must beat. Both run
through one query loop after one check of the workload's domain.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from shrouddb import slots
from shrouddb.crypto import keygen
from shrouddb.data import (RECORD_HEADER, Database, Query, Record, pack_records,
                           point_query, range_query, unpack_record)
from shrouddb.engine import EngineConfig, QueryResult, query, setup
from shrouddb.errors import DataError, ParameterError, QueryError
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
    "bytes_down", "roundtrips", "failed",
    "storage_a1", "storage_a2", "comm_a1", "comm_a2",
]
_COUNT_FIELDS = METRIC_FIELDS[2:8]  # the QueryResult counts; a query row's integers

DISTRIBUTIONS = ("uniform", "histogram")
SAMPLINGS = ("uniform", "cdf")
QUERY_KINDS = ("range", "point")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one benchmark run. Each setting is
    checked where the run uses it, so a dataset or query file leaves the
    generators' settings unchecked; the record size is used either way."""

    n: int
    domain: int
    record_size: int
    selectivity: float
    queries: int
    mode: str = EngineConfig.mode    # engine mode or "linear-scan"
    m: int = EngineConfig.m
    epsilon: float = EngineConfig.epsilon
    beta: float = EngineConfig.beta
    fanout: int = EngineConfig.fanout
    storage: str = "memory"
    seed: int = 0
    distribution: str = "uniform"
    histogram_file: str | None = None
    query_sampling: str = "uniform"
    query_kind: str = "range"

    def __post_init__(self):
        if self.record_size < 1:
            raise ParameterError("record size must be >= 1")


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


def _int_rows(path: str | Path, columns: tuple[str, ...]) -> list[tuple[int, ...]]:
    """The named integer columns of each row of a CSV file with a header; a missing
    column or a non-integer value is a ``DataError`` naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if set(columns) <= set(reader.fieldnames or ()):
                return [tuple(int(row[c]) for c in columns) for row in reader]
        except (csv.Error, TypeError, ValueError):  # a short row's missing values are None
            pass
        raise DataError(f"{path} line {reader.line_num}: expected integer "
                        f"columns {','.join(columns)}")


def _read_histogram(path: str | Path) -> list[tuple[int, int, int]]:
    bins = _int_rows(path, ("lo", "hi", "count"))
    for lo, hi, count in bins:
        if lo >= hi or count < 0:
            raise DataError(f"bad histogram bin [{lo}, {hi}) x {count}")
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
        if not histogram_file:
            raise ParameterError("histogram distribution needs --histogram-file")
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
    """Query workload: ranges span ``round(selectivity * domain)`` values
    and point queries one; ``cdf`` sampling centers them on keys drawn
    from the data."""
    if count < 1:
        raise ParameterError("query count must be >= 1")
    if sampling not in SAMPLINGS:
        raise ParameterError(f"unknown query sampling {sampling!r}")
    if kind not in QUERY_KINDS:
        raise ParameterError(f"unknown query kind {kind!r}")
    if not math.isfinite(selectivity):
        raise ParameterError(f"selectivity {selectivity} is not finite")
    rng = derive_stream(seed, "queries")
    if sampling == "cdf":
        if not data_keys:
            raise ParameterError("cdf sampling needs data keys")
        for key in data_keys:
            if not 0 <= key < domain:
                raise DataError(f"data key {key} outside [0, {domain})")
    out: list[Query] = []
    span = 1 if kind == "point" else round(selectivity * domain)
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
        w.writerows((r.rid, r.key) for r in db.records)


def read_dataset(path: str | Path, record_size: int, seed: int) -> Database:
    """Load an ``id,key`` CSV; payloads are re-derived from the seed."""
    records = [Record(rid, key, _payload(seed, rid, record_size))
               for rid, key in _int_rows(path, ("id", "key"))]
    if not records:
        raise DataError(f"no records in {path}")
    return Database(records)


def write_queries(queries: list[Query], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "b"])
        w.writerows((q.a, q.b) for q in queries)


def read_queries(path: str | Path) -> list[Query]:
    out = [point_query(a) if a == b else range_query(a, b)
           for a, b in _int_rows(path, ("a", "b"))]
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
        w.writerows(self.rows + [self.summary])
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
    row = {"index": i, "elapsed_ms": f"{elapsed_ms:.3f}"}
    row.update((f, int(getattr(res, f))) for f in _COUNT_FIELDS)
    return row


def _summarize(spec: ExperimentSpec, rows: list[dict], data_bytes: int,
               server_bytes: int, ds_bytes: int) -> dict:
    xs = [float(r["true_count"]) * spec.record_size for r in rows]
    ys = [float(r["bytes_down"]) for r in rows]
    comm_a1, comm_a2 = _fit_line(xs, ys)
    return {
        "index": "summary",
        "elapsed_ms": f"{sum(float(r['elapsed_ms']) for r in rows):.3f}",
        **{f: sum(r[f] for r in rows) for f in _COUNT_FIELDS},
        "storage_a1": f"{server_bytes / data_bytes:.6f}",
        "storage_a2": f"{ds_bytes:.6f}",
        "comm_a1": f"{comm_a1:.6f}",
        "comm_a2": f"{comm_a2:.6f}",
    }


def _resolve_workload(spec: ExperimentSpec, dataset: str | None,
                      queries_file: str | None) -> tuple[Database, list[Query]]:
    """The records and queries of a run, every key and every query
    checked against the spec's domain whichever deployment runs them."""
    if dataset:
        db = read_dataset(dataset, spec.record_size, spec.seed)
    else:
        db = generate_dataset(spec.n, spec.domain, spec.record_size, spec.seed,
                              spec.distribution, spec.histogram_file)
    for r in db.records:
        if not 0 <= r.key < spec.domain:
            raise DataError(f"record {r.rid} key {r.key} outside [0, {spec.domain})")
    if queries_file:
        qs = read_queries(queries_file)
    else:
        qs = generate_queries(spec.domain, spec.selectivity, spec.queries, spec.seed,
                              spec.query_kind, spec.query_sampling, [r.key for r in db.records])
    for q in qs:
        if not 0 <= q.a <= q.b < spec.domain:
            raise QueryError(f"range [{q.a}, {q.b}] outside domain [0, {spec.domain})")
    return db, qs


class _Scan:
    """The linear-scan deployment: each record sealed as one message under a
    key of its own; every query downloads all of them and filters locally."""

    def __init__(self, spec: ExperimentSpec, db: Database, data_dir):
        n, size = self._n, self._size = len(db), RECORD_HEADER + spec.record_size
        self._cipher = slots.cipher(keygen(derive_stream(spec.seed, "scan")))
        sealed = slots.seal_slots(self._cipher, pack_records(db.records, spec.record_size).ravel(),
                                  slots.fresh_nonces(n), n, size)
        self.server_bytes = sum(map(len, sealed))
        self._keys = [bucket_key(i) for i in range(n)]
        self.store = CountingKvs(connect(spec.storage, data_dir))
        try:
            self.store.batch_put(list(zip(self._keys, sealed)))
        except BaseException:
            self.store.close()
            raise

    def query(self, q: Query) -> QueryResult:
        n, size = self._n, self._size
        before = self.store.counters.snapshot()
        opened = slots.open_slots(self._cipher, self.store.batch_get(self._keys), n, size)
        rows = np.frombuffer(opened, np.uint8).reshape(n, size)
        keys = rows[:, 8:RECORD_HEADER].view(">u8")[:, 0]  # the key column
        hits = sorted((unpack_record(row.tobytes())  # the records own their payloads
                       for row in rows[(q.a <= keys) & (keys <= q.b)]), key=lambda r: r.rid)
        after = self.store.counters
        return QueryResult(
            records=hits, true_count=len(hits), fetched_count=n,
            failed=False, per_oram_requests=[],
            roundtrips=after.roundtrips - before.roundtrips,
            bytes_up=after.bytes_up - before.bytes_up,
            bytes_down=after.bytes_down - before.bytes_down)

    def close(self) -> None:
        self.store.close()


def run_experiment(spec: ExperimentSpec, clock=None, dataset: str | None = None,
                   queries_file: str | None = None,
                   data_dir: str | Path | None = None) -> ExperimentResult:
    """Set up the chosen deployment, run the workload, collect metrics."""
    clock = clock or time.perf_counter
    db, qs = _resolve_workload(spec, dataset, queries_file)
    scan = spec.mode == "linear-scan"
    if scan:
        dep = _Scan(spec, db, data_dir)
    else:
        config = EngineConfig(
            domain=spec.domain, record_size=spec.record_size, m=spec.m,
            mode=spec.mode, epsilon=spec.epsilon, beta=spec.beta,
            fanout=spec.fanout)
        dep = setup(db, config, spec.storage, spec.seed, data_dir)
    try:
        rows: list[dict] = []
        answers: list[list[int]] = []
        for i, q in enumerate(qs):
            t0 = clock()
            res = dep.query(q) if scan else query(dep, q)
            rows.append(_metric_row(i, (clock() - t0) * 1000.0, res))
            answers.append([r.rid for r in res.records])
        stored = ((dep.server_bytes, 0) if scan
                  else (dep.oram_storage_bytes(), dep.sanitizer_bytes()))
        summary = _summarize(spec, rows, len(db) * spec.record_size, *stored)
    finally:
        dep.close()
    return ExperimentResult(spec, rows, summary, summary["failed"], answers)
