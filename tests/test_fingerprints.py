"""Golden server-view fingerprints.

Seeded deployments record what the server sees, per key namespace: the
sequence of (operation, key, value length) for setup and 40 queries,
hashed with SHA-256 beside each query's fetched count, round trips and
bytes. Namespaces are hashed apart because their interleaving depends on
thread timing; nonces come from OS entropy and never enter a hash.
Sealed buckets hide where the blocks lie, so the engine's fingerprints
also hash each ORAM's decrypted placement and stash order after the
queries: a change to eviction shows there and nowhere else.

A change that alters the server view on purpose updates these constants
in the same diff and names the change as its audit; any other change
must leave them as they are.
"""

import hashlib
import struct
from contextlib import contextmanager

import pytest
from conftest import RecordingKvs, tree_blocks

from shrouddb import bench
from shrouddb.bench import ExperimentSpec, generate_dataset, generate_queries, run_experiment
from shrouddb.engine import EngineConfig, query, setup
from shrouddb.storage import INDEX_BITS, KEY_SIZE

WORKLOAD = dict(n=4000, domain=1000, record_size=64, selectivity=0.01, queries=40, seed=11)

ENGINE = {
    "gamma-3": dict(mode="gamma", m=3),
    "single": dict(mode="single"),
    "no-gamma-3": dict(mode="no-gamma", m=3),
}

# first 16 hex digits of each SHA-256: "ns<j>" is key namespace j,
# "tree<j>" the placement in the ORAM stored under namespace j
GOLDEN = {
    "gamma-3": {"ns0": "2ef97d3e17936341", "ns1": "75294ee0961c4bca", "ns2": "23d6e8fafb4c134e",
                "tree0": "4483d3060c7229a0",
                "tree1": "ace366d08fcae373", "tree2": "9fcb1538a3bcebb5",
                "queries": "ebed1908a7fadecd"},
    "single": {"ns0": "f85c7556d16b246a",
               "tree0": "665d9ab1a63ddcf7", "queries": "0eca8260d3df382a"},
    "no-gamma-3": {"ns0": "94d1e4e4caab9187", "ns1": "5d2cf3bb6bb9c20c", "ns2": "b60ccf553c80d84c",
                   "tree0": "5e65364d02d96bb3",
                   "tree1": "548c249e44c9c3c7", "tree2": "3eae74732369cd83",
                   "queries": "4a6c913ca41e6715"},
}

GOLDEN_SCAN = {"ns0": "5c4dda3560bfb968", "queries": "a63ef0783857b05a"}

# the single deployment over the disk log, per namespace of its records
GOLDEN_DISK = {"ns0": "e3cffa37b84ff392",
               "queries": "0eca8260d3df382a"}


def _digest(h) -> str:
    return h.hexdigest()[:16]


def _queries(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for r in rows:
        h.update(struct.pack(">4q", *(r[f] for f in ("fetched_count", "roundtrips",
                                                     "bytes_up", "bytes_down"))))
    return _digest(h)


def _view(log: dict[int, list]) -> dict[str, str]:
    out = {}
    for ns, ops in sorted(log.items()):
        h = hashlib.sha256()
        for op, pairs in ops:
            h.update(op.encode() + struct.pack(">I", len(pairs)))
            for key, size in pairs:
                h.update(key + struct.pack(">q", -1 if size is None else size))
        out[f"ns{ns}"] = _digest(h)
    return out


def _placement(st) -> str:
    h = hashlib.sha256()
    for addr, bucket in sorted(tree_blocks(st).items()):
        h.update(struct.pack(">2q", addr, bucket))
    h.update(b"stash" + b"".join(struct.pack(">q", a) for a in st.stash))
    return _digest(h)


def _workload():
    w = WORKLOAD
    db = generate_dataset(w["n"], w["domain"], w["record_size"], w["seed"])
    return db, generate_queries(w["domain"], w["selectivity"], w["queries"], w["seed"])


def _config(deployment) -> EngineConfig:
    return EngineConfig(domain=WORKLOAD["domain"], record_size=WORKLOAD["record_size"],
                        **deployment)


@contextmanager
def _deployed(deployment, storage):
    """Set up ``deployment`` on ``storage`` and run the workload; yields
    the open state and the query results."""
    db, qs = _workload()
    with setup(db, _config(deployment), storage, WORKLOAD["seed"]) as state:
        yield state, [query(state, q) for q in qs]


@pytest.mark.parametrize("name", ENGINE)
def test_engine_fingerprint(name):
    kvs = RecordingKvs()
    with _deployed(ENGINE[name], kvs) as (state, results):
        assert not any(r.failed for r in results)
        got = {**_view(kvs.take()), "queries": _queries(list(map(vars, results)))}
        got.update((f"tree{j}", _placement(st)) for j, st in enumerate(state.orams))
    assert got == GOLDEN[name]


def test_linear_scan_fingerprint(monkeypatch):
    kvs = RecordingKvs()
    monkeypatch.setattr(bench, "connect", lambda spec, data_dir=None: kvs)
    result = run_experiment(ExperimentSpec(**WORKLOAD, mode="linear-scan"))
    assert result.failed_queries == 0
    assert {**_view(kvs.take()), "queries": _queries(result.rows)} == GOLDEN_SCAN


def _log_records(path) -> dict[int, list[tuple[bytes, int]]]:
    """The (key, value length) records of a disk log, per namespace."""
    data = path.read_bytes()
    out: dict[int, list] = {}
    off = 0
    while off < len(data):
        key = data[off:off + KEY_SIZE]
        (size,) = struct.unpack(">I", data[off + KEY_SIZE:off + KEY_SIZE + 4])
        out.setdefault(int.from_bytes(key, "big") >> INDEX_BITS, []).append((key, size))
        off += KEY_SIZE + 4 + size
    assert off == len(data)
    return out


def test_disk_log_fingerprint(tmp_path):
    """The disk log's records, hashed per namespace. Buckets are
    overwritten in place, so after the queries the log holds the very
    (key, size) records it held right after setup."""
    db, qs = _workload()
    log = tmp_path / "store.log"
    with setup(db, _config(ENGINE["single"]), "disk", WORKLOAD["seed"], tmp_path) as state:
        after_setup = _log_records(log)
        results = [query(state, q) for q in qs]
    records = _log_records(log)
    assert records == after_setup
    got = {}
    for ns, entries in records.items():
        h = hashlib.sha256()
        for key, size in entries:
            h.update(key + struct.pack(">q", size))
        got[f"ns{ns}"] = _digest(h)
    assert {**got, "queries": _queries(list(map(vars, results)))} == GOLDEN_DISK
