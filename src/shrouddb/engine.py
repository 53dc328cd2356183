"""Query engine: partitioned ORAM stores behind a DP volume shield.

Records are split pseudorandomly across ``m`` independent ORAMs. A
query resolves matching records to ORAM addresses through a local
sorted-array index and two placement arrays, asks a DP sanitizer for
a noisy overcount, and plans each ORAM's fetch as its matches followed
by reads of uniformly random non-matching records up to its share of
the noisy count. An ORAM batch reads and writes the sorted union of its
paths and remaps every leaf afresh, so the order of a plan never shows:
the server observes uniform path reads and a DP number of them.

Three volume modes:

* ``single``: one ORAM, one sanitizer, fetch exactly the noisy count;
* ``gamma``: m ORAMs share one sanitizer; every ORAM fetches an equal
  slice of the noisy count, inflated by a load factor so that w.h.p.
  no partition's true matches exceed its slice;
* ``no-gamma``: every ORAM keeps its own sanitizer over its own
  records and fetches its own noisy count (budgets compose by max
  since the partitions are disjoint).

Setup handles records in bulk: one ``partition_of`` call maps every
record to its ORAM, and each partition, packed into one row array
right before its load, becomes a tree built on the client (``oram_init``,
address ``a`` holding row ``a``) and uploaded once.
With no seed, keys and all randomness come from OS entropy; a seed
makes the whole deployment replay exactly.

Storage: a deployment runs on one store, the caller's ``Kvs`` or the
one ``setup`` opens from a ``--storage`` spec (one connection for
``remote=``). ORAM j keeps its buckets under key namespace ``j - 1``,
behind its own ``CountingKvs``. Each touched ORAM costs a query one
``batch_get`` and one ``batch_put``. The query's thread runs ORAM 1's
batch while threads of the query run the rest. The sanitizers never
leave the client: the server learns their noisy counts only through
how many records each query fetches.
"""

from __future__ import annotations

import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from shrouddb import bptree, sanitizer
from shrouddb.crypto import keygen, partition_of
from shrouddb.data import (RECORD_HEADER, Database, Query, Record, check_payloads, pack_records,
                           unpack_record)
from shrouddb.errors import (
    BudgetError,
    DataError,
    ParameterError,
    QueryError,
)
from shrouddb.oram import OramConfig, OramState, oram_init, read_op
from shrouddb.rng import derive_stream, system_rng
from shrouddb.storage import META_NAMESPACE, CountingKvs, Kvs, connect

__all__ = [
    "EngineConfig",
    "EngineState",
    "QueryResult",
    "setup",
    "query",
    "quotas",
    "register_attribute",
    "compute_gamma",
    "MODES",
]

MODES = ("single", "gamma", "no-gamma")


def compute_gamma(m: int, beta: float, k0: int) -> float:
    """Load inflation so that w.h.p. no partition holds more than
    ``(1 + gamma) * k0 / m`` of ``k0`` records spread over ``m`` bins."""
    if m < 1:
        raise ParameterError("partition count must be >= 1")
    sanitizer.check_privacy(beta=beta)
    if k0 < 1:
        raise ParameterError("count must be >= 1")
    return math.sqrt(-3.0 * m * math.log(beta) / k0)


@dataclass(frozen=True)
class EngineConfig:
    """Deployment shape: partitioning, volume mode, privacy budget."""

    domain: int
    record_size: int
    m: int = 1
    mode: str = "gamma"
    epsilon: float = math.log(2)
    beta: float = 2.0 ** -20
    fanout: int = 16
    budget: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not 1 <= self.m <= META_NAMESPACE:  # ORAM j keys its buckets under j - 1
            raise ParameterError(f"partition count must be in [1, {META_NAMESPACE}]")
        if self.mode == "single" and self.m != 1:
            raise ParameterError("single mode uses exactly one ORAM")
        if self.domain < 1:
            raise ParameterError("domain size must be >= 1")
        if self.record_size < 1:
            raise ParameterError("record size must be >= 1")
        sanitizer.check_privacy(self.epsilon, self.beta)
        if self.fanout < 2:
            raise ParameterError("sanitizer fanout must be >= 2")
        if self.budget is not None:
            sanitizer.check_privacy(self.budget)
            if self.budget < self.epsilon:
                raise BudgetError(f"budget {self.budget} below first epsilon {self.epsilon}")


@dataclass
class QueryResult:
    """Records plus the observable cost of retrieving them."""

    records: list[Record]
    true_count: int
    fetched_count: int
    failed: bool
    per_oram_requests: list[int]
    roundtrips: int
    bytes_up: int
    bytes_down: int


@dataclass
class EngineState:
    """Client-side state: keys, maps, stashes, sanitizers, index.

    ``rids``, ``oram_of``, ``addr`` and each of ``columns`` are aligned
    with the records as ``setup`` got them: record ``i`` has id
    ``rids[i]`` and lives in ORAM ``oram_of[i]`` (1..m) at address
    ``addr[i]``, its place within that partition. No payload is kept.
    ``columns`` holds setup's checked int64 copy of each column not yet
    indexed; registering a column moves it into ``indexed``.
    """

    config: EngineConfig
    rids: np.ndarray                         # record position -> record id
    columns: dict[str, np.ndarray]           # column -> its value per record
    orams: list[OramState]
    oram_of: np.ndarray                      # record position -> ORAM id
    addr: np.ndarray                         # record position -> address
    n_per: list[int]                         # records per ORAM
    # column -> (index, [shared] or [per-ORAM...] sanitizers, epsilon)
    indexed: dict[str, tuple[bptree.SortedIndex, list, float]]
    noise_rngs: list[random.Random]
    seed: int | None
    opened: Kvs | None = None                # the store setup opened, closed with the state
    _busy: threading.Lock = field(default_factory=threading.Lock)

    def close(self) -> None:
        """Wait for any query, close the store setup opened, drop the keys."""
        with self._busy:
            if self.opened is not None:
                self.opened.close()
                self.opened = None
            self.orams = []

    def __enter__(self) -> "EngineState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def oram_storage_bytes(self) -> int:
        return sum(st.n_buckets * st.bucket_bytes for st in self.orams)

    def sanitizer_bytes(self) -> int:
        """The sanitizers' size on the client, 8 bytes per counter."""
        return sum(8 * len(ds.counts) for _, group, _ in self.indexed.values() for ds in group)


def _stream(seed: int | None, label: str) -> random.Random:
    """The ``label`` stream of a seeded deployment; OS entropy without a seed."""
    return system_rng() if seed is None else derive_stream(seed, label)


def setup(db: Database, config: EngineConfig, storage, seed: int | None = None,
          data_dir=None) -> EngineState:
    """Partition, encrypt and upload the database; build sanitizers and
    the local index. Each ORAM tree is built on the client, already
    holding its records, and written once.

    Keys and all randomness derive from ``seed``, so a seeded setup
    replays exactly; with ``seed=None`` they come from OS entropy.

    Every payload must be ``record_size`` bytes, and every column, the
    records' keys and each of ``db.attributes``, must hold one integer
    in ``[0, domain)`` per record; otherwise nothing is stored and a
    ``DataError`` names the record or the column."""
    m, n = config.m, len(db.records)
    rids, keys = [r.rid for r in db.records], [r.key for r in db.records]
    check_payloads(db.records, config.record_size)
    columns = {}
    for name, column in {**db.attributes, "key": keys}.items():  # the records' keys win
        values = np.asarray(column)
        # the kind test comes first, so no comparison meets a str or an object
        if values.shape != (n,) or n and (values.dtype.kind not in "iu" or
                                          ((values < 0) | (values >= config.domain)).any()):
            raise DataError(f"column {name!r} must hold {n} integers in [0, {config.domain})")
        columns[name] = values.astype(np.int64)  # a copy, never the caller's column
    oram_of = _partition(seed, rids, m)

    store = storage if isinstance(storage, Kvs) else connect(storage, data_dir)
    state = EngineState(
        config=config, rids=np.array(rids, dtype=np.uint64), columns=columns, orams=[],
        oram_of=oram_of, addr=np.empty(n, np.int64), n_per=[], indexed={},
        noise_rngs=[_stream(seed, f"noise:{j}") for j in range(1, m + 1)],
        seed=seed, opened=None if store is storage else store,
    )
    try:
        for j in range(1, m + 1):
            where = np.flatnonzero(oram_of == j)
            state.addr[where] = np.arange(len(where))  # a record's place in its partition
            state.n_per.append(len(where))
            cfg = OramConfig(capacity=len(where) + 1,
                             block_payload=RECORD_HEADER + config.record_size)
            rows = pack_records([db.records[i] for i in where.tolist()], config.record_size)
            state.orams.append(oram_init(cfg, keygen(_stream(seed, f"key:oram:{j}")),
                                         CountingKvs(store), _stream(seed, f"oram:{j}"),
                                         namespace=j - 1, rows=rows))
            del rows  # so one partition's rows are alive at a time
        _install_attribute(state, "key", config.epsilon)
    except BaseException:
        state.close()  # a failed setup keeps no connection, file or thread open
        raise
    return state


def _partition(seed: int | None, rids, m: int) -> np.ndarray:
    """Each record's ORAM (1..m) in the deployment ``seed`` sets up."""
    return partition_of(keygen(_stream(seed, "key:hash")), rids, m)


def _sanitizers(config: EngineConfig, values: np.ndarray, oram_of: np.ndarray,
                seed: int | None, attribute: str, epsilon: float) -> list:
    """One column's sanitizers over the domain padded to a power of the
    fanout: one shared, or in ``no-gamma`` mode one per ORAM."""
    k = N = config.fanout
    while N < config.domain:
        N *= k
    if config.mode == "no-gamma":
        return [sanitizer.build_range_sanitizer(
                    values[oram_of == j], N, k, epsilon, config.beta,
                    _stream(seed, f"sanitizer:{attribute}:{j}"))
                for j in range(1, config.m + 1)]
    return [sanitizer.build_range_sanitizer(values, N, k, epsilon, config.beta,
                                            _stream(seed, f"sanitizer:{attribute}:0"))]


def _install_attribute(state: EngineState, attribute: str, epsilon: float) -> None:
    values = state.columns[attribute]
    group = _sanitizers(state.config, values, state.oram_of, state.seed, attribute, epsilon)
    state.indexed[attribute] = (bptree.create_index(values), group, epsilon)
    del state.columns[attribute]


def register_attribute(state: EngineState, attribute: str, epsilon: float) -> None:
    """Index and sanitize one more column, charging its budget; the
    server sees nothing of it.

    Columns live over the same records, so budgets add up; the total
    must stay within ``config.budget`` when one is set. Like ``query``,
    it refuses a closed state and does not run beside a query.
    """
    sanitizer.check_privacy(epsilon)
    with _exclusive(state):
        if attribute in state.indexed:
            raise ParameterError(f"attribute {attribute!r} already registered")
        if state.config.budget is not None:
            spent = spent_budget(state) + epsilon
            if spent > state.config.budget + 1e-12:
                raise BudgetError(f"budget {state.config.budget} exceeded: "
                                  f"registering {attribute!r} needs {spent:.6f}")
        if attribute not in state.columns:
            raise DataError(f"no column named {attribute!r}")
        _install_attribute(state, attribute, epsilon)


def spent_budget(state: EngineState) -> float:
    """Total privacy budget across registered attributes."""
    return sanitizer.compose([e for *_, e in state.indexed.values()], disjoint=False)


def quotas(config: EngineConfig, sanitizers: list, a: int, b: int) -> list[int]:
    """Each ORAM's fetch for the range ``[a, b]``: in ``no-gamma`` mode its
    own noisy count, else an equal share of the shared one, inflated by
    ``compute_gamma`` in ``gamma`` mode; more matches fail the query."""
    if config.mode == "no-gamma":
        return [sanitizer.sanitizer_query(ds, a, b) for ds in sanitizers]
    share = k0 = sanitizer.sanitizer_query(sanitizers[0], a, b)
    if config.mode == "gamma" and k0 > 0:
        share = math.ceil((1.0 + compute_gamma(config.m, config.beta, k0)) * k0 / config.m)
    return [share] * config.m


def _noise_addresses(n_j: int, taken: set[int], need: int,
                     rng: random.Random) -> list[int]:
    """``need`` distinct addresses drawn uniformly from ``[0, n_j)``
    outside ``taken``; when the partition runs out, the reserved
    never-written address ``n_j`` pads the rest."""
    if need <= 0:
        return []
    # a uniform sample in random order; its first ``need`` untaken
    # addresses are a uniform choice among all untaken ones
    picks = [a for a in rng.sample(range(n_j), min(n_j, need + len(taken)))
             if a not in taken][:need]
    return picks + [n_j] * (need - len(picks))


@contextmanager
def _exclusive(state: EngineState):
    """Hold ``state`` for one query or registration: a second one at the
    same time, or a closed state, is a ``QueryError``."""
    if not state._busy.acquire(blocking=False):
        raise QueryError("another query is running on this state")
    try:
        if not state.orams:
            raise QueryError("the state is closed")
        yield
    finally:
        state._busy.release()


def query(state: EngineState, q: Query) -> QueryResult:
    """Answer ``q`` exactly while the server sees only the noisy volume.

    If a noisy count undershoots the truth the query is marked failed
    (volume hiding broke for it) but still answers correctly. One query
    runs on a state at a time; a second concurrent call raises
    ``QueryError`` rather than interleave ORAM batches.
    """
    with _exclusive(state):
        config = state.config
        if q.attribute not in state.indexed:
            raise QueryError(f"attribute {q.attribute!r} is not indexed")
        if not 0 <= q.a <= q.b < config.domain:
            raise QueryError(f"range [{q.a}, {q.b}] outside domain [0, {config.domain})")

        # the plan: each ORAM's matching record positions, in index order,
        # and its quota; no storage call, no padding drawn
        m = config.m
        index, dss, _ = state.indexed[q.attribute]
        pos = bptree.lookup(index, q)
        matches = [pos[state.oram_of[pos] == j] for j in range(1, m + 1)]
        quota = quotas(config, dss, q.a, q.b)
        failed = any(len(t) > k for t, k in zip(matches, quota))

        # the fetch: each ORAM reads its matches first, then its padding
        addrs = [state.addr[t].tolist() for t in matches]
        plans = [t + _noise_addresses(n_j, set(t), k - len(t), rng)
                 for t, n_j, k, rng in zip(addrs, state.n_per, quota, state.noise_rngs)]

        counters = [st.store.counters for st in state.orams]
        before = [c.snapshot() for c in counters]

        def fetch(j: int) -> list[bytes]:
            if not plans[j]:
                return []
            return state.orams[j].batch_access([read_op(a) for a in plans[j]])

        # ORAMs 2..m start first, then this thread runs ORAM 1; leaving the
        # block waits for every batch, so a failure is raised once none runs
        with ThreadPoolExecutor(max_workers=m) as pool:
            futures = [pool.submit(fetch, j) for j in range(1, m)]
            blocks = [fetch(0)]
        blocks += [f.result() for f in futures]

        found: list[Record] = []
        for j in range(m):
            for rid, blob in zip(state.rids[matches[j]].tolist(), blocks[j]):  # matches come first
                got = unpack_record(blob)
                if got.rid != rid:
                    raise DataError(f"store returned record {got.rid} for id {rid}")
                found.append(got)
        found.sort(key=lambda r: r.rid)

        after = [c.snapshot() for c in counters]
        rt = sum(s.roundtrips - b.roundtrips for b, s in zip(before, after))
        up = sum(s.bytes_up - b.bytes_up for b, s in zip(before, after))
        down = sum(s.bytes_down - b.bytes_down for b, s in zip(before, after))
        return QueryResult(
            records=found, true_count=len(pos), fetched_count=sum(map(len, plans)),
            failed=failed, per_oram_requests=[len(p) for p in plans],
            roundtrips=rt, bytes_up=up, bytes_down=down,
        )
