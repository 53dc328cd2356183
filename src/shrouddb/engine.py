"""Query engine: partitioned ORAM stores behind a DP volume shield.

Records are split pseudorandomly across ``m`` independent ORAMs. A
query resolves matching records to ORAM addresses through a local
sorted-array index and two placement arrays, asks a DP
sanitizer for a noisy overcount, and pads each ORAM's fetch list with
reads of random non-matching records up to its share of the noisy
count, so the storage server observes only uniform path reads and a
differentially private number of them.

Three volume modes:

* ``single``: one ORAM, one sanitizer, fetch exactly the noisy count;
* ``gamma``: m ORAMs share one sanitizer; every ORAM fetches an equal
  slice of the noisy count, inflated by a load factor so that w.h.p.
  no partition's true matches exceed its slice;
* ``no-gamma``: every ORAM keeps its own sanitizer over its own
  records and fetches its own noisy count (budgets compose by max
  since the partitions are disjoint).

Setup places each partition's records in its ORAM tree on the client
and uploads the tree once (``oram_init`` with the records as its
initial blocks); there is no bulk load through the access protocol.
With no seed, keys and all randomness come from OS entropy; a seed
makes the whole deployment replay exactly.

Storage: ORAM j keeps its buckets under key namespace ``j - 1`` and
the serialized sanitizers go under ``META_NAMESPACE``, one
``batch_put`` per attribute. Each touched ORAM costs a query one
``batch_get`` and one ``batch_put``, counted by its ``CountingKvs``.
"""

from __future__ import annotations

import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from shrouddb import bptree, sanitizer
from shrouddb.crypto import SymKey, keygen, partition_of
from shrouddb.data import Database, Query, Record
from shrouddb.errors import (
    BudgetError,
    DataError,
    ParameterError,
    QueryError,
)
from shrouddb.oram import OramConfig, OramState, oram_init, read_op
from shrouddb.rng import derive_stream, system_rng
from shrouddb.storage import (
    META_NAMESPACE,
    CountingKvs,
    Kvs,
    bucket_key,
    connect,
    parse_backend,
)

__all__ = [
    "EngineConfig",
    "EngineState",
    "QueryResult",
    "setup",
    "query",
    "register_attribute",
    "compute_gamma",
    "MODES",
]

MODES = ("single", "gamma", "no-gamma")

RID_SIZE = 8
KEY_SIZE = 8


def compute_gamma(m: int, beta: float, k0: int) -> float:
    """Load inflation so that w.h.p. no partition holds more than
    ``(1 + gamma) * k0 / m`` of ``k0`` records spread over ``m`` bins."""
    if m < 1:
        raise ParameterError("partition count must be >= 1")
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must be in (0, 1)")
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
    lambda_sec: int = 128
    Z: int = 5
    budget: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.m < 1:
            raise ParameterError("partition count must be >= 1")
        if self.mode == "single" and self.m != 1:
            raise ParameterError("single mode uses exactly one ORAM")
        if self.domain < 1:
            raise ParameterError("domain size must be >= 1")
        if self.record_size < 1:
            raise ParameterError("record size must be >= 1")
        if self.epsilon <= 0.0:
            raise ParameterError("epsilon must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ParameterError("beta must be in (0, 1)")
        if self.fanout < 2:
            raise ParameterError("sanitizer fanout must be >= 2")
        if self.budget is not None and self.budget < self.epsilon:
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
    oram_accesses: int


@dataclass
class EngineState:
    """Client-side state: keys, maps, stashes, sanitizers, index.

    ``oram_of`` and ``addr`` are aligned with ``db.records``: record
    ``i`` lives in ORAM ``oram_of[i]`` (1..m) at address ``addr[i]``,
    its place within that partition.
    """

    config: EngineConfig
    db: Database
    padded_domain: int
    hash_key: SymKey
    orams: list[OramState]
    counters: list
    oram_of: np.ndarray                      # record position -> ORAM id
    addr: np.ndarray                         # record position -> address
    n_per: list[int]                         # records per ORAM
    indexes: dict[str, bptree.SortedIndex]
    sanitizers: dict[str, list]              # attr -> [shared] or [per-ORAM...]
    budgets: dict[str, float]
    noise_rngs: list[random.Random]
    seed: int | None
    meta_store: Kvs
    owned_stores: list[Kvs] = field(default_factory=list)
    _pool: ThreadPoolExecutor | None = None
    _meta_slot: int = 0
    _busy: threading.Lock = field(default_factory=threading.Lock)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for store in self.owned_stores:
            store.close()
        self.owned_stores = []

    def __enter__(self) -> "EngineState":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def oram_storage_bytes(self) -> int:
        return sum(st.n_buckets * st.bucket_bytes for st in self.orams)

    def sanitizer_bytes(self) -> int:
        return sum(len(sanitizer.serialize(ds))
                   for group in self.sanitizers.values() for ds in group)


def _pad_domain(domain: int, k: int) -> int:
    n = k
    while n < domain:
        n *= k
    return n


def _block(rid: int, key: int, payload: bytes) -> bytes:
    return rid.to_bytes(RID_SIZE, "big") + key.to_bytes(KEY_SIZE, "big") + payload


def _parse_block(blob: bytes) -> tuple[int, int, bytes]:
    rid = int.from_bytes(blob[:RID_SIZE], "big")
    key = int.from_bytes(blob[RID_SIZE:RID_SIZE + KEY_SIZE], "big")
    return rid, key, blob[RID_SIZE + KEY_SIZE:]


def _open_stores(config: EngineConfig, storage, data_dir):
    """One Kvs per ORAM plus one for metadata, and the ones setup opened.

    A caller-supplied store or a shared in-process one serves every
    ORAM (each backend holds its own lock across a batch); a
    ``remote=`` spec gets one connection per ORAM so batches can fly in
    parallel. The ORAMs and the metadata keep apart by key namespace.
    """
    if isinstance(storage, Kvs):
        return [storage] * config.m, storage, []
    if parse_backend(storage)[0] == "remote":
        owned = [connect(storage) for _ in range(config.m + 1)]
        return owned[:-1], owned[-1], owned
    shared = connect(storage, data_dir)
    return [shared] * config.m, shared, [shared]


def _stream(seed: int | None, label: str) -> random.Random:
    """The ``label`` stream of a seeded deployment; OS entropy without a seed."""
    return system_rng() if seed is None else derive_stream(seed, label)


def setup(db: Database, config: EngineConfig, storage, seed: int | None = None,
          data_dir=None) -> EngineState:
    """Partition, encrypt and upload the database; build sanitizers and
    the local index. Each ORAM tree is built on the client, already
    holding its records, and written once.

    Keys and all randomness derive from ``seed``, so a seeded setup
    replays exactly; with ``seed=None`` they come from OS entropy."""
    for r in db.records:
        if len(r.payload) != config.record_size:
            raise DataError(f"record {r.rid} payload is {len(r.payload)} bytes, "
                            f"expected {config.record_size}")
        if not 0 <= r.key < config.domain:
            raise DataError(f"record {r.rid} key {r.key} outside [0, {config.domain})")

    m = config.m
    hash_key = keygen(config.lambda_sec, _stream(seed, "key:hash"))
    groups: list[list[Record]] = [[] for _ in range(m)]
    oram_of: list[int] = []
    addr: list[int] = []
    for r in db.records:
        j = partition_of(hash_key, r.rid, m)
        oram_of.append(j)
        addr.append(len(groups[j - 1]))  # a record's address is its place in its partition
        groups[j - 1].append(r)
    n_per = [len(g) for g in groups]

    oram_stores, meta_store, owned = _open_stores(config, storage, data_dir)
    state = EngineState(
        config=config, db=db, padded_domain=_pad_domain(config.domain, config.fanout),
        hash_key=hash_key, orams=[], counters=[],
        oram_of=np.array(oram_of, dtype=np.int64), addr=np.array(addr, dtype=np.int64),
        n_per=n_per, indexes={}, sanitizers={}, budgets={},
        noise_rngs=[_stream(seed, f"noise:{j}") for j in range(1, m + 1)],
        seed=seed, meta_store=meta_store, owned_stores=owned,
        _pool=ThreadPoolExecutor(max_workers=m) if m > 1 else None,
    )
    block_payload = RID_SIZE + KEY_SIZE + config.record_size
    try:
        for j in range(1, m + 1):
            counting = CountingKvs(oram_stores[j - 1])
            state.counters.append(counting.counters)
            oram_key = keygen(config.lambda_sec, _stream(seed, f"key:oram:{j}"))
            oram_rng = _stream(seed, f"oram:{j}")
            cfg = OramConfig(capacity=n_per[j - 1] + 1, block_payload=block_payload,
                             Z=config.Z)
            blocks = [(a, _block(r.rid, r.key, r.payload))
                      for a, r in enumerate(groups[j - 1])]
            state.orams.append(oram_init(cfg, oram_key, counting, oram_rng,
                                         namespace=j - 1, blocks=blocks))
        _install_attribute(state, "key", config.epsilon)
    except BaseException:
        state.close()  # a failed setup keeps no connection, file or thread open
        raise
    return state


def _install_attribute(state: EngineState, attribute: str, epsilon: float) -> None:
    config = state.config
    column = state.db.column(attribute)
    for v in column:
        if not 0 <= v < config.domain:
            raise DataError(f"column {attribute!r} value {v} outside "
                            f"[0, {config.domain})")
    state.indexes[attribute] = bptree.create_index(column)

    N, k = state.padded_domain, config.fanout
    if config.mode == "no-gamma":
        group = []
        values = np.asarray(column)
        for j in range(1, config.m + 1):
            keys = values[state.oram_of == j].tolist()
            rng = _stream(state.seed, f"sanitizer:{attribute}:{j}")
            group.append(sanitizer.build_range_sanitizer(
                keys, N, k, epsilon, config.beta, rng))
    else:
        rng = _stream(state.seed, f"sanitizer:{attribute}:0")
        group = [sanitizer.build_range_sanitizer(
            column, N, k, epsilon, config.beta, rng)]
    state.sanitizers[attribute] = group
    state.budgets[attribute] = epsilon
    slot = state._meta_slot
    state.meta_store.batch_put([(bucket_key(slot + i, META_NAMESPACE), sanitizer.serialize(ds))
                                for i, ds in enumerate(group)])
    state._meta_slot += len(group)


def register_attribute(state: EngineState, attribute: str, epsilon: float) -> None:
    """Index and sanitize one more column, charging its budget.

    Columns live over the same records, so budgets add up; the total
    must stay within ``config.budget`` when one is set.
    """
    if epsilon <= 0.0:
        raise ParameterError("epsilon must be positive")
    if attribute in state.indexes:
        raise ParameterError(f"attribute {attribute!r} already registered")
    if state.config.budget is not None:
        spent = sanitizer.compose(list(state.budgets.values()) + [epsilon],
                                  disjoint=False)
        if spent > state.config.budget + 1e-12:
            raise BudgetError(f"budget {state.config.budget} exceeded: "
                              f"registering {attribute!r} needs {spent:.6f}")
    _install_attribute(state, attribute, epsilon)


def spent_budget(state: EngineState) -> float:
    """Total privacy budget across registered attributes."""
    return sanitizer.compose(list(state.budgets.values()), disjoint=False)


def _noise_addresses(n_j: int, taken: set[int], need: int,
                     rng: random.Random) -> list[int]:
    """``need`` distinct addresses outside ``taken``; when the partition
    runs out, the reserved never-written address ``n_j`` pads the rest."""
    avail = n_j - len(taken)
    take = min(need, avail)
    picks: list[int] = []
    if take > 0:
        if take * 3 >= avail:
            pool = [a for a in range(n_j) if a not in taken]
            picks = rng.sample(pool, take)
        else:
            chosen: set[int] = set()
            while len(picks) < take:
                a = rng.randrange(n_j)
                if a not in taken and a not in chosen:
                    chosen.add(a)
                    picks.append(a)
    picks.extend([n_j] * (need - take))
    return picks


def query(state: EngineState, q: Query) -> QueryResult:
    """Answer ``q`` exactly while the server sees only the noisy volume.

    If a noisy count undershoots the truth the query is marked failed
    (volume hiding broke for it) but still answers correctly. One query
    runs on a state at a time; a second concurrent call raises
    ``QueryError`` rather than interleave ORAM batches.
    """
    if not state._busy.acquire(blocking=False):
        raise QueryError("another query is running on this state")
    try:
        return _query(state, q)
    finally:
        state._busy.release()


def _query(state: EngineState, q: Query) -> QueryResult:
    config = state.config
    if q.attribute not in state.indexes:
        raise QueryError(f"attribute {q.attribute!r} is not indexed")
    if not 0 <= q.a <= q.b < config.domain:
        raise QueryError(f"range [{q.a}, {q.b}] outside domain [0, {config.domain})")

    m = config.m
    records = state.db.records
    # matching record positions in rid order, the order each ORAM's read plan lists them
    pos = sorted(bptree.lookup(state.indexes[q.attribute], q).tolist(),
                 key=lambda i: records[i].rid)
    t_pos: list[list[int]] = [[] for _ in range(m)]
    t_addrs: list[list[int]] = [[] for _ in range(m)]
    for i, j, a in zip(pos, state.oram_of[pos].tolist(), state.addr[pos].tolist()):
        t_pos[j - 1].append(i)
        t_addrs[j - 1].append(a)
    dss = state.sanitizers[q.attribute]

    failed = False
    quotas: list[int] = []
    if config.mode == "no-gamma":
        for j in range(m):
            quotas.append(sanitizer.sanitizer_query(dss[j], q.a, q.b))
    else:
        k0 = sanitizer.sanitizer_query(dss[0], q.a, q.b)
        if config.mode == "single":
            quotas = [k0]
        else:
            if k0 == 0:
                quotas = [0] * m
            else:
                gamma = compute_gamma(m, config.beta, k0)
                quotas = [math.ceil((1.0 + gamma) * k0 / m)] * m

    plans: list[list[int]] = []
    for j in range(m):
        t = t_addrs[j]
        if quotas[j] < len(t):
            failed = True
            reads = list(t)
        else:
            reads = t + _noise_addresses(
                state.n_per[j], set(t), quotas[j] - len(t), state.noise_rngs[j])
        state.noise_rngs[j].shuffle(reads)
        plans.append(reads)

    before = [c.snapshot() for c in state.counters]

    def fetch(j: int) -> list[bytes]:
        if not plans[j]:
            return []
        return state.orams[j].batch_access([read_op(a) for a in plans[j]])

    if state._pool is not None:
        blocks = list(state._pool.map(fetch, range(m)))
    else:
        blocks = [fetch(j) for j in range(m)]

    found: list[Record] = []
    for j in range(m):
        want = dict(zip(t_addrs[j], t_pos[j]))  # address -> record position
        for a, blob in zip(plans[j], blocks[j]):
            i = want.pop(a, None)
            if i is None:
                continue
            rid = records[i].rid
            got_rid, got_key, payload = _parse_block(blob)
            if got_rid != rid:
                raise DataError(f"store returned record {got_rid} for id {rid}")
            found.append(Record(got_rid, got_key, payload))
    found.sort(key=lambda r: r.rid)

    rt = up = down = 0
    for j, c in enumerate(state.counters):
        b, s = before[j], c.snapshot()
        rt += s.roundtrips - b.roundtrips
        up += s.bytes_up - b.bytes_up
        down += s.bytes_down - b.bytes_down
    fetched = sum(len(p) for p in plans)
    return QueryResult(
        records=found, true_count=len(pos), fetched_count=fetched,
        failed=failed, per_oram_requests=[len(p) for p in plans],
        roundtrips=rt, bytes_up=up, bytes_down=down, oram_accesses=fetched,
    )
