import math
import random
import threading

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shrouddb import slots
from shrouddb.bptree import lookup
from shrouddb.crypto import partition_of
from shrouddb.data import Database, Query, Record, point_query, range_query
from shrouddb.engine import (
    EngineConfig,
    compute_gamma,
    query,
    register_attribute,
    setup,
    spent_budget,
)
from shrouddb.errors import (
    BatchError,
    BudgetError,
    DataError,
    ParameterError,
    QueryError,
    StorageClosedError,
    StorageNotEmptyError,
)
from shrouddb.storage import INDEX_BITS, Kvs, MemoryKvs, bucket_key

LN2 = math.log(2)


def small_db(n=300, domain=100, rec=24, seed=1):
    r = random.Random(seed)
    return Database([Record(i, r.randrange(domain), r.randbytes(rec))
                     for i in range(n)])


def config(**kw):
    base = dict(domain=100, record_size=24, m=2, mode="gamma",
                epsilon=LN2, beta=2.0 ** -10, fanout=16)
    base.update(kw)
    return EngineConfig(**base)


@pytest.fixture(scope="module")
def deployed():
    db = small_db()
    state = setup(db, config(m=4), MemoryKvs(), seed=7)
    yield db, state
    state.close()


def expected(db, q: Query):
    col = db.column(q.attribute)
    return sorted(r.rid for r, v in zip(db.records, col) if q.a <= v <= q.b)


# -- compute_gamma -------------------------------------------------------------

def test_gamma_values():
    assert compute_gamma(8, 2.0 ** -20, 1000) == pytest.approx(0.576813, abs=1e-4)
    assert compute_gamma(1, math.exp(-1), 3) == 1.0


def test_gamma_validation():
    with pytest.raises(ParameterError):
        compute_gamma(0, 0.5, 10)
    with pytest.raises(ParameterError):
        compute_gamma(2, 0.0, 10)
    with pytest.raises(ParameterError):
        compute_gamma(2, 0.5, 0)


# -- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        config(mode="scan")
    with pytest.raises(ParameterError):
        config(mode="single", m=2)
    with pytest.raises(ParameterError):
        config(m=0)
    with pytest.raises(BudgetError):
        config(epsilon=1.0, budget=0.5)


def test_setup_validates_records():
    with pytest.raises(DataError):
        setup(Database([Record(0, 5, b"short")]), config(), MemoryKvs(), 1)
    with pytest.raises(DataError):
        setup(Database([Record(0, 100, bytes(24))]), config(), MemoryKvs(), 1)


def test_failed_setup_closes_what_it_opened(tmp_path, monkeypatch):
    from shrouddb import engine

    db = small_db()
    setup(db, config(m=2), "disk", 1, data_dir=tmp_path).close()
    opened = []

    def connect(*args):
        opened.append(real(*args))
        return opened[-1]

    real = engine.connect
    monkeypatch.setattr(engine, "connect", connect)
    with pytest.raises(StorageNotEmptyError):  # the first run's tree is still there
        setup(db, config(m=2), "disk", 1, data_dir=tmp_path)
    (store,) = opened
    with pytest.raises(StorageClosedError):
        store.batch_get([bucket_key(0)])


# -- correctness across modes ----------------------------------------------------

@pytest.mark.parametrize("mode,m", [("single", 1), ("gamma", 1), ("gamma", 4),
                                    ("no-gamma", 2), ("no-gamma", 4)])
def test_exact_answers(mode, m):
    db = small_db()
    state = setup(db, config(mode=mode, m=m), MemoryKvs(), seed=3)
    qr = random.Random(5)
    try:
        for _ in range(25):
            a = qr.randrange(100)
            b = min(99, a + qr.randrange(8))
            q = point_query(a) if a == b else range_query(a, b)
            res = query(state, q)
            assert [r.rid for r in res.records] == expected(db, q)
            for r in res.records:
                assert r.payload == db.records[r.rid].payload
                assert r.key == db.records[r.rid].key
    finally:
        state.close()


def test_results_sorted_by_rid(deployed):
    db, state = deployed
    res = query(state, range_query(0, 99))
    rids = [r.rid for r in res.records]
    assert rids == sorted(rids)
    assert rids == expected(db, range_query(0, 99))


# -- observable volumes -----------------------------------------------------------

def test_gamma_quotas_equal_across_orams(deployed):
    db, state = deployed
    res = query(state, range_query(10, 30))
    assert not res.failed
    assert len(set(res.per_oram_requests)) == 1
    assert res.fetched_count == sum(res.per_oram_requests)
    assert res.oram_accesses == res.fetched_count


def test_fetched_exceeds_true_by_sanitizer_margin(deployed):
    db, state = deployed
    res = query(state, range_query(20, 22))
    assert res.fetched_count >= res.true_count
    assert res.fetched_count > 0  # bias guarantees overcount


def test_two_round_trips_per_touched_oram(deployed):
    db, state = deployed
    res = query(state, range_query(5, 45))
    touched = sum(1 for c in res.per_oram_requests if c > 0)
    assert res.roundtrips == 2 * touched


def test_bytes_move_in_bucket_units(deployed):
    db, state = deployed
    st0 = state.orams[0]
    res = query(state, range_query(3, 9))
    assert res.bytes_down > 0
    assert res.bytes_down % st0.bucket_bytes == 0  # whole encrypted buckets


def test_volume_depends_only_on_keys():
    rec = 24
    r = random.Random(11)
    keys = [r.randrange(100) for _ in range(300)]
    db1 = Database([Record(i, k, r.randbytes(rec)) for i, k in enumerate(keys)])
    db2 = Database([Record(i, k, r.randbytes(rec)) for i, k in enumerate(keys)])

    def volumes(db):
        state = setup(db, config(m=3), MemoryKvs(), seed=13)
        try:
            return [query(state, range_query(a, a + 5)).fetched_count
                    for a in range(0, 90, 6)]
        finally:
            state.close()

    assert volumes(db1) == volumes(db2)


def test_determinism_under_seed():
    db = small_db()

    def run():
        state = setup(db, config(m=3), MemoryKvs(), seed=21)
        try:
            out = []
            for a in range(0, 60, 7):
                res = query(state, range_query(a, a + 4))
                out.append((res.fetched_count, tuple(res.per_oram_requests),
                            res.bytes_up, res.bytes_down,
                            tuple(r.rid for r in res.records)))
            return out
        finally:
            state.close()

    assert run() == run()


def test_seedless_setups_draw_fresh_keys():
    records = small_db().records
    db = Database(records, {"aux": [r.key // 2 for r in records]})
    states = [setup(db, config(m=2, budget=2 * LN2), MemoryKvs()) for _ in range(2)]
    try:
        a, b = states
        assert a.seed is None and a.hash_key != b.hash_key
        assert all(x.key != y.key for x, y in zip(a.orams, b.orams))
        for st in states:
            register_attribute(st, "aux", LN2)
            for q in (range_query(20, 45), range_query(10, 22, "aux")):
                assert [r.rid for r in query(st, q).records] == expected(db, q)
    finally:
        for st in states:
            st.close()


# -- failure policy ----------------------------------------------------------------

def test_underestimate_marks_failed_but_answers():
    """Force failure: a sanitizer stub that always answers zero."""
    db = small_db()
    state = setup(db, config(m=2), MemoryKvs(), seed=9)
    try:
        class ZeroDs:
            def query(self, a, b):
                return 0

        state.sanitizers["key"] = [ZeroDs()]
        q = range_query(10, 40)
        res = query(state, q)
        assert res.failed
        assert [r.rid for r in res.records] == expected(db, q)  # still exact
        assert res.fetched_count == res.true_count  # nothing extra to hide behind
    finally:
        state.close()


def test_zero_count_zero_reads():
    """k0 = 0 with nothing matching: no reads at all, not failed."""
    db = small_db()
    state = setup(db, config(m=2), MemoryKvs(), seed=9)
    try:
        class ZeroDs:
            def query(self, a, b):
                return 0

        state.sanitizers["key"] = [ZeroDs()]
        # keys are in [0,100); query far above any match is impossible here,
        # so pick a value with no records
        missing = next(v for v in range(100)
                       if all(r.key != v for r in db.records))
        res = query(state, point_query(missing))
        assert not res.failed
        assert res.fetched_count == 0
        assert res.records == []
    finally:
        state.close()


def test_noise_reads_are_valid_distinct_non_matching():
    db = small_db()
    state = setup(db, config(m=2), MemoryKvs(), seed=33)
    try:
        q = range_query(10, 20)
        locators = {rid for rid in expected(db, q)}
        # observe the planned addresses via the per-ORAM request counts and
        # by re-deriving: every fetched address decrypts to either a match
        # or a real non-matching record (or the reserved pad address)
        res = query(state, q)
        assert res.fetched_count >= res.true_count
        # all true records came back once each
        assert sorted(r.rid for r in res.records) == sorted(locators)
    finally:
        state.close()


def test_noise_exhaustion_pads_with_reserved_address():
    # tiny database, huge alpha: quota exceeds partition population
    db = Database([Record(i, i % 4, bytes(8)) for i in range(6)])
    state = setup(db, EngineConfig(domain=4, record_size=8, m=2, mode="gamma",
                                   epsilon=0.1, beta=2.0 ** -20, fanout=2),
                  MemoryKvs(), seed=2)
    try:
        res = query(state, point_query(1))
        assert res.fetched_count > len(db)  # only possible with pad reads
        assert [r.rid for r in res.records] == expected(db, point_query(1))
    finally:
        state.close()


# -- attributes and budgets -----------------------------------------------------------

def test_multi_attribute_queries():
    r = random.Random(3)
    n = 200
    col = [r.randrange(50) for _ in range(n)]
    db = Database([Record(i, r.randrange(100), bytes(16)) for i in range(n)],
                  {"aux": col})
    state = setup(db, config(record_size=16, m=2, budget=2.0), MemoryKvs(), seed=5)
    try:
        register_attribute(state, "aux", 0.5)
        q = range_query(5, 10, attribute="aux")
        res = query(state, q)
        assert sorted(r_.rid for r_ in res.records) == \
            [i for i in range(n) if 5 <= col[i] <= 10]
        assert spent_budget(state) == pytest.approx(LN2 + 0.5)
    finally:
        state.close()


def test_budget_enforced():
    db = small_db(n=50)
    state = setup(db, config(m=1, epsilon=0.6, budget=1.0), MemoryKvs(), seed=5)
    try:
        with pytest.raises(BudgetError):
            register_attribute(state, "aux", 0.6)
    finally:
        state.close()


def test_unknown_attribute_rejected(deployed):
    db, state = deployed
    with pytest.raises(QueryError):
        query(state, range_query(0, 5, attribute="nope"))


def test_out_of_domain_query_rejected(deployed):
    db, state = deployed
    with pytest.raises(QueryError):
        query(state, range_query(0, 100))


def test_duplicate_attribute_rejected():
    db = small_db(n=50)
    state = setup(db, config(m=1), MemoryKvs(), seed=5)
    try:
        with pytest.raises(ParameterError):
            register_attribute(state, "key", 0.1)
    finally:
        state.close()


def test_no_gamma_uses_per_oram_sanitizers():
    db = small_db()
    state = setup(db, config(mode="no-gamma", m=3), MemoryKvs(), seed=8)
    try:
        assert len(state.sanitizers["key"]) == 3
        res = query(state, range_query(10, 30))
        assert [r.rid for r in res.records] == expected(db, range_query(10, 30))
    finally:
        state.close()


def test_shared_sanitizer_in_gamma_mode():
    db = small_db()
    state = setup(db, config(mode="gamma", m=3), MemoryKvs(), seed=8)
    try:
        assert len(state.sanitizers["key"]) == 1
    finally:
        state.close()


def test_sanitizers_persisted_to_meta_namespace():
    from shrouddb.sanitizer import deserialize, sanitizer_query

    db = small_db()
    kvs = MemoryKvs()
    state = setup(db, config(mode="no-gamma", m=2), kvs, seed=4)
    try:
        from shrouddb.storage import META_NAMESPACE, bucket_key
        blobs = kvs.batch_get([bucket_key(slot, META_NAMESPACE) for slot in range(2)])
        for slot, blob in enumerate(blobs):
            ds = deserialize(blob, beta=state.config.beta)
            live = state.sanitizers["key"][slot]
            assert ds.counts == live.counts
    finally:
        state.close()


class RecordingKvs(Kvs):
    """The server's view: every operation that reaches the storage
    boundary, as (operation, ((key, value length), ...)), per namespace.
    A read that misses is recorded with no lengths."""

    def __init__(self):
        self.inner = MemoryKvs()
        self.log: dict[int, list] = {}
        self._lock = threading.Lock()

    def _record(self, op, pairs):
        with self._lock:
            ns = int.from_bytes(pairs[0][0], "big") >> INDEX_BITS
            self.log.setdefault(ns, []).append((op, tuple(pairs)))

    def batch_get(self, keys):
        try:
            values = self.inner.batch_get(keys)
        except BatchError:
            self._record("batch_get", [(k, None) for k in keys])
            raise
        self._record("batch_get", [(k, len(v)) for k, v in zip(keys, values)])
        return values

    def batch_put(self, pairs):
        self.inner.batch_put(pairs)
        self._record("batch_put", [(k, len(v)) for k, v in pairs])

    def take(self):
        with self._lock:
            log, self.log = self.log, {}
        return log


def test_bucket_values_have_fixed_size():
    rec = 24
    kvs = RecordingKvs()
    state = setup(small_db(rec=rec), config(m=2), kvs, seed=5)
    try:
        for a in range(0, 90, 15):
            query(state, range_query(a, a + 7))
        log = kvs.take()
        want = 28 + state.config.Z * (8 + 16 + rec)
        assert want == state.orams[0].bucket_bytes
        for ns in (0, 1):  # the two ORAMs; the meta namespace holds sanitizers
            sizes = {size for _, pairs in log[ns] for _, size in pairs if size is not None}
            assert sizes == {want}
    finally:
        state.close()


def test_setup_server_view_is_one_probe_and_one_put_per_attribute():
    from shrouddb.storage import META_NAMESPACE, bucket_key

    records = small_db().records
    db = Database(records, {"aux": [r.key // 2 for r in records]})
    kvs = RecordingKvs()
    state = setup(db, config(mode="no-gamma", m=2), kvs, seed=6)
    try:
        log = kvs.take()
        for ns in (0, 1):
            # a one-key read of the root that must miss, then the whole tree,
            # records already placed, in one upload; nothing else
            st = state.orams[ns]
            assert len(log[ns]) == 2
            assert log[ns][0] == ("batch_get", ((bucket_key(0, ns), None),))
            op, pairs = log[ns][1]
            assert op == "batch_put"
            assert [k for k, _ in pairs] == [bucket_key(i, ns) for i in range(st.n_buckets)]
            assert {size for _, size in pairs} == {st.bucket_bytes}
        meta = log[META_NAMESPACE]
        assert [(op, [k for k, _ in pairs]) for op, pairs in meta] == \
            [("batch_put", [bucket_key(0, META_NAMESPACE), bucket_key(1, META_NAMESPACE)])]
        register_attribute(state, "aux", LN2)
        assert [(op, [k for k, _ in pairs]) for op, pairs in kvs.take()[META_NAMESPACE]] == \
            [("batch_put", [bucket_key(2, META_NAMESPACE), bucket_key(3, META_NAMESPACE)])]
    finally:
        state.close()


def test_concurrent_query_is_refused():
    class BlockingKvs(MemoryKvs):
        """Holds the first armed batch read until ``release`` is set."""

        def __init__(self):
            super().__init__()
            self.armed = False
            self.entered, self.release = threading.Event(), threading.Event()

        def batch_get(self, keys):
            if self.armed:
                self.armed = False
                self.entered.set()
                self.release.wait(30)
            return super().batch_get(keys)

    db, kvs, q = small_db(), BlockingKvs(), range_query(10, 30)
    state = setup(db, config(m=2), kvs, seed=3)
    try:
        results = []
        kvs.armed = True
        worker = threading.Thread(target=lambda: results.append(query(state, q)))
        worker.start()
        assert kvs.entered.wait(30)
        with pytest.raises(QueryError, match="another query"):
            query(state, q)
        kvs.release.set()
        worker.join(30)
        assert [r.rid for r in results[0].records] == expected(db, q)
        assert [r.rid for r in query(state, q).records] == expected(db, q)
    finally:
        kvs.release.set()
        state.close()


def test_server_view_independent_of_contents():
    """Two databases of one size and config, different keys and payloads:
    the server sees identical keys and value sizes during setup, and
    during queries whose fetched counts are equal."""
    r = random.Random(9)
    keys1 = [r.randrange(100) for _ in range(300)]
    # keys below 48 agree (so queries there match the same records), keys
    # from 48 up are redrawn; every payload differs
    keys2 = [k if k < 48 else r.randrange(48, 100) for k in keys1]
    assert keys1 != keys2
    dbs = [Database([Record(i, k, r.randbytes(24)) for i, k in enumerate(keys)])
           for keys in (keys1, keys2)]
    views, fetched = [], []
    for db in dbs:
        kvs = RecordingKvs()
        state = setup(db, config(m=2), kvs, seed=17)
        try:
            setup_view = kvs.take()
            counts = [query(state, range_query(a, a + 6)).per_oram_requests
                      for a in range(0, 42, 3)]
            views.append((setup_view, kvs.take()))
            fetched.append(counts)
        finally:
            state.close()
    assert fetched[0] == fetched[1]
    assert any(sum(c) for c in fetched[0])
    assert views[0][0] == views[1][0]  # setup
    assert views[0][1] == views[1][1]  # queries


def test_index_agrees_with_partition():
    db = small_db()
    state = setup(db, config(m=3), MemoryKvs(), seed=2)
    try:
        pos = lookup(state.indexes["key"], range_query(0, state.config.domain - 1))
        assert sorted(pos.tolist()) == list(range(len(db)))
        placed = [0, 0, 0]  # records seen so far per ORAM
        for i, r in enumerate(db.records):
            j = int(state.oram_of[i])
            assert j == partition_of(state.hash_key, r.rid, 3)
            assert state.addr[i] == placed[j - 1]  # its place within its partition
            placed[j - 1] += 1
        assert placed == state.n_per
    finally:
        state.close()


def test_closed_deployments_leave_no_cipher_in_slots():
    """Each ORAM owns its AES-GCM context; the cipher module keeps none."""
    for seed in (1, 2, 3):
        setup(small_db(), config(m=2), MemoryKvs(), seed=seed).close()

    def ciphers(value) -> int:
        if isinstance(value, AESGCM):
            return 1
        if isinstance(value, dict):
            return sum(map(ciphers, [*value.keys(), *value.values()]))
        if isinstance(value, (list, tuple, set, frozenset)):
            return sum(map(ciphers, value))
        return 0

    assert sum(ciphers(v) for v in vars(slots).values()) == 0
