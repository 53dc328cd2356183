import array
import gc
import math
import random
import re
import threading
import time
import types

import numpy as np
import pytest
from conftest import RecordingKvs
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from scipy import stats

from shrouddb import slots
from shrouddb.bptree import lookup
from shrouddb.crypto import keygen, partition_of
from shrouddb.data import (Database, Query, Record, pack_records, point_query, range_query,
                           unpack_record)
from shrouddb.engine import (
    EngineConfig,
    _partition,
    _noise_addresses,
    compute_gamma,
    query,
    quotas,
    register_attribute,
    setup,
    spent_budget,
)
from shrouddb.errors import (
    AuthenticationError,
    BudgetError,
    DataError,
    ParameterError,
    QueryError,
    StorageClosedError,
    StorageError,
    StorageNotEmptyError,
)
from shrouddb.rng import derive_stream
from shrouddb.slots import open_slots
from shrouddb.storage import INDEX_BITS, MemoryKvs, bucket_key

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
    col = [r.key for r in db.records] if q.attribute == "key" else db.attributes[q.attribute]
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
    for bad in [{"epsilon": math.nan}, {"epsilon": math.inf}, {"beta": math.nan},
                {"budget": math.nan}]:
        with pytest.raises(ParameterError):
            config(**bad)
    # ORAM j stores under namespace j - 1, so ORAM 4096 would take the
    # reserved META_NAMESPACE (4095); only the configs are built here
    assert config(m=4095).m == 4095
    with pytest.raises(ParameterError, match="partition count"):
        config(m=4096)


def test_setup_validates_records():
    with pytest.raises(DataError):
        setup(Database([Record(0, 5, b"short")]), config(), MemoryKvs(), 1)
    with pytest.raises(DataError):
        setup(Database([Record(0, 100, bytes(24))]), config(), MemoryKvs(), 1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Record(3, 2.0, bytes(24)), DataError, "record 3 key 2.0 is not an int"),
    (lambda: Record(3, 2, "x" * 24), DataError, "record 3 payload is a str, not bytes"),
    (lambda: Record(3.0, 2, bytes(24)), DataError, "record id 3.0 is not an int"),
    (lambda: Record(1 << 64, 2, bytes(24)), DataError, "is not an int in [0, 2^64)"),
    (lambda: Query(1.5, 3), ParameterError, "range bounds 1.5, 3 are not ints"),
], ids=["float-key", "str-payload", "float-rid", "wide-rid", "float-bound"])
def test_records_and_queries_refuse_other_types(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


def test_pack_records_is_the_stored_layout():
    """One uint8 row per record, ``rid(8) || key(8) || payload`` big-endian,
    as a record is laid out on its own; ``unpack_record`` reads it back."""
    records = [Record((1 << 64) - 1, 7, b"abcd"), Record(0, 0, bytearray(b"efgh")),
               Record(1 << 40, 99, memoryview(array.array("b", b"ijkl")))]
    rows = pack_records(records, 4)
    assert rows.dtype == np.uint8 and rows.shape == (3, 20)
    for r, row in zip(records, rows):
        header = r.rid.to_bytes(8, "big") + r.key.to_bytes(8, "big")
        assert row.tobytes() == header + bytes(r.payload)
        assert unpack_record(row.tobytes()) == Record(r.rid, r.key, bytes(r.payload))
    assert pack_records([], 4).shape == (0, 20)
    with pytest.raises(DataError, match="record 0 payload is 4 bytes, expected 5"):
        pack_records(records[1:], 5)


def test_malformed_record_fails_before_anything_is_stored():
    """A float key is refused when its record is built. Here it is a
    record of ORAM 2, which would otherwise be found only after ORAM 1's
    whole tree was uploaded, leaving a store no second setup can use."""
    db = small_db(n=500)
    oram_of = _partition(5, [r.rid for r in db.records], 2)  # as setup draws it
    rid = db.records[int(np.flatnonzero(oram_of == 2)[0])].rid
    kvs = RecordingKvs()
    with pytest.raises(DataError, match=f"record {rid} key 2.0"):
        records = [Record(r.rid, 2.0, r.payload) if r.rid == rid else r
                   for r in db.records]
        setup(Database(records), config(m=2), kvs, seed=5)
    assert kvs.take() == {}
    setup(db, config(m=2), kvs, seed=5).close()  # the store is still empty


def test_wrong_size_payload_fails_before_anything_is_stored():
    """Setup packs each partition right before its load, yet a short
    payload in ORAM 2's partition is refused before ORAM 1's tree is
    uploaded, naming its record."""
    db = small_db(n=500)
    oram_of = _partition(5, [r.rid for r in db.records], 2)  # as setup draws it
    at = int(np.flatnonzero(oram_of == 2)[-1])
    rid = db.records[at].rid
    records = list(db.records)
    records[at] = Record(rid, records[at].key, bytes(23))
    kvs = RecordingKvs()
    with pytest.raises(DataError, match=f"record {rid} payload is 23 bytes, expected 24"):
        setup(Database(records), config(m=2), kvs, seed=5)
    assert kvs.take() == {}
    setup(db, config(m=2), kvs, seed=5).close()  # the store is still empty


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
        # fresh partition keys: 300 records split alike with chance 2^-300
        assert a.seed is None and a.oram_of.tolist() != b.oram_of.tolist()
        for x, y in zip(a.orams, b.orams):  # fresh ORAM keys: y cannot open x's root
            root = x.store.batch_get(x._bucket_keys[:1])
            with pytest.raises(AuthenticationError):
                open_slots(y._cipher, root, 1, y.bucket_plain)
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

        index, _, epsilon = state.indexed["key"]
        state.indexed["key"] = (index, [ZeroDs()], epsilon)
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

        index, _, epsilon = state.indexed["key"]
        state.indexed["key"] = (index, [ZeroDs()], epsilon)
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


class TrueCount:
    """A sanitizer that answers the true count of its records moved by ``by``."""

    def __init__(self, values, by):
        self.values, self.by = values, by

    def query(self, a, b):
        return int(((self.values >= a) & (self.values <= b)).sum()) + self.by


@pytest.mark.parametrize("shift", [None, 0, -5],
                         ids=["own-sanitizers", "true-counts", "undershooting"])
@pytest.mark.parametrize("mode,m", [("single", 1), ("gamma", 3), ("no-gamma", 3)])
def test_query_fetches_by_the_rule_the_audit_runs(mode, m, shift):
    """Each ORAM reads ``max(quota, matches)`` records, its quota from
    ``quotas`` over the state's own sanitizers, and a query fails exactly
    when some ORAM's matches exceed its quota, not when they meet it."""
    db = small_db()
    state = setup(db, config(mode=mode, m=m), MemoryKvs(), seed=12)
    try:
        index, dss, epsilon = state.indexed["key"]
        if shift is not None:
            keys = np.array([r.key for r in db.records])
            groups = [keys[state.oram_of == j] for j in range(1, m + 1)] \
                if mode == "no-gamma" else [keys]
            dss = [TrueCount(values, shift) for values in groups]
            state.indexed["key"] = (index, dss, epsilon)
        failures = 0
        for a in range(0, 100, 3):
            q = range_query(a, min(99, a + 2 + a % 20))
            res = query(state, q)
            oram_of = state.oram_of[expected(db, q)]  # record i has id i
            matches = [int((oram_of == j).sum()) for j in range(1, m + 1)]
            quota = quotas(state.config, dss, q.a, q.b)
            assert res.per_oram_requests == [max(k, t) for k, t in zip(quota, matches)]
            assert res.failed == any(t > k for k, t in zip(quota, matches))
            failures += res.failed
        assert (failures > 0) == (shift == -5)  # both sides of the rule are reached
    finally:
        state.close()


def record_plans(state) -> dict[int, list[int]]:
    """Wraps each ORAM's ``batch_access``; the returned dict maps an
    ORAM's index to the addresses of its latest batch."""
    plans: dict[int, list[int]] = {}
    for j, st in enumerate(state.orams):
        def batch_access(ops, j=j, inner=st.batch_access):
            plans[j] = [addr for addr, _ in ops]
            return inner(ops)
        st.batch_access = batch_access
    return plans


def test_noise_reads_are_valid_distinct_non_matching():
    """Each ORAM's plan is its matches in index order, then distinct
    non-matching addresses in ``[0, n_j)``, then the reserved address
    ``n_j`` only once the partition has none left."""
    db = small_db()
    state = setup(db, config(m=2), MemoryKvs(), seed=33)
    try:
        plans = record_plans(state)
        exhausted = partial = 0
        for q in (range_query(10, 20), point_query(3), range_query(0, 60),
                  range_query(30, 99), range_query(0, 99)):
            plans.clear()
            res = query(state, q)
            assert [r.rid for r in res.records] == expected(db, q)
            pos = lookup(state.indexed["key"][0], q).tolist()
            for j, n_j in enumerate(state.n_per):
                plan = plans.get(j, [])
                assert len(plan) == res.per_oram_requests[j]
                matches = [int(state.addr[i]) for i in pos if state.oram_of[i] == j + 1]
                assert plan[:len(matches)] == matches
                pad = plan[len(matches):]
                real = [a for a in pad if a != n_j]
                assert len(set(real)) == len(real)
                assert all(0 <= a < n_j for a in real)
                assert not set(real) & set(matches)
                if n_j in pad:
                    assert len(real) == n_j - len(matches)  # the partition ran out
                    assert pad[-1] == n_j and pad.index(n_j) == len(real)
                    exhausted += 1
                elif pad:
                    partial += 1
        assert exhausted and partial  # both kinds of padding were planned
    finally:
        state.close()


def test_noise_addresses_uniform_over_untaken():
    rng = random.Random(11)
    n_j, taken, need, trials = 20, {0, 3, 7, 8, 15}, 4, 6000
    counts = dict.fromkeys(sorted(set(range(n_j)) - taken), 0)
    for _ in range(trials):
        picks = _noise_addresses(n_j, taken, need, rng)
        assert len(set(picks)) == need
        for a in picks:
            counts[a] += 1  # a KeyError would mean a taken address was drawn
    assert stats.chisquare(list(counts.values())).pvalue > 0.001
    # past exhaustion: every untaken address once, then the reserved one
    picks = _noise_addresses(10, {1, 4, 5}, 9, rng)
    assert sorted(picks[:7]) == [0, 2, 3, 6, 7, 8, 9] and picks[7:] == [10, 10]
    assert _noise_addresses(10, {1}, 0, rng) == _noise_addresses(10, {1}, -3, rng) == []


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


def test_a_column_replaced_after_setup_is_not_indexed():
    """``register_attribute`` indexes the column as ``setup`` got it,
    not whatever the caller's dict holds by then."""
    r = random.Random(3)
    n = 200
    db = Database([Record(i, r.randrange(100), bytes(16)) for i in range(n)],
                  {"aux": [r.randrange(50) for _ in range(n)]})
    state = setup(db, config(record_size=16, m=2), MemoryKvs(), seed=5)
    try:
        db.attributes["aux"] = [0] * 150
        register_attribute(state, "aux", 0.5)
        res = query(state, range_query(0, 99, attribute="aux"))
        assert [r_.rid for r_ in res.records] == list(range(n))
    finally:
        state.close()


@pytest.mark.parametrize("column", [
    ["x"] * 50, [1.5] * 50, [100] + [0] * 49, [0] * 49,
], ids=["strings", "floats", "outside-domain", "wrong-length"])
def test_setup_refuses_a_malformed_column(column):
    db = small_db(n=50)
    db.attributes["aux"] = column  # after the Database is built
    kvs = RecordingKvs()
    with pytest.raises(DataError, match=re.escape("column 'aux' must hold 50 integers "
                                                  "in [0, 100)")):
        setup(db, config(m=2), kvs, seed=5)
    assert kvs.take() == {}


def test_records_keys_win_over_a_key_column():
    db = small_db(n=50)
    db.attributes["key"] = ["x"] * 7  # after the Database is built
    state = setup(db, config(m=2), MemoryKvs(), seed=5)
    try:
        q = range_query(10, 60)
        assert [r.rid for r in query(state, q).records] == expected(db, q)
    finally:
        state.close()


def test_empty_database_sets_up_and_queries():
    state = setup(Database([], {"aux": []}), config(m=2), MemoryKvs(), seed=5)
    try:
        register_attribute(state, "aux", LN2)
        for q in (range_query(0, 99), range_query(0, 99, attribute="aux")):
            res = query(state, q)
            assert res.records == [] and not res.failed
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


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0])
def test_register_attribute_refuses_bad_epsilon(epsilon):
    db = small_db(n=50)
    db.attributes["aux"] = [r.key for r in db.records]
    store = RecordingKvs()
    state = setup(db, config(m=1, budget=5.0), store, seed=5)
    try:
        log = {ns: list(ops) for ns, ops in store.log.items()}
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            register_attribute(state, "aux", epsilon)
        assert store.log == log  # nothing was uploaded
        assert "aux" not in state.indexed
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
        assert len(state.indexed["key"][1]) == 3
        res = query(state, range_query(10, 30))
        assert [r.rid for r in res.records] == expected(db, range_query(10, 30))
    finally:
        state.close()


def test_shared_sanitizer_in_gamma_mode():
    db = small_db()
    state = setup(db, config(mode="gamma", m=3), MemoryKvs(), seed=8)
    try:
        assert len(state.indexed["key"][1]) == 1
    finally:
        state.close()


def test_bucket_values_have_fixed_size():
    rec = 24
    kvs = RecordingKvs()
    state = setup(small_db(rec=rec), config(m=2), kvs, seed=5)
    try:
        for a in range(0, 90, 15):
            query(state, range_query(a, a + 7))
        log = kvs.take()
        want = 28 + 5 * (8 + 16 + rec)  # Z = 5 slots of address, rid, key, payload
        assert want == state.orams[0].bucket_bytes
        for ns in (0, 1):  # the two ORAMs
            sizes = {size for _, pairs in log[ns] for _, size in pairs if size is not None}
            assert sizes == {want}
    finally:
        state.close()


def test_setup_server_view_is_one_probe_and_one_put_per_oram():
    records = small_db().records
    db = Database(records, {"aux": [r.key // 2 for r in records]})
    for mode, m in [("single", 1), ("gamma", 2), ("no-gamma", 2)]:
        kvs = RecordingKvs()
        with setup(db, config(mode=mode, m=m), kvs, seed=6) as state:
            log = kvs.take()
            assert sorted(log) == list(range(m))  # no sanitizer reaches the server
            for ns in range(m):
                # a one-key read of the root that must miss, then the whole tree,
                # records already placed, in one upload; nothing else
                st = state.orams[ns]
                assert len(log[ns]) == 2
                assert log[ns][0] == ("batch_get", ((bucket_key(0, ns), None),))
                op, pairs = log[ns][1]
                assert op == "batch_put"
                assert [k for k, _ in pairs] == [bucket_key(i, ns) for i in range(st.n_buckets)]
                assert {size for _, size in pairs} == {st.bucket_bytes}
            register_attribute(state, "aux", LN2)
            assert kvs.take() == {}


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

    records = small_db().records
    db = Database(records, {"aux": [r.key for r in records]})
    kvs, q = BlockingKvs(), range_query(10, 30)
    state = setup(db, config(m=2), kvs, seed=3)
    try:
        results = []
        kvs.armed = True
        worker = threading.Thread(target=lambda: results.append(query(state, q)))
        worker.start()
        assert kvs.entered.wait(30)
        with pytest.raises(QueryError, match="another query"):
            query(state, q)
        with pytest.raises(QueryError, match="another query"):
            register_attribute(state, "aux", LN2)
        assert "aux" not in state.indexed
        kvs.release.set()
        worker.join(30)
        assert not worker.is_alive()
        assert [r.rid for r in results[0].records] == expected(db, q)
        assert [r.rid for r in query(state, q).records] == expected(db, q)
        register_attribute(state, "aux", LN2)  # runs once the query is done
        assert [r.rid for r in query(state, Query(10, 30, "aux")).records] == expected(db, q)
    finally:
        kvs.release.set()
        state.close()


def test_close_waits_for_a_running_query(monkeypatch):
    from shrouddb import sanitizer

    entered, release = threading.Event(), threading.Event()
    real = sanitizer.sanitizer_query

    def held(*args):
        entered.set()
        assert release.wait(30)
        return real(*args)

    db, q = small_db(), range_query(10, 30)
    state = setup(db, config(m=2), MemoryKvs(), seed=3)
    monkeypatch.setattr(sanitizer, "sanitizer_query", held)
    results = []
    querier = threading.Thread(target=lambda: results.append(query(state, q)))
    closer = threading.Thread(target=state.close)
    try:
        querier.start()
        assert entered.wait(30)
        closer.start()
        closer.join(0.3)
        assert closer.is_alive()  # held until the query ends
        release.set()
        querier.join(30)
        closer.join(30)
        assert not querier.is_alive() and not closer.is_alive()
        assert [r.rid for r in results[0].records] == expected(db, q)
        with pytest.raises(QueryError, match="the state is closed"):
            query(state, q)
    finally:
        release.set()
        state.close()


class ThreadKvs(MemoryKvs):
    """Notes, per namespace, each batch as (operation, thread id,
    thread count)."""

    def __init__(self):
        super().__init__()
        self.seen: dict[int, list[tuple[str, int, int]]] = {}

    def _note(self, op, key):
        self.seen.setdefault(int.from_bytes(key, "big") >> INDEX_BITS, []).append(
            (op, threading.get_ident(), threading.active_count()))

    def batch_get(self, keys):
        self._note("batch_get", keys[0])
        return super().batch_get(keys)

    def batch_put(self, pairs):
        self._note("batch_put", pairs[0][0])
        super().batch_put(pairs)


def test_single_oram_query_runs_on_the_calling_thread():
    kvs = ThreadKvs()
    state = setup(small_db(), config(mode="single", m=1), kvs, seed=3)
    try:
        kvs.seen.clear()
        before = threading.active_count()
        query(state, range_query(10, 30))
        assert kvs.seen == {0: [("batch_get", threading.get_ident(), before),
                                ("batch_put", threading.get_ident(), before)]}
        assert threading.active_count() == before
    finally:
        state.close()


def test_oram_1_runs_on_the_calling_thread_and_oram_2_beside_it():
    db, kvs = small_db(), ThreadKvs()
    state = setup(db, config(m=2), kvs, seed=3)
    try:
        kvs.seen.clear()
        before = threading.active_count()
        query(state, range_query(10, 30))
        assert threading.active_count() == before
    finally:
        state.close()
    me = threading.get_ident()
    assert [(op, t) for op, t, _ in kvs.seen[0]] == [("batch_get", me), ("batch_put", me)]
    (other,) = {t for _, t, _ in kvs.seen[1]}
    assert other != me and [op for op, _, _ in kvs.seen[1]] == ["batch_get", "batch_put"]
    assert {n for _, _, n in kvs.seen[0] + kvs.seen[1]} == {before + 1}
    with pytest.raises(StorageNotEmptyError):  # the first tree is still there
        setup(db, config(m=2), kvs, seed=3)
    assert threading.active_count() == before


@pytest.mark.parametrize("failing", [1, 2], ids=["oram-1-fails", "oram-2-fails"])
def test_failed_query_returns_once_every_batch_is_done(failing):
    """One ORAM's read fails while the other's batch is still running; the
    query raises only after that batch ends, so no later query can overlap
    it. ORAM 1's batch runs on the calling thread, ORAM 2's beside it."""
    class SplitKvs(MemoryKvs):
        def __init__(self):
            super().__init__()
            self.armed, self.running = False, 0
            self.started = threading.Event()

        def batch_get(self, keys):
            if self.armed and keys[0] == bucket_key(0, failing - 1):  # the failing root
                assert self.started.wait(30)
                raise StorageError(f"ORAM {failing} is down")
            if self.armed and keys[0] == bucket_key(0, 2 - failing):  # the other root
                self.running += 1
                self.started.set()
                time.sleep(0.3)
                self.running -= 1
            return super().batch_get(keys)

    kvs = SplitKvs()
    state = setup(small_db(), config(m=2), kvs, seed=3)
    try:
        kvs.armed = True
        with pytest.raises(StorageError, match=f"ORAM {failing} is down"):
            query(state, range_query(0, 99))
        assert kvs.started.is_set() and kvs.running == 0
    finally:
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
        pos = lookup(state.indexed["key"][0], range_query(0, state.config.domain - 1))
        assert sorted(pos.tolist()) == list(range(len(db)))
        hash_key = keygen(derive_stream(2, "key:hash"))  # as setup draws it
        assert np.array_equal(state.oram_of, partition_of(hash_key, state.rids, 3))
        placed = [0, 0, 0]  # records seen so far per ORAM
        for i in range(len(db)):
            j = int(state.oram_of[i])
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


def _reachable(root, found) -> int:
    """How many objects reachable from ``root`` satisfy ``found``."""
    seen, stack, count = set(), [root], 0
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        count += found(obj)
        stack.extend(gc.get_referents(obj))
    return count


def test_closed_state_holds_no_key_material():
    """``close`` drops the ORAMs with their AES-GCM contexts, and setup
    keeps no key bytes: nothing reachable from a closed state is a key."""
    keys = {keygen(derive_stream(4, label))
            for label in ("key:hash", "key:oram:1", "key:oram:2")}

    def is_key(obj) -> bool:
        return isinstance(obj, AESGCM) or (type(obj) is bytes and obj in keys)

    state = setup(small_db(), config(m=2), MemoryKvs(), seed=4)
    assert _reachable(state, is_key) == 2  # two ORAM ciphers; no key bytes
    state.close()
    assert _reachable(state, is_key) == 0
    assert state.orams == []
    with pytest.raises(QueryError, match="closed"):
        query(state, range_query(0, 5))


def test_state_keeps_no_record():
    """The client state keeps record ids and its own copy of the extra
    columns, not the caller's records, their payloads or the caller's
    columns; unknown columns stay refused."""
    records = small_db().records
    aux = [r.key for r in records]
    db = Database(records, {"aux": aux})
    state = setup(db, config(m=2), MemoryKvs(), seed=4)
    try:
        assert _reachable(state, lambda obj: isinstance(obj, (Record, Database))) == 0
        assert _reachable(state, lambda obj: obj is db.attributes or obj is aux) == 0
        with pytest.raises(DataError, match="no column named 'nope'"):
            register_attribute(state, "nope", LN2)
        register_attribute(state, "aux", LN2)
        assert state.columns == {}  # an indexed column is dropped
        res = query(state, range_query(5, 9, attribute="aux"))
        assert [r.rid for r in res.records] == [r.rid for r, v in zip(records, aux)
                                                if 5 <= v <= 9]
    finally:
        state.close()


def test_register_attribute_refuses_a_closed_state():
    records = small_db().records
    kvs = RecordingKvs()
    state = setup(Database(records, {"aux": [r.key for r in records]}), config(m=2), kvs, seed=4)
    kvs.take()
    state.close()
    with pytest.raises(QueryError, match="the state is closed"):
        register_attribute(state, "aux", LN2)
    assert "aux" not in state.indexed
    assert kvs.take() == {}  # nothing reached the store
