import array
import math
import os
import random
from collections import Counter
from unittest import mock

import pytest
from conftest import FullDisk, tree_blocks
from hypothesis import given, settings, strategies as st

from shrouddb import oram, wire
from shrouddb.crypto import keygen
from shrouddb.errors import (
    AddressError,
    AuthenticationError,
    BatchError,
    ParameterError,
    StashOverflowError,
    StorageError,
    StorageNotEmptyError,
)
from shrouddb.oram import (
    DUMMY_ADDR,
    Z,
    OramConfig,
    default_stash_limit,
    oram_init,
    read_op,
    stash_bound,
    write_op,
)
from shrouddb.slots import open_slots
from shrouddb.storage import KEY_SIZE, CountingKvs, DiskKvs, MemoryKvs, RemoteKvs, bucket_key


def make(capacity=32, payload=16, seed=7, store=None, blocks=()):
    rng = random.Random(seed)
    key = keygen(128, rng)
    return oram_init(OramConfig(capacity=capacity, block_payload=payload),
                     key, store if store is not None else MemoryKvs(), rng, blocks=blocks)


# -- geometry ---------------------------------------------------------------

def test_tree_shape_examples():
    st20 = make(capacity=20, payload=24)
    assert st20.L == 2
    assert st20.n_buckets == 7

    st1 = make(capacity=1, payload=8)
    assert st1.L == 1
    assert st1.n_buckets == 3


def test_init_writes_full_dummy_tree():
    kvs = CountingKvs(MemoryKvs())
    st = make(capacity=20, payload=24, store=kvs)
    assert len(kvs.inner.batch_get([bucket_key(i) for i in range(7)])) == 7
    with pytest.raises(BatchError):
        kvs.inner.batch_get([bucket_key(7)])
    assert kvs.counters.roundtrips == 2  # one-key emptiness probe + one batch upload
    assert kvs.counters.bytes_up == 8 + 7 * (8 + st.bucket_bytes)
    assert tree_blocks(st) == {}  # 35 slots, all dummies


def test_init_places_blocks_on_their_paths():
    payload = 12
    r = random.Random(11)
    blocks = [(a, r.randbytes(payload)) for a in r.sample(range(400), 300)]
    st = make(capacity=400, payload=payload, blocks=blocks)
    tree = tree_blocks(st)
    assert not set(tree) & set(st.stash)
    assert sorted(list(tree) + list(st.stash)) == sorted(a for a, _ in blocks)
    for addr, bid in tree.items():
        d = (bid + 1).bit_length() - 1
        assert st.pos[addr] >> (st.L - d) == bid - ((1 << d) - 1)
    assert len(st.stash) <= st.stash_limit
    for addr, data in blocks:
        assert st.access(read_op(addr)) == data
    assert st.access(read_op(next(a for a in range(400) if a not in dict(blocks)))) \
        == bytes(payload)


def test_init_overflow_refuses_later_access(monkeypatch):
    class LeafZero(random.Random):
        def randrange(self, *args):
            return 0

    made = []

    class Recorded(oram.OramState):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(oram, "OramState", Recorded)
    kvs = CountingKvs(MemoryKvs())
    cfg = OramConfig(capacity=100, block_payload=4)
    # every block on leaf 0, whose path of L + 1 = 6 buckets holds 30 of
    # the 100; the other 70 exceed the stash limit of 49
    with pytest.raises(StashOverflowError):
        oram_init(cfg, keygen(128, random.Random(1)), kvs, LeafZero(),
                  blocks=[(a, bytes(4)) for a in range(100)])
    (st,) = made
    assert (st.L + 1) * Z == 30 and st.stash_limit == 49
    assert st.overflowed and len(st.stash) == 70
    before = kvs.counters.snapshot()
    with pytest.raises(StashOverflowError):
        st.access(read_op(0))
    assert kvs.counters.snapshot() == before


@pytest.mark.parametrize("blocks, error", [
    ([(0, b"abcd"), (16, b"abcd")], AddressError),
    ([(-1, b"abcd")], AddressError),
    ([(0, b"abcd"), (1, b"abc")], ParameterError),
    ([(3, b"abcd"), (5, b"abcd"), (3, b"efgh")], ParameterError),
    ([(0, b"abcd"), (1, "abcd")], ParameterError),
])
def test_init_validates_blocks_before_storage(blocks, error):
    kvs = CountingKvs(MemoryKvs())
    with pytest.raises(error):
        make(capacity=16, payload=4, store=kvs, blocks=blocks)
    assert kvs.counters.roundtrips == 0


def test_init_refuses_nonempty_storage():
    kvs = MemoryKvs()
    make(store=kvs)
    with pytest.raises(StorageNotEmptyError):
        make(store=kvs)


def test_namespaces_share_one_store():
    kvs = MemoryKvs()
    a = oram_init(OramConfig(capacity=8, block_payload=4), keygen(128, random.Random(1)),
                  kvs, random.Random(1), namespace=0)
    b = oram_init(OramConfig(capacity=8, block_payload=4), keygen(128, random.Random(2)),
                  kvs, random.Random(2), namespace=1)
    a.access(write_op(1, b"AAAA"))
    b.access(write_op(1, b"BBBB"))
    assert a.access(read_op(1)) == b"AAAA"
    assert b.access(read_op(1)) == b"BBBB"
    assert kvs.batch_get([bucket_key(0, 1)])[0] != kvs.batch_get([bucket_key(0)])[0]
    with pytest.raises(StorageNotEmptyError):
        oram_init(OramConfig(capacity=8, block_payload=4), keygen(128, random.Random(3)),
                  kvs, random.Random(3), namespace=1)


def test_same_seed_inits_write_different_ciphertexts():
    a, b = MemoryKvs(), MemoryKvs()
    sa, sb = make(seed=3, store=a), make(seed=3, store=b)
    assert sa.pos == sb.pos  # the seed fixes keys and positions
    keys = [bucket_key(i) for i in range(sa.n_buckets)]
    va, vb = a.batch_get(keys), b.batch_get(keys)
    open_slots(sb._cipher, va, len(va), sb.bucket_plain)  # one key opens both trees
    assert all(x != y for x, y in zip(va, vb))
    assert len({v[:12] for v in va + vb}) == 2 * len(keys)  # no nonce repeats


def test_tampered_bucket_fails_authentication():
    kvs = MemoryKvs()
    st = make(capacity=16, payload=4, store=kvs)
    st.access(write_op(1, b"good"))
    root = bucket_key(0)  # on every path, and first in every batch
    bad = bytearray(kvs.batch_get([root])[0])
    bad[len(bad) // 2] ^= 1
    kvs.batch_put([(root, bytes(bad))])
    with pytest.raises(AuthenticationError, match="message 0"):
        st.access(read_op(1))


def test_wrong_length_bucket_is_a_storage_error():
    kvs = MemoryKvs()
    st = make(capacity=16, payload=4, store=kvs)
    root = bucket_key(0)
    kvs.batch_put([(root, kvs.batch_get([root])[0][:-1])])
    with pytest.raises(StorageError, match="bucket value has"):
        st.access(read_op(1))


def test_config_validation():
    with pytest.raises(ParameterError):
        OramConfig(capacity=0, block_payload=8)
    with pytest.raises(ParameterError):
        OramConfig(capacity=4, block_payload=0)


# -- the access protocol ------------------------------------------------------

def test_write_then_read_batch_example():
    st = make(payload=4)
    out = st.batch_access([write_op(1, b"AAAA"), read_op(1)])
    assert out == [None, b"AAAA"]


def test_unwritten_reads_return_zeros():
    st = make(payload=8)
    assert st.access(read_op(3)) == bytes(8)


def test_empty_batch_rejected():
    st = make()
    with pytest.raises(ParameterError):
        st.batch_access([])


def test_address_bounds():
    st = make(capacity=8, payload=4)
    with pytest.raises(AddressError):
        st.access(read_op(8))
    with pytest.raises(AddressError):
        st.access(read_op(-1))


def test_op_shape_validation():
    st = make(payload=4)
    with pytest.raises(ParameterError):
        st.access(write_op(0, b"too long"))


def test_payload_that_is_not_bytes_is_refused_before_any_change():
    """A str of the right length is refused before the batch redraws a
    position or touches storage, so every block still reads back."""
    kvs = CountingKvs(MemoryKvs())
    values = {a: a.to_bytes(4, "big") for a in range(64)}
    st = make(capacity=64, payload=4, store=kvs, blocks=values.items())
    before = kvs.counters.snapshot()
    with pytest.raises(ParameterError, match="not bytes"):
        st.batch_access([read_op(5), write_op(6, "abcd")])
    assert kvs.counters.snapshot() == before
    assert st.batch_access([read_op(a) for a in range(64)]) == [values[a] for a in range(64)]


@pytest.mark.parametrize("block", [bytearray(b"abcd"), memoryview(b"abcd"),
                                   array.array("b", b"abcd")],
                         ids=["bytearray", "memoryview", "signed-bytes"])
def test_bytes_like_blocks_read_back(block):
    """A block is bytes-like by the rule every store applies to its values."""
    st = make(capacity=8, payload=4, blocks=[(0, block)])
    st.batch_access([write_op(1, block)])
    assert st.batch_access([read_op(0), read_op(1)]) == [b"abcd", b"abcd"]


def test_dict_oracle_workload(rng, leaf_kvs):
    kvs = leaf_kvs()
    st = make(capacity=64, payload=16, store=kvs)
    oracle = {}
    for i in range(1500):
        a = rng.randrange(64)
        if rng.random() < 0.5:
            d = rng.randbytes(16)
            assert st.access(write_op(a, d)) is None
            oracle[a] = d
        else:
            assert st.access(read_op(a)) == oracle.get(a, bytes(16))
    assert len(kvs.leaves) == 1500  # one path read per access


def test_path_invariant_after_workload(rng):
    st = make(capacity=48, payload=8)
    for _ in range(600):
        a = rng.randrange(48)
        if rng.random() < 0.6:
            st.access(write_op(a, rng.randbytes(8)))
        else:
            st.access(read_op(a))
    tree = tree_blocks(st)
    # every stored block sits on the path of its mapped leaf, and no
    # address is both on the server and in the stash
    assert not set(tree) & set(st.stash)
    for addr, bid in tree.items():
        d = (bid + 1).bit_length() - 1
        idx = bid - ((1 << d) - 1)
        assert st.pos[addr] >> (st.L - d) == idx


def test_batched_equals_sequential():
    def run(batched: bool):
        r = random.Random(5)
        st = oram_init(OramConfig(capacity=32, block_payload=8),
                       keygen(128, random.Random(1)), MemoryKvs(), r)
        q = random.Random(123)
        outs = []
        for _ in range(60):
            ops = []
            for _ in range(q.randrange(1, 9)):
                a = q.randrange(32)
                if q.random() < 0.5:
                    ops.append(write_op(a, q.randbytes(8)))
                else:
                    ops.append(read_op(a))
            outs.extend(st.batch_access(ops) if batched else
                        [st.access(o) for o in ops])
        return outs

    assert run(True) == run(False)


def test_batch_is_two_round_trips():
    kvs = CountingKvs(MemoryKvs())
    st = make(capacity=32, payload=8, store=kvs)
    for size in (1, 4, 17, 32):
        before = kvs.counters.roundtrips
        st.batch_access([read_op(i) for i in range(size)])
        assert kvs.counters.roundtrips - before == 2


def test_duplicate_addresses_in_batch():
    st = make(payload=4)
    out = st.batch_access([
        write_op(2, b"1111"), read_op(2), write_op(2, b"2222"), read_op(2),
    ])
    assert out == [None, b"1111", None, b"2222"]


def test_remap_on_every_access(rng):
    st = make(capacity=16, payload=4)
    st.access(write_op(3, b"abcd"))
    seen = set()
    for _ in range(40):
        st.access(read_op(3))
        seen.add(st.pos[3])
    assert len(seen) > 1  # leaf must keep changing


def test_mutant_remap_disabled_pins_leaf():
    st = make(capacity=16, payload=4)
    st._draw_leaf = lambda: st.leaves - 1  # the mutant: every remap lands on one leaf
    st.access(write_op(3, b"abcd"))
    leaf = st.pos[3]
    for _ in range(20):
        st.access(read_op(3))
    assert st.pos[3] == leaf


def test_stash_overflow_is_reported():
    # pin every block to leaf 0: its path holds (L+1)*Z = 30 blocks, the
    # rest pile up in the stash until it passes the limit of 49
    kvs = CountingKvs(MemoryKvs())
    st = make(capacity=100, payload=8, store=kvs)
    st._draw_leaf = lambda: 0
    st.pos = [0] * 100
    with pytest.raises(StashOverflowError):
        for i in range(100):
            st.access(write_op(i, bytes(8)))
    assert st.overflowed and i == 79 and len(st.stash) == 50
    # once overflowed, the ORAM refuses before it touches storage
    before = kvs.counters.snapshot()
    with pytest.raises(StashOverflowError):
        st.access(read_op(0))
    with pytest.raises(StashOverflowError):
        st.batch_access([read_op(1), write_op(2, bytes(8))])
    assert kvs.counters.snapshot() == before


def _copies(pairs) -> list[tuple[bytes, bytes]]:
    """The pairs of a batch put with copies of their values, which are
    views the ORAM reuses once the put is confirmed."""
    return [(key, bytes(value)) for key, value in pairs]


class FlakyPuts(MemoryKvs):
    """A store whose next ``faults`` batch puts raise: after applying the
    pairs (a lost reply) or before (a lost request). Records a copy of
    every batch it was sent."""

    def __init__(self, applies: bool):
        super().__init__()
        self.applies = applies
        self.faults = 0
        self.sent: list[list] = []

    def batch_put(self, pairs):
        self.sent.append(_copies(pairs))
        if self.applies or not self.faults:
            super().batch_put(pairs)
        if self.faults:
            self.faults -= 1
            raise StorageError("injected fault")


class TornDiskKvs(DiskKvs):
    """A disk log whose gather write fails halfway through each of its
    next ``faults`` batch puts, after the first half of the records.
    Records a copy of every batch it was sent."""

    faults = 0

    def __init__(self, path):
        super().__init__(path)
        self.sent: list[list] = []

    def batch_put(self, pairs):
        self.sent.append(_copies(pairs))
        if not self.faults:
            return super().batch_put(pairs)
        self.faults -= 1
        half = sum(KEY_SIZE + 4 + len(v) for _, v in pairs[:len(pairs) // 2])
        with mock.patch.object(os, "writev", FullDisk(half)):
            super().batch_put(pairs)


@pytest.mark.parametrize("fault", ["apply-then-fail", "fail-before-apply", "disk-partial"])
def test_write_back_failure_is_resent(fault, tmp_path):
    """A write-back that raises keeps the new stash and positions and
    re-sends the identical sealed pairs, byte for byte, before the next
    access; every record reads back its value afterwards."""
    n = 2000
    if fault == "disk-partial":
        kvs = TornDiskKvs(tmp_path / "store.log")
    else:
        kvs = FlakyPuts(applies=fault == "apply-then-fail")
    values = {a: a.to_bytes(8, "big") for a in range(n)}
    st = make(capacity=n, payload=8, store=kvs, blocks=values.items())
    r = random.Random(5)
    for _ in range(30):
        kvs.faults = 1
        with pytest.raises(BatchError, match="re-sent"):
            st.batch_access([read_op(r.randrange(n)) for _ in range(50)])
        assert st._pending is not None
    failed = kvs.sent[-1]
    st.access(read_op(0))
    assert kvs.sent[-2] == failed  # the same keys and sealed bytes, sent again
    for lo in range(0, n, 200):
        got = st.batch_access([read_op(a) for a in range(lo, lo + 200)])
        assert got == [values[a] for a in range(lo, lo + 200)]
    assert len(tree_blocks(st)) + len(st.stash) == n  # no address stored twice
    kvs.close()


def test_lost_write_back_reply_is_resent_over_a_new_connection(server, monkeypatch):
    """The server applies a write-back but its reply is lost: the remote
    handle drops the connection, the next access re-sends the write-back
    over a fresh one, and every record reads back its value."""
    kvs = RemoteKvs(*server)
    n = 300
    values = {a: a.to_bytes(8, "big") for a in range(n)}
    st = make(capacity=n, payload=8, store=kvs, blocks=values.items())
    real = wire.read_response
    lost = []

    def lose_one_put_reply(sock, opcode):
        reply = real(sock, opcode)  # the server has applied the batch
        if opcode == wire.OP_BATCH_PUT and not lost:
            lost.append(sock)
            raise ConnectionResetError("reply lost")
        return reply

    monkeypatch.setattr(wire, "read_response", lose_one_put_reply)
    with pytest.raises(BatchError, match="re-sent"):
        st.batch_access([write_op(7, b"seventh!"), read_op(3)])
    values[7] = b"seventh!"
    assert lost[0].fileno() == -1  # that connection is closed
    assert st.access(read_op(0)) == values[0]
    assert st._pending is None
    assert st.batch_access([read_op(a) for a in range(n)]) == [values[a] for a in range(n)]
    assert len(tree_blocks(st)) + len(st.stash) == n  # no address stored twice
    kvs.close()


def test_unconfirmed_write_back_refuses_access():
    kvs = FlakyPuts(applies=False)
    st = make(capacity=16, payload=4, store=kvs)
    st.access(write_op(1, b"good"))
    kvs.faults = 3  # the write-back and its first two re-sends fail
    with pytest.raises(BatchError):
        st.batch_access([write_op(2, b"new!"), read_op(1)])
    for _ in range(2):
        with pytest.raises(BatchError, match="re-sent"):
            st.access(read_op(1))
    assert kvs.sent[-3] == kvs.sent[-2] == kvs.sent[-1]
    assert st.access(read_op(1)) == b"good"
    assert st.access(read_op(2)) == b"new!"  # the unconfirmed write landed


class KeepingKvs(MemoryKvs):
    """A store that breaks the contract: it keeps the value objects it is
    handed instead of copies."""

    def batch_put(self, pairs):
        with self._lock:
            self._data.update(pairs)


def test_store_that_keeps_borrowed_values_fails_loudly():
    """Once a write-back is stored, the ORAM releases the views it passed,
    so a store that kept them raises instead of reading later bytes."""
    st = make(capacity=32, payload=16, store=KeepingKvs())
    with pytest.raises(ValueError, match="released"):
        st.access(read_op(0))


def test_trace_records_prebatch_leaves(leaf_kvs):
    kvs = leaf_kvs()
    st = make(capacity=16, payload=4, store=kvs)
    leaf = st.pos[5]
    st.access(read_op(5))
    assert kvs.leaves == [leaf]  # the server saw the leaf from before the access


# -- stash bound ------------------------------------------------------------

def test_stash_bound_formula():
    assert stash_bound(0) == 1.0  # clamped at 1
    assert stash_bound(50) == pytest.approx(14.0 * 0.6002 ** 50)
    assert stash_bound(50) == pytest.approx(1.1506e-10, abs=1e-12)
    assert stash_bound(100) == pytest.approx(9.456e-22, rel=1e-3)
    with pytest.raises(ParameterError):
        stash_bound(-1)


def test_default_stash_limit():
    # smallest x with 14 * 0.6002^x <= 2^-32
    assert default_stash_limit() == 49
    assert stash_bound(49) <= 2.0 ** -32
    assert stash_bound(48) > 2.0 ** -32


class LastPutKvs(MemoryKvs):
    """A store that keeps the keys of its last batch put: for an ORAM,
    the buckets the last write-back fetched and rewrote."""

    last_put: list[bytes] = []

    def batch_put(self, pairs):
        super().batch_put(pairs)
        self.last_put = [k for k, _ in pairs]


@settings(max_examples=40)
@given(st.integers(1, 60), st.integers(0, 2**31), st.sampled_from([None, 1, 2]),
       st.lists(st.integers(1, 12), min_size=1, max_size=8))
def test_eviction_is_greedy_from_the_leaves_up(capacity, seed, crowd, sizes):
    """After any batch, every fetched bucket on a block's path that is
    deeper than where the block ended up (its bucket, or the stash)
    holds Z blocks. ``crowd`` remaps onto the first one or two leaves
    only, so that buckets fill up."""
    r = random.Random(seed)
    kvs = LastPutKvs()
    st = oram_init(OramConfig(capacity=capacity, block_payload=4), keygen(128, r), kvs, r,
                   blocks=[(a, bytes(4)) for a in range(0, capacity, 2)])
    if crowd:
        st._draw_leaf = lambda: r.randrange(min(crowd, st.leaves))
    for size in sizes:
        st.batch_access([write_op(r.randrange(capacity), bytes(4)) if r.random() < 0.5
                         else read_op(r.randrange(capacity)) for _ in range(size)])
        fetched = {int.from_bytes(k, "big") for k in kvs.last_put}
        tree = tree_blocks(st)
        load = Counter(tree.values())
        for addr in list(tree) + list(st.stash):
            depth = (tree[addr] + 1).bit_length() - 1 if addr in tree else -1
            for d in range(depth + 1, st.L + 1):
                bid = (1 << d) - 1 + (st.pos[addr] >> (st.L - d))
                assert bid not in fetched or load[bid] == Z, (addr, depth, d)


def test_dummy_addr_is_reserved():
    assert DUMMY_ADDR == (1 << 64) - 1


@settings(max_examples=25)
@given(st.integers(1, 200), st.integers(0, 2**31))
def test_capacity_round_trips_property(capacity, seed):
    r = random.Random(seed)
    st = oram_init(OramConfig(capacity=capacity, block_payload=8),
                   keygen(128, r), MemoryKvs(), r)
    addr = r.randrange(capacity)
    data = r.randbytes(8)
    st.access(write_op(addr, data))
    assert st.access(read_op(addr)) == data
