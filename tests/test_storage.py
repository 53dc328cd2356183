import random
import re
import socket
import struct
import subprocess
import sys
import threading

import pytest

from shrouddb import wire
from shrouddb.errors import (
    BatchError,
    KeyNotFoundError,
    ParameterError,
    StorageClosedError,
)
from shrouddb.storage import (
    CountingKvs,
    DiskKvs,
    KvsView,
    MemoryKvs,
    RemoteKvs,
    bucket_key,
    connect,
    parse_backend,
)


@pytest.fixture
def server():
    proc = subprocess.Popen(
        [sys.executable, "-m", "shrouddb", "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    m = re.search(r"listening on (\S+):(\d+)", line)
    assert m, line
    yield m.group(1), int(m.group(2))
    proc.terminate()
    proc.wait()


def _backends(tmp_path, server_addr):
    yield MemoryKvs()
    yield DiskKvs(tmp_path / "store.log")
    host, port = server_addr
    yield RemoteKvs(host, port)


def k(i: int) -> bytes:
    return bucket_key(i)


def test_backend_contract(tmp_path, server):
    for kvs in _backends(tmp_path, server):
        kvs.put(k(1), b"one")
        assert kvs.get(k(1)) == b"one"
        kvs.put(k(1), b"uno")  # overwrite
        assert kvs.get(k(1)) == b"uno"
        with pytest.raises(KeyNotFoundError):
            kvs.get(k(99))
        kvs.batch_put([(k(2), b"two"), (k(3), b"three" * 100)])
        assert kvs.batch_get([k(3), k(2), k(1)]) == [b"three" * 100, b"two", b"uno"]
        with pytest.raises(BatchError) as ei:
            kvs.batch_get([k(2), k(77), k(78)])
        assert set(ei.value.missing) == {k(77), k(78)}
        with pytest.raises(ParameterError):
            kvs.batch_get([])
        with pytest.raises(ParameterError):
            kvs.batch_put([])
        with pytest.raises(ParameterError):
            kvs.get(b"bad")  # not 8 bytes
        kvs.close()


def test_disk_persistence(tmp_path):
    path = tmp_path / "p.log"
    d = DiskKvs(path)
    d.put(k(5), b"five")
    d.batch_put([(k(6), b"six"), (k(5), b"FIVE")])
    d.close()
    with pytest.raises(StorageClosedError):
        d.get(k(5))
    d2 = DiskKvs(path)  # reopen rebuilds the index; later records win
    assert d2.get(k(5)) == b"FIVE"
    assert d2.get(k(6)) == b"six"
    d2.close()


def test_disk_torn_tail_is_cut_on_reopen(tmp_path):
    path = tmp_path / "torn.log"
    d = DiskKvs(path)
    d.put(k(1), b"a" * 100)
    d.close()
    whole = path.stat().st_size
    with open(path, "r+b") as fh:  # a crash 30 bytes short of the end
        fh.truncate(whole - 30)
    d = DiskKvs(path)
    with pytest.raises(KeyNotFoundError):
        d.get(k(1))  # the torn record is gone, not returned short
    assert path.stat().st_size == 0
    d.put(k(2), b"b" * 10)  # lands on a record boundary
    d.close()
    d = DiskKvs(path)
    assert d.get(k(2)) == b"b" * 10
    with pytest.raises(KeyNotFoundError):
        d.get(k(1))
    d.close()


def test_disk_torn_header_is_cut_on_reopen(tmp_path):
    path = tmp_path / "torn.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"one"), (k(2), b"two")])
    d.close()
    with open(path, "r+b") as fh:  # keep record 1 and half of record 2's header
        fh.truncate(8 + 4 + 3 + 6)
    d = DiskKvs(path)
    assert d.get(k(1)) == b"one"
    d.put(k(3), b"three")
    d.close()
    d = DiskKvs(path)
    assert d.batch_get([k(1), k(3)]) == [b"one", b"three"]
    with pytest.raises(KeyNotFoundError):
        d.get(k(2))
    d.close()


def test_memory_clear_and_sizes():
    m = MemoryKvs()
    m.batch_put([(k(i), bytes(i)) for i in range(1, 5)])
    assert len(m) == 4
    assert m.total_bytes() == 1 + 2 + 3 + 4
    m.clear()
    assert len(m) == 0


def test_counting_kvs_logical_bytes():
    c = CountingKvs(MemoryKvs())
    c.put(k(1), b"x" * 100)          # up: 8 + 100
    c.get(k(1))                      # up: 8, down: 100
    c.batch_put([(k(2), b"y" * 10), (k(3), b"z" * 20)])  # up: 2*8 + 30
    c.batch_get([k(2), k(3)])        # up: 16, down: 30
    assert c.counters.roundtrips == 4
    assert c.counters.bytes_up == 108 + 8 + 46 + 16
    assert c.counters.bytes_down == 130
    snap = c.counters.snapshot()
    c.counters.reset()
    assert c.counters.roundtrips == 0
    assert snap.roundtrips == 4


def test_kvs_view_isolation():
    base = MemoryKvs()
    a = KvsView(base, 1)
    b = KvsView(base, 2)
    ident = KvsView(base, 0)
    a.put(k(7), b"A")
    b.put(k(7), b"B")
    ident.put(k(7), b"I")
    assert a.get(k(7)) == b"A"
    assert b.get(k(7)) == b"B"
    assert base.get(k(7)) == b"I"  # namespace 0 is the identity mapping
    assert len(base) == 3


def test_kvs_view_rejects_out_of_range():
    base = MemoryKvs()
    with pytest.raises(ParameterError):
        KvsView(base, 1 << 12)
    v = KvsView(base, 1)
    with pytest.raises(ParameterError):
        v.put(((1 << 52)).to_bytes(8, "big"), b"x")


def test_parse_backend():
    assert parse_backend("memory") == ("memory", None)
    assert parse_backend("disk") == ("disk", None)
    assert parse_backend("remote=h:9") == ("remote", "h:9")
    with pytest.raises(ParameterError):
        parse_backend("s3")


def test_connect_disk_needs_dir():
    with pytest.raises(ParameterError):
        connect("disk")


# -- wire framing -----------------------------------------------------------

def test_wire_frame_layout():
    a, b = socket.socketpair()
    try:
        wire.send_request(a, wire.OP_PUT, b"payload")
        raw = b.recv(1024)
        # u32 big-endian length of (opcode + payload), then opcode, then payload
        assert raw == struct.pack(">IB", 1 + 7, wire.OP_PUT) + b"payload"
    finally:
        a.close()
        b.close()


def test_wire_response_layout():
    a, b = socket.socketpair()
    try:
        wire.send_response(a, wire.OP_GET, wire.ST_OK, b"val")
        raw = b.recv(1024)
        assert raw == struct.pack(">IBB", 2 + 3, 0x80 | wire.OP_GET, wire.ST_OK) + b"val"
    finally:
        a.close()
        b.close()


def test_wire_roundtrip_request_response():
    a, b = socket.socketpair()
    try:
        wire.send_request(a, wire.OP_BATCH_GET, wire.pack_keys([k(1), k(2)]))
        op, payload = wire.read_request(b)
        assert op == wire.OP_BATCH_GET
        assert wire.unpack_keys(payload) == [k(1), k(2)]
        wire.send_response(b, op, wire.ST_OK, wire.pack_values([b"x", b"yy"]))
        status, payload = wire.read_response(a, wire.OP_BATCH_GET)
        assert status == wire.ST_OK
        assert wire.unpack_values(payload) == [b"x", b"yy"]
    finally:
        a.close()
        b.close()


def test_wire_pack_pairs_roundtrip():
    pairs = [(k(1), b""), (k(2), b"data" * 50)]
    assert wire.unpack_pairs(wire.pack_pairs(pairs)) == pairs


def test_wire_opcode_set():
    assert {wire.OP_GET, wire.OP_PUT, wire.OP_BATCH_GET, wire.OP_BATCH_PUT} == \
        {0x01, 0x02, 0x03, 0x04}


def test_server_missing_and_error_paths(server):
    host, port = server
    with socket.create_connection((host, port)) as s:
        wire.send_request(s, wire.OP_GET, k(42))
        status, payload = wire.read_response(s, wire.OP_GET)
        assert status == wire.ST_MISSING
        assert payload == k(42)
        # unknown opcode answers an error frame without dropping the link
        wire.send_request(s, 0x7F, b"")
        length = wire.recv_exact(s, 4)
        frame = wire.recv_exact(s, struct.unpack(">I", length)[0])
        assert frame[0] == 0x80 | 0x7F
        assert frame[1] == wire.ST_ERROR
        # connection still usable
        wire.send_request(s, wire.OP_PUT, k(1) + b"v")
        status, _ = wire.read_response(s, wire.OP_PUT)
        assert status == wire.ST_OK


def test_remote_concurrent_connections(server):
    host, port = server
    errs = []

    def worker(base):
        try:
            kvs = RemoteKvs(host, port)
            kvs.batch_put([(k(base + i), bytes([i])) for i in range(50)])
            got = kvs.batch_get([k(base + i) for i in range(50)])
            assert got == [bytes([i]) for i in range(50)]
            kvs.close()
        except Exception as exc:  # pragma: no cover
            errs.append(exc)

    threads = [threading.Thread(target=worker, args=(1000 * t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs


def test_shared_remote_handle_serves_all_orams(server):
    """One caller-supplied RemoteKvs shared by m = 4 pool workers."""
    from shrouddb.data import Database, Record, range_query
    from shrouddb.engine import EngineConfig, query, setup

    host, port = server
    r = random.Random(5)
    db = Database([Record(i, r.randrange(100), r.randbytes(64)) for i in range(200)])
    remote = RemoteKvs(host, port)
    state = setup(db, EngineConfig(domain=100, record_size=64, m=4), remote, 3)
    try:
        for a in range(0, 100, 20):
            res = query(state, range_query(a, a + 9))
            assert [x.rid for x in res.records] == \
                sorted(x.rid for x in db.records if a <= x.key <= a + 9)
            assert all(x == db.records[x.rid] for x in res.records)
    finally:
        state.close()
        remote.close()
