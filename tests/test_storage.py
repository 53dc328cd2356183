import os
import random
import socket
import struct
import threading
import time
import zlib

import pytest
from conftest import FullDisk
from hypothesis import example, given, strategies as st

from shrouddb import cli, wire
from shrouddb.errors import (
    BatchError,
    ParameterError,
    StorageClosedError,
    StorageError,
)
from shrouddb.storage import (
    MAX_INDEX,
    META_NAMESPACE,
    CountingKvs,
    DiskKvs,
    MemoryKvs,
    RemoteKvs,
    bucket_key,
    connect,
    parse_endpoint,
)


def _backends(tmp_path, server_addr):
    yield MemoryKvs()
    yield DiskKvs(tmp_path / "store.log")
    host, port = server_addr
    yield RemoteKvs(host, port)


def k(i: int) -> bytes:
    return bucket_key(i)


def test_backend_contract(tmp_path, server):
    for kvs in _backends(tmp_path, server):
        kvs.batch_put([(k(1), b"one")])
        assert kvs.batch_get([k(1)]) == [b"one"]
        kvs.batch_put([(k(1), b"uno")])  # overwrite
        assert kvs.batch_get([k(1)]) == [b"uno"]
        with pytest.raises(BatchError) as ei:
            kvs.batch_get([k(99)])
        assert ei.value.missing == [k(99)]
        kvs.batch_put([(k(2), b"two"), (k(3), b"three" * 100)])
        assert kvs.batch_get([k(3), k(2), k(1)]) == [b"three" * 100, b"two", b"uno"]
        # a key twice in one batch, at the stored length and at another: the last value wins
        kvs.batch_put([(k(2), b"TWO"), (k(1), b"UNO"), (k(2), b"deux!")])
        assert kvs.batch_get([k(1), k(2)]) == [b"UNO", b"deux!"]
        with pytest.raises(BatchError) as ei:
            kvs.batch_get([k(2), k(77), k(78)])
        assert set(ei.value.missing) == {k(77), k(78)}
        with pytest.raises(ParameterError):
            kvs.batch_get([])
        with pytest.raises(ParameterError):
            kvs.batch_put([])
        with pytest.raises(ParameterError):
            kvs.batch_get([b"bad"])  # not 8 bytes
        kvs.close()
        with pytest.raises(StorageClosedError):
            kvs.batch_get([k(1)])


@pytest.mark.parametrize("backend", ["memory", "disk", "remote"])
def test_batch_put_refuses_values_that_are_not_bytes_like(backend, tmp_path, request):
    """A value that is not a flat buffer of bytes is refused with
    ParameterError before any pair of its batch is stored."""
    if backend == "memory":
        kvs = MemoryKvs()
    elif backend == "disk":
        kvs = DiskKvs(tmp_path / "store.log")
    else:
        kvs = RemoteKvs(*request.getfixturevalue("server"))
    try:
        for bad in ("s", 5, None, memoryview(bytes(8)).cast("I")):
            with pytest.raises(ParameterError, match="bytes-like"):
                kvs.batch_put([(k(1), b"x"), (k(2), bad)])
            with pytest.raises(BatchError):
                kvs.batch_get([k(1)])  # the valid pair before it was not stored
        if backend == "disk":
            assert (tmp_path / "store.log").stat().st_size == 0
        kvs.batch_put([(k(1), bytearray(b"ab")), (k(2), memoryview(b"cd"))])
        assert kvs.batch_get([k(1), k(2)]) == [b"ab", b"cd"]
    finally:
        kvs.close()


def test_disk_persistence(tmp_path):
    path = tmp_path / "p.log"
    d = DiskKvs(path)
    d.batch_put([(k(5), b"five")])
    d.batch_put([(k(6), b"six"), (k(5), b"FIVE")])
    d.close()
    with pytest.raises(StorageClosedError):
        d.batch_get([k(5)])
    d2 = DiskKvs(path)  # reopen rebuilds the index; later records win
    assert d2.batch_get([k(5), k(6)]) == [b"FIVE", b"six"]
    d2.close()


def test_disk_log_format(tmp_path):
    """The log is ``key(8) || u32 big-endian length || value`` per record,
    in batch order; a log written in that format by hand reopens, later
    records winning, so logs written by earlier versions stay readable."""
    def record(key, value):
        return key + struct.pack(">I", len(value)) + value

    path = tmp_path / "format.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"one"), (k(2), b"")])
    d.batch_put([(k(1), b"uno" * 50)])
    d.close()
    assert path.read_bytes() == record(k(1), b"one") + record(k(2), b"") + record(k(1), b"uno" * 50)

    path = tmp_path / "by-hand.log"
    path.write_bytes(record(k(7), b"seven") + record(k(8), b"eight") + record(k(7), b"SEVEN"))
    d = DiskKvs(path)
    assert d.batch_get([k(7), k(8)]) == [b"SEVEN", b"eight"]
    d.close()


def test_disk_torn_tail_is_cut_on_reopen(tmp_path):
    path = tmp_path / "torn.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"a" * 100)])
    d.close()
    whole = path.stat().st_size
    with open(path, "r+b") as fh:  # a crash 30 bytes short of the end
        fh.truncate(whole - 30)
    d = DiskKvs(path)
    with pytest.raises(BatchError):
        d.batch_get([k(1)])  # the torn record is gone, not returned short
    assert path.stat().st_size == 0
    d.batch_put([(k(2), b"b" * 10)])  # lands on a record boundary
    d.close()
    d = DiskKvs(path)
    assert d.batch_get([k(2)]) == [b"b" * 10]
    with pytest.raises(BatchError):
        d.batch_get([k(1)])
    d.close()


def test_disk_torn_header_is_cut_on_reopen(tmp_path):
    path = tmp_path / "torn.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"one"), (k(2), b"two")])
    d.close()
    with open(path, "r+b") as fh:  # keep record 1 and half of record 2's header
        fh.truncate(8 + 4 + 3 + 6)
    d = DiskKvs(path)
    assert d.batch_get([k(1)]) == [b"one"]
    d.batch_put([(k(3), b"three")])
    d.close()
    d = DiskKvs(path)
    assert d.batch_get([k(1), k(3)]) == [b"one", b"three"]
    with pytest.raises(BatchError):
        d.batch_get([k(2)])
    d.close()


def _journal(path):
    return path.with_name(path.name + ".journal")


def _failed_batch_is_cut(path, writev, monkeypatch):
    """A batch whose journal write goes through ``writev`` is refused and
    leaves the log as it was and the journal empty, so the same batch
    sent again reads back, also on reopen."""
    d = DiskKvs(path)
    old = [(k(i), b"old-%d" % i * 4) for i in range(10)]
    new = [(k(i), b"new-%d" % i * 4) for i in range(10)]
    d.batch_put(old)
    before = path.read_bytes()
    with monkeypatch.context() as patch:
        patch.setattr(os, "writev", writev)
        with pytest.raises(StorageError, match="disk write failed"):
            d.batch_put(new)
    assert path.read_bytes() == before
    assert _journal(path).stat().st_size == 0
    assert d.batch_get([k(0)]) == [old[0][1]]
    d.batch_put(new)
    assert d.batch_get([key for key, _ in new]) == [v for _, v in new]
    d.close()
    d = DiskKvs(path)
    assert d.batch_get([key for key, _ in new]) == [v for _, v in new]
    d.close()


def test_disk_failed_write_leaves_no_bytes_behind(tmp_path, monkeypatch):
    _failed_batch_is_cut(tmp_path / "full.log", FullDisk(25), monkeypatch)  # 25 of a 32-byte record


def test_disk_short_write_is_refused_and_cut(tmp_path, monkeypatch):
    def short(fd, buffers):  # takes 25 bytes and reports them without an error
        return os.write(fd, b"".join(buffers)[:25])

    _failed_batch_is_cut(tmp_path / "short.log", short, monkeypatch)


def test_disk_failed_append_applies_no_overwrite(tmp_path, monkeypatch):
    """A batch whose journal is written but whose append fails partway
    applies neither its append nor its overwrite, and leaves none of the
    append's bytes in the log."""
    path = tmp_path / "mixed.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"one"), (k(2), b"two")])
    before = path.read_bytes()
    batch = [(k(1), b"ONE"), (k(3), b"three")]  # an overwrite, then an append
    journal = sum(8 + 4 + len(v) for _, v in batch) + 8  # records and trailer
    with monkeypatch.context() as patch:
        patch.setattr(os, "writev", FullDisk(journal + 5))  # 5 bytes of the append land
        with pytest.raises(StorageError, match="disk write failed"):
            d.batch_put(batch)
    assert path.read_bytes() == before
    assert _journal(path).stat().st_size == 0
    assert d.batch_get([k(1), k(2)]) == [b"one", b"two"]
    with pytest.raises(BatchError):
        d.batch_get([k(3)])
    d.close()
    d = DiskKvs(path)
    assert d.batch_get([k(1), k(2)]) == [b"one", b"two"]
    with pytest.raises(BatchError):
        d.batch_get([k(3)])
    d.close()


def _record(key, value):
    return key + struct.pack(">I", len(value)) + value


def test_disk_overwrites_in_place_behind_a_journal(tmp_path, monkeypatch):
    """A put at a key's stored length overwrites the value where it lies
    and a new key appends; the batch first goes to the journal as the
    log's records and a trailer of u32 count || u32 crc32, which is
    emptied once the batch is applied."""
    path = tmp_path / "store.log"
    d = DiskKvs(path)
    d.batch_put([(k(1), b"one"), (k(2), b"two")])
    written = []
    real = os.writev

    def spy(fd, buffers):
        if os.path.samestat(os.fstat(fd), os.stat(_journal(path))):
            written.append(b"".join(buffers))
        return real(fd, buffers)

    monkeypatch.setattr(os, "writev", spy)
    d.batch_put([(k(2), b"TWO"), (k(3), b"three")])
    body = _record(k(2), b"TWO") + _record(k(3), b"three")
    assert b"".join(written) == body + struct.pack(">II", 2, zlib.crc32(body))
    assert _journal(path).stat().st_size == 0
    assert path.read_bytes() == _record(k(1), b"one") + _record(k(2), b"TWO") \
        + _record(k(3), b"three")
    d.close()


def test_disk_shadowed_log_takes_overwrites_at_latest_records(tmp_path):
    """A log with shadowed records, as earlier versions wrote it, takes
    each overwrite at its key's latest record and reads back exactly."""
    path = tmp_path / "shadowed.log"
    path.write_bytes(_record(k(7), b"seven") + _record(k(8), b"eight")
                     + _record(k(7), b"SEVEN"))
    d = DiskKvs(path)
    d.batch_put([(k(7), b"7-7-7"), (k(8), b"EIGHT")])
    d.close()
    assert path.read_bytes() == _record(k(7), b"seven") + _record(k(8), b"EIGHT") \
        + _record(k(7), b"7-7-7")
    d = DiskKvs(path)
    assert d.batch_get([k(7), k(8)]) == [b"7-7-7", b"EIGHT"]
    d.close()


OLD = [(k(i), b"old-%d" % i) for i in range(4)]
NEW = [(k(i), b"new-%d" % i) for i in range(4)] + [(k(9), b"appended")]


def _crash_states(tmp_path):
    """The log before the batch NEW, the log after it, and the journal
    it wrote; each as bytes."""
    path = tmp_path / "whole.log"
    d = DiskKvs(path)
    d.batch_put(OLD)
    old_log = path.read_bytes()
    body = b"".join(_record(key, v) for key, v in NEW)
    d.batch_put(NEW)
    d.close()
    return old_log, path.read_bytes(), body + struct.pack(">II", len(NEW), zlib.crc32(body))


def _reopen(path, log, journal):
    """Lay ``log`` and ``journal`` down as a crash left them; reopen and
    return every key's value, None if missing."""
    path.write_bytes(log)
    _journal(path).write_bytes(journal)
    d = DiskKvs(path)
    try:
        got = []
        for key in [key for key, _ in NEW]:
            try:
                got.append(d.batch_get([key])[0])
            except BatchError:
                got.append(None)
    finally:
        d.close()
    assert _journal(path).stat().st_size == 0
    return got


def test_disk_journal_cut_at_every_byte_is_all_or_nothing(tmp_path):
    """A crash while the journal is written, at every byte offset: the
    log is untouched, and on reopen the batch is wholly old, or wholly
    new once the journal is whole. A journal whose trailer does not
    check its records is dropped."""
    old_log, _, journal = _crash_states(tmp_path)
    old = [v for _, v in OLD] + [None]
    new = [v for _, v in NEW]
    path = tmp_path / "crash.log"
    for cut in range(len(journal) + 1):
        assert _reopen(path, old_log, journal[:cut]) == (new if cut == len(journal) else old), cut
    for at in range(len(journal)):  # a whole journal with a byte flipped anywhere is dropped
        flipped = bytearray(journal)
        flipped[at] ^= 0x20
        assert _reopen(path, old_log, bytes(flipped)) == old, at


def test_disk_crash_mid_apply_is_replayed(tmp_path):
    """A whole journal beside a log cut anywhere in the batch's append,
    or with its append and only the first j overwrites applied, or with
    all of them, reopens wholly new; the log's records end as a full
    apply leaves them."""
    old_log, new_log, journal = _crash_states(tmp_path)
    new = [v for _, v in NEW]
    appended = old_log + _record(k(9), b"appended")
    states = [appended[:cut] for cut in range(len(old_log), len(appended))]
    for j in range(len(OLD) + 1):
        log = bytearray(appended)
        for i, (_, v) in enumerate(NEW[:j]):  # record i of OLD begins at i * len(record)
            at = i * len(_record(k(i), v)) + 8 + 4
            log[at:at + len(v)] = v
        states.append(bytes(log))
    assert states[-1] == new_log  # a crash after the apply, before the truncate
    path = tmp_path / "crash.log"
    for log in states:
        assert _reopen(path, log, journal) == new
        assert path.read_bytes() == new_log


def test_disk_deployment_log_keeps_its_setup_size(tmp_path):
    """Over 300 queries, a disk deployment's log keeps the size it had
    after setup, and its journal is empty between batches."""
    from shrouddb.data import Database, Record, range_query
    from shrouddb.engine import EngineConfig, query, setup

    r = random.Random(8)
    db = Database([Record(i, r.randrange(100), r.randbytes(16)) for i in range(200)])
    log = tmp_path / "store.log"
    with setup(db, EngineConfig(domain=100, record_size=16, m=2), "disk", 4, tmp_path) as state:
        size = log.stat().st_size
        for _ in range(300):
            a = r.randrange(100)
            res = query(state, range_query(a, min(99, a + r.randrange(5))))
            assert not res.failed
            assert (log.stat().st_size, _journal(log).stat().st_size) == (size, 0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists /proc/self/fd")
def test_disk_close_releases_every_handle(tmp_path):
    """``close`` closes the log, the journal and the map; an open that
    fails closes what it had opened."""
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    d = DiskKvs(tmp_path / "store.log")
    d.batch_put([(k(1), b"one")])
    assert d.batch_get([k(1)]) == [b"one"]
    d.close()
    with pytest.raises(StorageClosedError):
        d.batch_get([k(1)])
    with pytest.raises(StorageClosedError):
        d.batch_put([(k(1), b"uno")])
    assert open_fds() <= before
    _journal(tmp_path / "blocked.log").mkdir()  # the journal cannot be opened
    with pytest.raises(OSError):
        DiskKvs(tmp_path / "blocked.log")
    assert open_fds() <= before


def test_counting_kvs_logical_bytes():
    c = CountingKvs(MemoryKvs())
    c.batch_put([(k(1), b"x" * 100)])                    # up: 8 + 100
    c.batch_get([k(1)])                                  # up: 8, down: 100
    c.batch_put([(k(2), b"y" * 10), (k(3), b"z" * 20)])  # up: 2*8 + 30
    snap = c.counters.snapshot()
    c.batch_get([k(2), k(3)])                            # up: 16, down: 30
    with pytest.raises(BatchError):
        c.batch_get([k(4)])                              # up: 8; a miss costs the trip
    assert c.counters.roundtrips == 5
    assert c.counters.bytes_up == 108 + 8 + 46 + 16 + 8
    assert c.counters.bytes_down == 130
    assert snap.roundtrips == 3


def test_bucket_key_namespaces():
    assert bucket_key(7) == (7).to_bytes(8, "big")  # namespace 0 is the plain index
    assert bucket_key(7, 1) == ((1 << 52) | 7).to_bytes(8, "big")
    top = bucket_key(MAX_INDEX - 1, META_NAMESPACE)
    assert top == ((1 << 64) - 1).to_bytes(8, "big")
    base = MemoryKvs()
    base.batch_put([(bucket_key(7, ns), bytes([ns])) for ns in (0, 1, 2)])
    assert base.batch_get([bucket_key(7, ns) for ns in (2, 1, 0)]) == [b"\x02", b"\x01", b"\x00"]


def test_bucket_key_rejects_out_of_range():
    with pytest.raises(ParameterError):
        bucket_key(0, META_NAMESPACE + 1)
    with pytest.raises(ParameterError):
        bucket_key(0, -1)
    with pytest.raises(ParameterError):
        bucket_key(MAX_INDEX, 1)
    with pytest.raises(ParameterError):
        bucket_key(-1)


def test_connect_specs():
    assert isinstance(connect("memory"), MemoryKvs)
    for spec in ("s3", "remote", "memory=x"):
        with pytest.raises(ParameterError, match="unknown storage spec"):
            connect(spec)


def test_connect_disk_needs_dir():
    with pytest.raises(ParameterError):
        connect("disk")


@pytest.mark.parametrize("spec", ["remote=nohost", "remote=host:", "remote=host:port",
                                  "remote=host:99999", "remote=host:-1", "remote=host:1_0"])
def test_connect_rejects_malformed_remote_spec(spec):
    with pytest.raises(ParameterError):
        connect(spec)


def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_endpoint("::1:65535") == ("::1", 65535)


@pytest.mark.parametrize("listen", ["127.0.0.1:abc", "127.0.0.1:99999", "127.0.0.1:",
                                    ":80", "nohost"])
def test_serve_rejects_bad_listen_address(listen, capsys):
    assert cli.main(["serve", "--listen", listen]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "HOST:PORT" in err and "Traceback" not in err


def test_setup_rejects_malformed_remote_spec():
    from shrouddb.data import Database, Record
    from shrouddb.engine import EngineConfig, setup

    db = Database([Record(0, 1, bytes(8))])
    with pytest.raises(ParameterError):
        setup(db, EngineConfig(domain=10, record_size=8), "remote=nohost", 1)


# -- wire framing -----------------------------------------------------------

def _u32(n: int) -> bytes:
    return struct.pack(">I", n)


def _blob_list(blobs: list[bytes]) -> bytes:
    """``u32 n || n x (u32 len || blob)``, built by hand."""
    return _u32(len(blobs)) + b"".join(_u32(len(b)) + b for b in blobs)


def test_wire_frame_layout():
    a, b = socket.socketpair()
    try:
        wire.send_request(a, wire.OP_BATCH_PUT, [b"pay", b"", b"load"])
        raw = b.recv(1024)
        # u32 big-endian length of (opcode + payload), then opcode, then payload
        assert raw == struct.pack(">IB", 1 + 7, wire.OP_BATCH_PUT) + b"payload"
    finally:
        a.close()
        b.close()


def test_wire_response_layout():
    a, b = socket.socketpair()
    try:
        wire.send_response(a, wire.OP_BATCH_GET, wire.ST_OK, [b"val"])
        raw = b.recv(1024)
        assert raw == struct.pack(">IBB", 2 + 3, 0x80 | wire.OP_BATCH_GET, wire.ST_OK) + b"val"
    finally:
        a.close()
        b.close()


def test_wire_roundtrip_request_response():
    a, b = socket.socketpair()
    try:
        wire.send_request(a, wire.OP_BATCH_GET, wire.blob_pieces([k(1), k(2)]))
        op, payload = wire.read_request(b)
        assert op == wire.OP_BATCH_GET
        assert wire.unpack_blobs(payload) == [k(1), k(2)]
        wire.send_response(b, op, wire.ST_OK, wire.blob_pieces([b"x", b"yy"]))
        status, payload = wire.read_response(a, wire.OP_BATCH_GET)
        assert status == wire.ST_OK
        assert wire.unpack_blobs(payload) == [b"x", b"yy"]
    finally:
        a.close()
        b.close()


@given(st.lists(st.binary(max_size=40), max_size=6))
@example([])
@example([b""])
@example([b"", k(1), b""])
def test_blob_list_roundtrip(blobs):
    packed = b"".join(wire.blob_pieces(blobs))
    assert packed == _blob_list(blobs)
    assert wire.unpack_blobs(packed) == blobs
    for cut in range(len(packed)):  # every proper prefix
        with pytest.raises(ValueError):
            wire.unpack_blobs(packed[:cut])
    with pytest.raises(ValueError):
        wire.unpack_blobs(packed + b"\x00")
    with pytest.raises(ValueError):  # a count larger than the payload holds
        wire.unpack_blobs(struct.pack(">I", len(blobs) + 1) + packed[4:])


def test_wire_opcode_set():
    assert {wire.OP_BATCH_GET, wire.OP_BATCH_PUT} == {0x03, 0x04}


def test_server_missing_and_error_paths(server):
    host, port = server
    with socket.create_connection((host, port)) as s:
        wire.send_request(s, wire.OP_BATCH_PUT, wire.blob_pieces([k(1), b"v"]))
        assert wire.read_response(s, wire.OP_BATCH_PUT) == (wire.ST_OK, b"")
        wire.send_request(s, wire.OP_BATCH_GET, wire.blob_pieces([k(1), k(42), k(43)]))
        status, payload = wire.read_response(s, wire.OP_BATCH_GET)
        assert status == wire.ST_MISSING
        assert wire.unpack_blobs(payload) == [k(42), k(43)]
        # a put with an odd blob count is not pairs: an error, and nothing stored
        wire.send_request(s, wire.OP_BATCH_PUT, wire.blob_pieces([k(5), b"v", k(6)]))
        assert wire.read_response(s, wire.OP_BATCH_PUT)[0] == wire.ST_ERROR
        wire.send_request(s, wire.OP_BATCH_GET, wire.blob_pieces([k(5)]))
        status, payload = wire.read_response(s, wire.OP_BATCH_GET)
        assert (status, wire.unpack_blobs(payload)) == (wire.ST_MISSING, [k(5)])
        # unknown opcodes, the retired single-key 0x01 and 0x02 among them,
        # answer an error frame without dropping the link
        for op in (0x01, 0x02, 0x7F):
            wire.send_request(s, op, [k(1)])
            # read_response raises ValueError unless the frame's opcode is 0x80 | op
            status, payload = wire.read_response(s, op)
            assert status == wire.ST_ERROR
            assert b"unknown opcode" in bytes(payload)
        # an empty batch is an error too
        wire.send_request(s, wire.OP_BATCH_GET, wire.blob_pieces([]))
        assert wire.read_response(s, wire.OP_BATCH_GET)[0] == wire.ST_ERROR
        # connection still usable
        wire.send_request(s, wire.OP_BATCH_GET, wire.blob_pieces([k(1)]))
        status, payload = wire.read_response(s, wire.OP_BATCH_GET)
        assert (status, wire.unpack_blobs(payload)) == (wire.ST_OK, [b"v"])


def _recv_raw_frame(conn: socket.socket) -> bytes:
    """One whole frame, its length header included, read with plain ``recv``."""
    raw = b""
    while len(raw) < 4 or len(raw) < 4 + struct.unpack(">I", raw[:4])[0]:
        chunk = conn.recv(1 << 16)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        raw += chunk
    return raw


def test_remote_client_sends_the_documented_bytes():
    """The bytes a ``RemoteKvs`` puts on the wire, against frames built by hand."""
    listener = socket.create_server(("127.0.0.1", 0))
    seen = []

    def serve():
        conn, _ = listener.accept()
        with conn, listener:
            seen.append(_recv_raw_frame(conn))  # the get: two values back
            conn.sendall(_u32(2 + 4 + 4 + 1 + 4 + 2) + bytes([0x83, 0x00]) + _u32(2)
                         + _u32(1) + b"x" + _u32(2) + b"yy")
            seen.append(_recv_raw_frame(conn))  # the put: an empty OK
            conn.sendall(_u32(2) + bytes([0x84, 0x00]))
            conn.recv(1)  # hold the link until the client closes

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    kvs = RemoteKvs(*listener.getsockname())
    try:
        got = kvs.batch_get([k(1), k(2)])
        assert got == [b"x", b"yy"]
        assert all(memoryview(v).readonly for v in got)
        kvs.batch_put([(k(3), b"abc"), (k(4), b"")])
    finally:
        kvs.close()
        t.join(timeout=10)
    assert seen == [
        _u32(1 + 4 + 2 * (4 + 8)) + bytes([0x03]) + _u32(2)
        + _u32(8) + k(1) + _u32(8) + k(2),
        _u32(1 + 4 + 4 * 4 + 8 + 3 + 8 + 0) + bytes([0x04]) + _u32(4)
        + _u32(8) + k(3) + _u32(3) + b"abc" + _u32(8) + k(4) + _u32(0),
    ]


def test_server_answers_the_documented_bytes(server):
    """The bytes ``shrouddb serve`` answers with, against frames built by hand."""
    with socket.create_connection(server) as s:
        s.sendall(_u32(1 + 4 + 4 * 4 + 8 + 3 + 8 + 0) + bytes([0x04]) + _u32(4)
                  + _u32(8) + k(3) + _u32(3) + b"abc" + _u32(8) + k(4) + _u32(0))
        assert _recv_raw_frame(s) == _u32(2) + bytes([0x84, 0x00])
        s.sendall(_u32(1 + 4 + 2 * (4 + 8)) + bytes([0x03]) + _u32(2)
                  + _u32(8) + k(4) + _u32(8) + k(3))
        assert _recv_raw_frame(s) == (_u32(2 + 4 + 4 + 0 + 4 + 3) + bytes([0x83, 0x00])
                                      + _u32(2) + _u32(0) + _u32(3) + b"abc")
        s.sendall(_u32(1 + 4 + 2 * (4 + 8)) + bytes([0x03]) + _u32(2)
                  + _u32(8) + k(3) + _u32(8) + k(9))
        assert _recv_raw_frame(s) == (_u32(2 + 4 + 4 + 8) + bytes([0x83, 0x01])
                                      + _u32(1) + _u32(8) + k(9))
        s.sendall(_u32(1 + 8) + bytes([0x7F]) + k(1))
        message = b"unknown opcode 0x7f"
        assert _recv_raw_frame(s) == _u32(2 + len(message)) + bytes([0xFF, 0x02]) + message


def test_gather_write_survives_short_sends(server, monkeypatch):
    """A batch of more than IOV_MAX pieces and several MB, sent through a
    small send buffer so that ``sendmsg`` returns short, comes back whole."""
    offered, sent = [], []
    real_sendmsg = socket.socket.sendmsg

    def spy(sock, buffers, *args):
        offered.append(sum(map(len, buffers)))
        sent.append(real_sendmsg(sock, buffers, *args))
        return sent[-1]

    real_connect = RemoteKvs._connect

    def small_buffer_connect(self):
        sock = real_connect(self)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        return sock

    monkeypatch.setattr(socket.socket, "sendmsg", spy)
    monkeypatch.setattr(RemoteKvs, "_connect", small_buffer_connect)
    r = random.Random(17)
    pairs = [(k(i), r.randbytes(r.randrange(1, 4000))) for i in range(3000)]
    assert 4 * len(pairs) > os.sysconf("SC_IOV_MAX")  # pieces: u32 count, 2 per blob
    kvs = RemoteKvs(*server, timeout=10)
    try:
        kvs.batch_put(pairs)
        assert kvs.batch_get([key for key, _ in pairs]) == [v for _, v in pairs]
    finally:
        kvs.close()
    assert any(s < o for s, o in zip(sent, offered))  # short sends did happen


def test_frame_over_the_limit_is_refused_before_sending(monkeypatch):
    """An over-limit request fails by name on the client and an over-limit
    reply by name on the server; either way the link stays up."""
    from shrouddb.server import KvsServer

    monkeypatch.setattr(wire, "MAX_FRAME", 1000)
    opened = []
    real_connect = RemoteKvs._connect

    def counting_connect(self):
        opened.append(real_connect(self))
        return opened[-1]

    monkeypatch.setattr(RemoteKvs, "_connect", counting_connect)
    srv = KvsServer("127.0.0.1", 0, "memory")
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    kvs = RemoteKvs(*srv.endpoint)
    try:
        # 1 opcode + 4 count + 20 x (4 + 8) keys + 20 x (4 + 100) values
        with pytest.raises(StorageError, match=r"^frame of 2325 bytes is over the 1000-byte limit$"):
            kvs.batch_put([(k(i), bytes(100)) for i in range(20)])
        for base in (0, 5):
            kvs.batch_put([(k(base + i), bytes([i]) * 100) for i in range(5)])
        # the reply: 2 opcode and status + 4 count + 10 x (4 + 100)
        with pytest.raises(StorageError, match=r"^frame of 1046 bytes is over the 1000-byte limit$"):
            kvs.batch_get([k(i) for i in range(10)])
        assert kvs.batch_get([k(4), k(5)]) == [bytes([4]) * 100, bytes([0]) * 100]
    finally:
        kvs.close()
        srv.shutdown()
        srv.server_close()
        t.join(timeout=10)
    assert len(opened) == 1


def _fake_server(reply: bytes):
    """A one-shot server that answers the first request with ``reply``
    as an OK batch_get payload; returns (host, port, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve():
        conn, _ = listener.accept()
        with conn, listener:
            op, _ = wire.read_request(conn)
            wire.send_response(conn, op, wire.ST_OK, [reply])
            conn.recv(1)  # hold the link until the client closes

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return host, port, t


@pytest.mark.parametrize("reply", [
    struct.pack(">I", 2) + b"\x00\x05",                  # two values promised, 2 bytes sent
    struct.pack(">II", 1, 99) + b"short",                # a value length past the end
    _blob_list([b"a", b"b"]),                            # well formed, one value too many
], ids=["truncated-header", "length-past-end", "count-mismatch"])
def test_malformed_remote_response_is_a_storage_error(reply):
    host, port, t = _fake_server(reply)
    kvs = RemoteKvs(host, port)
    try:
        with pytest.raises(StorageError, match="malformed response"):
            kvs.batch_get([k(1)])
    finally:
        kvs.close()
        t.join(timeout=10)


def test_remote_transport_failure_drops_the_connection():
    """A reply that arrives after the timeout is never read as the answer
    to the next request: the failed call drops its connection, and the
    next call opens a fresh one. Only ``close`` is final."""
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()

    def serve():
        with listener:
            for value in (b"late", b"fresh"):
                conn, _ = listener.accept()
                with conn:
                    op, _ = wire.read_request(conn)
                    if value == b"late":
                        time.sleep(0.5)  # past the client's timeout
                    try:
                        wire.send_response(conn, op, wire.ST_OK, wire.blob_pieces([value]))
                        conn.recv(1)  # until the client hangs up
                    except OSError:  # the client has gone, as it should
                        pass

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    kvs = RemoteKvs(host, port, timeout=0.1)
    try:
        with pytest.raises(StorageError, match="transport failure"):
            kvs.batch_get([k(1)])
        time.sleep(0.7)  # the late reply is sent to the dropped connection
        assert kvs.batch_get([k(2)]) == [b"fresh"]
        kvs.close()
        with pytest.raises(StorageClosedError):
            kvs.batch_get([k(3)])
    finally:
        kvs.close()
        t.join(timeout=10)
    assert not t.is_alive()


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


def test_remote_spec_opens_one_connection(server, monkeypatch):
    """A ``remote=`` deployment with m = 4 runs on one connection, which
    ``close`` closes."""
    from shrouddb.data import Database, Record, range_query
    from shrouddb.engine import EngineConfig, query, setup

    opened = []
    real_connect = RemoteKvs._connect

    def counting_connect(self):
        opened.append(real_connect(self))
        return opened[-1]

    monkeypatch.setattr(RemoteKvs, "_connect", counting_connect)
    host, port = server
    r = random.Random(6)
    db = Database([Record(i, r.randrange(100), r.randbytes(64)) for i in range(200)])
    state = setup(db, EngineConfig(domain=100, record_size=64, m=4), f"remote={host}:{port}", 3)
    try:
        for a in range(0, 100, 20):
            res = query(state, range_query(a, a + 9))
            assert [x.rid for x in res.records] == \
                sorted(x.rid for x in db.records if a <= x.key <= a + 9)
    finally:
        state.close()
    assert len(opened) == 1
    assert opened[0].fileno() == -1  # closed
