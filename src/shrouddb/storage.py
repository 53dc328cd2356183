"""Untrusted key-value storage: in-memory, on-disk log, and remote TCP.

All backends share one contract of two batch operations: ``batch_put``
stores every pair (of a key named twice, the last value), ``batch_get``
returns the last value written under each key or raises ``BatchError``
naming the missing keys. Keys are 8-byte ``bytes``; values are
bytes-like (a buffer of single bytes, not an ``int`` or a ``str``), of
any length, and every value is checked before any pair is applied. A
value read back is bytes-like too: ``RemoteKvs`` returns read-only
views into the reply it received, which keep that reply alive while any
is held. Each batch is one round trip and holds the backend's lock
throughout, so it is all-or-nothing to other callers. The disk log
overwrites a value of unchanged size in place, behind a redo journal
that makes each batch all-or-nothing across a process crash too (not a
power loss: nothing is fsynced).
``CountingKvs`` is the one wrapper: it counts round trips and logical
traffic. Several stores share one server by key: ``bucket_key`` puts a
12-bit namespace above a 52-bit index.

A value passed to ``batch_put`` is borrowed: the ORAM passes views of a
buffer it reuses for its next batch, and releases them once the put
returns. A store must therefore copy or write out every value before
``batch_put`` returns; one that keeps the value objects gets
``ValueError`` (a released view) when it next reads them.
"""

from __future__ import annotations

import mmap
import operator
import os
import socket
import struct
import threading
import zlib
from dataclasses import dataclass
from itertools import compress
from pathlib import Path

from shrouddb import wire
from shrouddb.data import is_bytes_like
from shrouddb.errors import (
    BatchError,
    ParameterError,
    StorageClosedError,
    StorageError,
)

KEY_SIZE = 8

# namespace layout for shared stores: top 12 bits of the 8-byte key
NAMESPACE_BITS = 12
INDEX_BITS = 64 - NAMESPACE_BITS
MAX_INDEX = 1 << INDEX_BITS
META_NAMESPACE = (1 << NAMESPACE_BITS) - 1

_HEADER = struct.Struct(">8sI")  # a disk record's key and value length
_TRAILER = struct.Struct(">II")  # a disk journal's record count and crc32


def _check_keys(keys: list[bytes], op: str) -> None:
    """Reject an empty batch, or a key that is not an 8-byte string."""
    if not keys:
        raise ParameterError(f"{op} requires a nonempty batch")
    for key in keys:
        if not isinstance(key, bytes) or len(key) != KEY_SIZE:
            raise ParameterError(f"keys are {KEY_SIZE}-byte strings, got {key!r}")


def _check_pairs(pairs: list[tuple[bytes, bytes]]) -> list[bytes]:
    """The keys of a ``batch_put``, once every key and value is valid: a
    value is bytes-like (``data.is_bytes_like``)."""
    keys = [k for k, _ in pairs]
    _check_keys(keys, "batch_put")
    for _, v in pairs:
        if not is_bytes_like(v):
            raise ParameterError(f"values are bytes-like, got {type(v).__name__}")
    return keys


def _records(keys, values) -> list:
    """The disk records of ``keys`` and ``values`` as gather-write pieces:
    ``key || u32 length``, then the value, for each pair. Built by slice
    assignment, so a setup's batch makes no tuple per record for the
    collector to walk."""
    pieces = [b""] * (2 * len(values))
    pieces[0::2] = map(_HEADER.pack, keys, map(len, values))
    pieces[1::2] = values
    return pieces


def _write(fd: int, pieces: list) -> None:
    """One gather write of ``pieces``; a short one is an ``OSError``."""
    if os.writev(fd, pieces) != sum(map(len, pieces)):
        raise OSError("short write")


class Kvs:
    """Backend interface; subclasses provide the two batch operations."""

    def batch_get(self, keys: list[bytes]) -> list[bytes]:
        raise NotImplementedError

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Store every pair, or none. The values are borrowed: copy or
        write out each one before returning, and keep no value object."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryKvs(Kvs):
    """Process-local dict store; the default test and bench backend."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.Lock()
        self._closed = False

    def _ensure_open(self):
        if self._closed:
            raise StorageClosedError("handle is closed")

    def batch_get(self, keys: list[bytes]) -> list[bytes]:
        self._ensure_open()
        _check_keys(keys, "batch_get")
        with self._lock:
            missing = [k for k in keys if k not in self._data]
            if missing:
                raise BatchError(f"{len(missing)} keys missing: {missing[:4]}", missing)
            return [self._data[k] for k in keys]

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self._ensure_open()
        keys = _check_pairs(pairs)
        values = [bytes(v) for _, v in pairs]  # all converted before any is stored
        with self._lock:
            self._data.update(zip(keys, values))

    def close(self) -> None:
        self._closed = True


class DiskKvs(Kvs):
    """A log of records, overwritten in place behind a redo journal, with
    an in-memory offset index.

    One file per store; records are ``key(8) || u32 length || value``.
    A put of a key already indexed, with a value of the stored length,
    overwrites that value where it lies; any other pair is appended, in
    batch order, by gather writes (``os.writev``, split at ``IOV_MAX``
    pieces). So a store whose keys keep their sizes, as a bucket tree
    does, stays the size it had after its first batch. Reads and
    in-place writes go through one writable ``mmap`` of the log's whole
    records; POSIX only. Reopening rebuilds the index by a single
    forward scan; later records for a key shadow earlier ones, and take
    its overwrites, so a log that earlier versions wrote by appending
    every put still reopens. A torn record at the tail is cut off on
    reopen, so the next append starts on a record boundary.

    Each batch is first written to a side journal, the log's path plus
    ``.journal``, in the log's record format and then a trailer of
    ``u32 record count || u32 crc32`` of those records. Then its appends
    are written, then its overwrites, and then the journal is truncated
    to 0 bytes. A batch that names a key twice stores the last value.
    On open, a journal whose trailer checks is applied again, which ends
    the same whether the crash came before, during or after its apply;
    one whose trailer does not check is dropped, as its batch never
    reached the log. Either way the journal is left empty. Nothing is
    fsynced, so this covers a process crash with the page cache intact,
    not a power loss. A failed or short write is a ``StorageError``: the
    journal is emptied and the log cut back to where the batch's appends
    began, so no pair of the batch is applied.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._index: dict[bytes, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._per_write = os.sysconf("SC_IOV_MAX")  # pieces a gather write takes
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._map: mmap.mmap | None = None
        self._journal = None
        self._file = open(self._path, "a+b", buffering=0)
        try:
            self._journal = open(self._path.with_name(self._path.name + ".journal"), "a+b",
                                 buffering=0)
            self._end = self._scan()
            self._file.truncate(self._end)
            self._remap()
            self._apply(self._committed())
            self._journal.truncate(0)
        except BaseException:
            self.close()
            raise

    def _scan(self) -> int:
        """Index the log's whole records; returns the offset where they end."""
        with open(self._path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            off = 0
            while True:
                header = fh.read(KEY_SIZE + 4)
                if len(header) < KEY_SIZE + 4:
                    return off
                (vlen,) = struct.unpack(">I", header[KEY_SIZE:])
                end = off + KEY_SIZE + 4 + vlen
                if end > size:
                    return off
                self._index[header[:KEY_SIZE]] = (off + KEY_SIZE + 4, vlen)
                off = fh.seek(end)

    def _committed(self) -> dict[bytes, memoryview]:
        """The batch in the journal if its trailer checks, else none."""
        fd = self._journal.fileno()
        data = memoryview(os.pread(fd, os.fstat(fd).st_size, 0))
        if len(data) < _TRAILER.size:
            return {}
        body = data[:-_TRAILER.size]
        count, crc = _TRAILER.unpack(data[-_TRAILER.size:])
        if zlib.crc32(body) != crc:
            return {}
        batch, off, records = {}, 0, 0
        while off + _HEADER.size <= len(body):
            key, vlen = _HEADER.unpack_from(body, off)
            off += _HEADER.size
            batch[key] = body[off:off + vlen]
            off, records = off + vlen, records + 1
        return batch if (off, records) == (len(body), count) else {}

    def _ensure_open(self):
        if self._file.closed:
            raise StorageClosedError("handle is closed")

    def batch_get(self, keys: list[bytes]) -> list[bytes]:
        self._ensure_open()
        _check_keys(keys, "batch_get")
        with self._lock:
            missing = [k for k in keys if k not in self._index]
            if missing:
                raise BatchError(f"{len(missing)} keys missing: {missing[:4]}", missing)
            mm = self._map
            return [mm[off:off + vlen] for off, vlen in map(self._index.get, keys)]

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self._ensure_open()
        _check_pairs(pairs)
        batch = dict(pairs)  # a key's last value wins
        with self._lock:
            try:
                self._write_journal(batch)
                self._apply(batch)
            finally:
                self._journal.truncate(0)

    def _write_journal(self, batch: dict[bytes, bytes]) -> None:
        """Write ``batch`` and its trailer to the empty journal; each gather
        write's worth of records is joined, so that one ``crc32`` call and
        one write take it."""
        fd, crc, pieces = self._journal.fileno(), 0, _records(batch.keys(), batch.values())
        try:
            for i in range(0, len(pieces), self._per_write):
                chunk = b"".join(pieces[i:i + self._per_write])
                crc = zlib.crc32(chunk, crc)
                _write(fd, [chunk])
            _write(fd, [_TRAILER.pack(len(batch), crc)])
        except OSError as exc:
            raise StorageError(f"disk write failed: {exc}") from exc

    def _apply(self, batch: dict[bytes, bytes]) -> None:
        """Append the pairs whose key is new or changes length, then
        overwrite the rest in place, so a failed append applies nothing."""
        index = self._index
        in_place = [(at := index.get(k)) is not None and at[1] == len(v)
                    for k, v in batch.items()]
        if not all(in_place):
            appended = list(map(operator.not_, in_place))
            self._append(list(compress(batch, appended)), list(compress(batch.values(), appended)))
        mm = self._map
        for key, value in compress(batch.items(), in_place):
            off = index[key][0]
            mm[off:off + len(value)] = value

    def _append(self, keys: list[bytes], values: list[bytes]) -> None:
        """Append the pairs of ``keys`` and ``values`` to the log and index
        them, or, on a failed or short write, cut the log back and raise
        ``StorageError``."""
        pieces = _records(keys, values)
        try:
            for i in range(0, len(pieces), self._per_write):
                _write(self._file.fileno(), pieces[i:i + self._per_write])
        except OSError as exc:
            self._file.truncate(self._end)  # the batch leaves no bytes behind
            raise StorageError(f"disk write failed: {exc}") from exc
        for key, value in zip(keys, values):
            self._index[key] = (self._end + _HEADER.size, len(value))
            self._end += _HEADER.size + len(value)
        self._remap()

    def _remap(self) -> None:
        """Map the log's whole records, read and write."""
        if self._map is not None:
            self._map.close()
        self._map = mmap.mmap(self._file.fileno(), self._end) if self._end else None

    def close(self) -> None:
        with self._lock:
            for handle in (self._map, self._journal, self._file):
                if handle is not None:
                    handle.close()


class RemoteKvs(Kvs):
    """Client for the TCP server in ``shrouddb.server``.

    One connection per handle. A lock serialises request/response
    pairs, so one handle may be shared by several threads: a deployment
    opens one handle and its m ORAMs take turns on it. A transport
    failure drops the connection, so a late reply is never read as the
    answer to a later request, and the next call opens a fresh one.
    Only ``close`` is final.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._endpoint = (host, port)
        self._timeout = timeout
        self._lock = threading.Lock()
        self._closed = False
        self._sock: socket.socket | None = self._connect()

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(self._endpoint, timeout=self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            host, port = self._endpoint
            raise StorageError(f"cannot connect to {host}:{port}: {exc}") from exc
        return sock

    def _call(self, opcode: int, payload: list) -> tuple[int, memoryview]:
        with self._lock:
            if self._closed:
                raise StorageClosedError("handle is closed")
            if self._sock is None:
                self._sock = self._connect()
            sock = self._sock
            try:  # a frame over the limit raises StorageError first, and keeps the link
                wire.send_request(sock, opcode, payload)
                return wire.read_response(sock, opcode)
            except (ConnectionError, OSError, ValueError) as exc:
                self._drop()
                raise StorageError(f"transport failure: {exc}") from exc

    def batch_get(self, keys: list[bytes]) -> list[memoryview]:
        _check_keys(keys, "batch_get")
        status, payload = self._call(wire.OP_BATCH_GET, wire.blob_pieces(keys))
        if status not in (wire.ST_OK, wire.ST_MISSING):
            raise StorageError(str(payload, "utf-8", "replace"))
        try:
            blobs = wire.unpack_blobs(payload)
        except ValueError as exc:
            raise StorageError(f"malformed response: {exc}") from exc
        if status == wire.ST_MISSING:
            missing = [bytes(b) for b in blobs]
            raise BatchError(f"{len(missing)} keys missing: {missing[:4]}", missing)
        if len(blobs) != len(keys):
            raise StorageError(f"malformed response: {len(blobs)} values for {len(keys)} keys")
        return blobs  # read-only views of the reply

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        _check_pairs(pairs)
        flat = [blob for pair in pairs for blob in pair]  # the wire's [k0, v0, k1, v1, ...]
        status, payload = self._call(wire.OP_BATCH_PUT, wire.blob_pieces(flat))
        if status != wire.ST_OK:
            raise StorageError(str(payload, "utf-8", "replace"))

    def close(self) -> None:
        self._closed = True
        self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


@dataclass
class TrafficCounters:
    """Logical traffic: key/value bytes, identical across backends."""

    roundtrips: int = 0
    bytes_up: int = 0
    bytes_down: int = 0

    def snapshot(self) -> "TrafficCounters":
        return TrafficCounters(self.roundtrips, self.bytes_up, self.bytes_down)


class CountingKvs(Kvs):
    """Wrapper that counts round trips and logical bytes moved."""

    def __init__(self, inner: Kvs):
        self.inner = inner
        self.counters = TrafficCounters()

    def batch_get(self, keys: list[bytes]) -> list[bytes]:
        self.counters.roundtrips += 1
        self.counters.bytes_up += KEY_SIZE * len(keys)
        values = self.inner.batch_get(keys)  # a miss still cost the round trip
        self.counters.bytes_down += sum(len(v) for v in values)
        return values

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self.inner.batch_put(pairs)
        self.counters.roundtrips += 1
        self.counters.bytes_up += sum(KEY_SIZE + len(v) for _, v in pairs)

    def close(self) -> None:
        self.inner.close()


def bucket_key(index: int, namespace: int = 0) -> bytes:
    """8-byte big-endian key ``(namespace << 52) | index``; namespace 0
    leaves the index as it is."""
    if not 0 <= namespace <= META_NAMESPACE:
        raise ParameterError(f"namespace out of range: {namespace}")
    if not 0 <= index < MAX_INDEX:
        raise ParameterError(f"key index {index} exceeds namespaced key space")
    return ((namespace << INDEX_BITS) | index).to_bytes(KEY_SIZE, "big")


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``, the port in 0..65535."""
    host, _, port = endpoint.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ParameterError(f"expected HOST:PORT with a port in 0-65535, got {endpoint!r}")
    return host, int(port)


def connect(spec: str, data_dir: str | Path | None = None) -> Kvs:
    """Open a backend from a --storage spec: ``memory``, ``disk`` (a log
    in ``data_dir``) or ``remote=HOST:PORT``."""
    if spec == "memory":
        return MemoryKvs()
    if spec == "disk":
        if data_dir is None:
            raise ParameterError("disk backend requires a data directory")
        return DiskKvs(Path(data_dir) / "store.log")
    if spec.startswith("remote="):
        return RemoteKvs(*parse_endpoint(spec.removeprefix("remote=")))
    raise ParameterError(f"unknown storage spec {spec!r}")
