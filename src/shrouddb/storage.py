"""Untrusted key-value storage: in-memory, on-disk log, and remote TCP.

All backends share one contract of two batch operations: ``batch_put``
stores every pair, ``batch_get`` returns the last value written under
each key or raises ``BatchError`` naming the missing keys. Keys are
8-byte ``bytes``; values are bytes-like (a buffer of single bytes, not
an ``int`` or a ``str``), of any length, and every value is checked
before any pair is applied. A value read back is bytes-like too:
``RemoteKvs`` returns read-only views into the reply it received, which
keep that reply alive while any is held. Each batch is one round trip
and holds the backend's lock throughout, so it is all-or-nothing to
other callers.
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

import os
import socket
import struct
import threading
from dataclasses import dataclass
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
    """Append-only log with an in-memory offset index.

    One file per store; records are ``key(8) || u32 length || value``.
    A batch is one gather write (``os.writev``, split at ``IOV_MAX``
    pieces), a read one ``os.pread`` per key; POSIX only. Reopening
    rebuilds the index by a single forward scan; later records for a
    key shadow earlier ones. A torn record at the tail (a crash
    mid-append) is cut off on reopen, so the next append starts on a
    record boundary. A failed or short write is a ``StorageError``, and
    the log is cut back to where its batch began, so the batch is
    neither indexed nor left in the file. No compaction.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._index: dict[bytes, tuple[int, int]] = {}
        self._lock = threading.Lock()
        self._per_write = os.sysconf("SC_IOV_MAX") // 2  # records a gather write takes
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self._path, "a+b", buffering=0)
        self._end = self._scan()
        self._file.truncate(self._end)

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
            fd = self._file.fileno()
            return [os.pread(fd, vlen, off) for off, vlen in map(self._index.get, keys)]

    def batch_put(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self._ensure_open()
        keys = _check_pairs(pairs)
        with self._lock:
            start = off = self._end
            entries = []
            try:
                for i in range(0, len(pairs), self._per_write):
                    pieces, at = [], off
                    for k, v in pairs[i:i + self._per_write]:
                        pieces += (k + struct.pack(">I", len(v)), v)
                        entries.append((off + KEY_SIZE + 4, len(v)))
                        off += KEY_SIZE + 4 + len(v)
                    if os.writev(self._file.fileno(), pieces) != off - at:
                        raise OSError("short write")
            except OSError as exc:
                self._file.truncate(start)  # the batch leaves no bytes behind
                raise StorageError(f"disk write failed: {exc}") from exc
            self._end = off
            self._index.update(zip(keys, entries))

    def close(self) -> None:
        self._file.close()


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
