"""Tree-based ORAM over a key-value bucket store.

The server holds a complete binary tree of buckets. A bucket is ``Z = 5``
block slots of ``addr (8) || payload``, dummies included, sealed
together as one AES-GCM message (``shrouddb.slots``), so every bucket
value has the same length; ``Z`` is fixed, as the stash bound holds for
it only. Every stored block is pinned to a uniformly random leaf; the
block lives somewhere on the path from the root to that leaf, or in the
client-side stash. Each access reads one whole path, remaps the touched
address to a fresh leaf, and rewrites the path level by level from the
leaves up, each block going as deep as its leaf and the room left allow,
so the server observes nothing but uniformly random path reads.

An access is a pair ``(addr, data)``: ``data`` is ``None`` for a read
and the new payload for a write. ``batch_access`` combines many accesses into exactly one multi-path
read plus one multi-path write-back (two storage round trips), with all
mixing and re-encryption done in client memory. A write-back whose
outcome is unknown (the store raised; the server may or may not have
applied it) is kept: the client keeps its new stash and positions and
re-sends the identical sealed pairs before the next access, refusing
access until they are stored. A put is idempotent, so this is right
whichever way the failed one went.

``oram_init`` builds the starting tree on the client from one row per
address ``0..k-1``: it places those blocks by the same write-back over
every bucket, keeps any that fit nowhere in the stash, and uploads each
bucket sealed once. No access is needed to load the data.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from shrouddb.data import is_bytes_like
from shrouddb.errors import (
    AddressError,
    BatchError,
    ParameterError,
    StashOverflowError,
    StorageError,
    StorageNotEmptyError,
)
from shrouddb.slots import cipher, fresh_nonces, open_slots, seal_slots, sealed_size
from shrouddb.storage import Kvs, bucket_key

__all__ = [
    "DUMMY_ADDR",
    "Z",
    "OramConfig",
    "OramState",
    "oram_init",
    "stash_bound",
    "default_stash_limit",
    "read_op",
    "write_op",
]

DUMMY_ADDR = (1 << 64) - 1
ADDR_SIZE = 8
Z = 5  # block slots per bucket; the stash bound below holds for this Z
_EMPTY = np.empty(0, np.uint8)  # a batch buffer before its first batch


def stash_bound(x: int) -> float:
    """Upper bound on Pr[stash occupancy > x] with 5-slot buckets."""
    if x < 0:
        raise ParameterError("stash size must be non-negative")
    return min(1.0, 14.0 * 0.6002 ** x)


def default_stash_limit() -> int:
    """Smallest stash size whose overflow bound is at most ``2^-32``."""
    x = 0
    while stash_bound(x) > 2.0 ** -32:
        x += 1
    return x


@dataclass(frozen=True)
class OramConfig:
    """Size of one ORAM store: how many blocks, of how many bytes."""

    capacity: int
    block_payload: int

    def __post_init__(self):
        if self.capacity < 1:
            raise ParameterError("capacity must be >= 1")
        if self.block_payload < 1:
            raise ParameterError("block payload must be >= 1 byte")


def read_op(addr: int) -> tuple[int, None]:
    return addr, None


def write_op(addr: int, data: bytes) -> tuple[int, bytes]:
    return addr, data


class OramState:
    """Client half of one ORAM: position map, stash, cipher, and the
    write-back still to be confirmed.

    Owned by exactly one worker at a time; parallelism happens across
    independent instances, never within one. Bucket ``i`` is stored
    under ``bucket_key(i, namespace)``, so instances with distinct
    namespaces can share one store.

    A block body is one row of ``addr (8) || payload`` bytes. A batch
    lays out its rows in one buffer that it reuses: the dummy body, the
    stash, the blocks it writes and the fetched buckets' slots, in that
    order. It then gathers the write-back's plaintext into a second
    reused buffer, followed by the next batch's first rows, and seals it
    back into the first. Between batches the stash maps each address it
    holds, in stash order, to its row in that layout, and
    ``_stash_rows`` holds that layout's first rows.
    """

    def __init__(self, config: OramConfig, key: bytes, store: Kvs,
                 rng: random.Random, namespace: int = 0):
        self.config = config
        self._cipher = cipher(key)  # owned here, dropped with the state
        self.store = store
        self.rng = rng
        self.L = math.ceil(math.log2(max(2, math.ceil(config.capacity / Z))))
        self.leaves = 1 << self.L
        self.n_buckets = 2 * self.leaves - 1
        self.body_size = ADDR_SIZE + config.block_payload
        self.bucket_plain = Z * self.body_size
        self.bucket_bytes = sealed_size(self.bucket_plain)
        self.stash_limit = default_stash_limit()
        self.pos = [rng.randrange(self.leaves) for _ in range(config.capacity)]
        self.stash: dict[int, int] = {}
        self._stash_rows = np.zeros((1, self.body_size), np.uint8)  # the dummy, then the stash
        self._stash_rows[0, :ADDR_SIZE] = 0xFF  # DUMMY_ADDR
        self.stash_peak = 0
        self.overflowed = False
        self._pending: list[tuple[bytes, memoryview]] | None = None  # unconfirmed write-back
        self._buf = _EMPTY    # opened rows in, sealed buckets out
        self._plain = _EMPTY  # the write-back's plaintext
        self._zeros = bytes(config.block_payload)
        self._bucket_keys = [bucket_key(i, namespace) for i in range(self.n_buckets)]

    # -- protocol ---------------------------------------------------------

    def access(self, op: tuple[int, bytes | None]) -> bytes | None:
        """Single access: one path read, one path write-back."""
        return self.batch_access([op])[0]

    def batch_access(self, ops: list[tuple[int, bytes | None]]) -> list[bytes | None]:
        """Run the ``(addr, data)`` accesses ``ops`` with the outputs of
        sequential accesses in exactly two storage round trips (one
        multi-path read, one write-back)."""
        if self.overflowed:
            raise StashOverflowError("stash overflowed earlier; this ORAM refuses access")
        if not ops:
            raise ParameterError("access batch must be nonempty")
        writes = 0
        for addr, data in ops:
            self._check_block(addr, data)
            writes += data is not None

        bucket_ids = sorted({b for a in {addr for addr, _ in ops}
                             for b in self._path_buckets(self.pos[a])})
        if self._pending is not None:
            self._flush()

        blobs = self.store.batch_get([self._bucket_keys[b] for b in bucket_ids])
        for blob in blobs:
            if len(blob) != self.bucket_bytes:
                raise StorageError(f"bucket value has {len(blob)} bytes, expected {self.bucket_bytes}")
        n, bs = len(bucket_ids), self.body_size
        first = 1 + len(self.stash) + writes  # row of the first fetched slot
        rows = first + n * Z
        self._buf = _grown(self._buf, max(rows * bs, n * self.bucket_bytes))
        mv = memoryview(self._buf)
        open_slots(self._cipher, blobs, n, self.bucket_plain, mv[first * bs:rows * bs])
        src = self._buf[:rows * bs].reshape(rows, bs)
        src[:1 + len(self.stash)] = self._stash_rows

        # the stash grows by every real block on the fetched paths
        table = self.stash.copy()
        table.update(zip(np.ndarray((n * Z,), ">u8", self._buf, first * bs, (bs,)).tolist(),
                         range(first, rows)))
        table.pop(DUMMY_ADDR, None)  # no block has the dummy's address

        results: list[bytes | None] = []
        row = 1 + len(self.stash)  # the next row for a written block
        for addr, data in ops:
            if data is None:
                at = table.get(addr)
                results.append(self._zeros if at is None else
                               mv[at * bs + ADDR_SIZE:(at + 1) * bs].tobytes())
            else:
                mv[row * bs:row * bs + ADDR_SIZE] = addr.to_bytes(ADDR_SIZE, "big")
                mv[row * bs + ADDR_SIZE:(row + 1) * bs] = _flat(data)
                table[addr] = row
                row += 1
                results.append(None)
            self.pos[addr] = self._draw_leaf()

        self._pending = self._write_back(bucket_ids, src, table)
        self._flush()
        self._check_stash()
        return results

    # -- internals --------------------------------------------------------

    def _check_block(self, addr: int, data: bytes | None) -> None:
        """Reject an address outside the capacity, or data that is not
        bytes exactly one block payload long, before a batch changes any
        state."""
        capacity, payload = self.config.capacity, self.config.block_payload
        if not 0 <= addr < capacity:
            raise AddressError(f"address {addr} outside [0, {capacity})")
        if data is None:
            return
        if not is_bytes_like(data):
            raise ParameterError(f"block {addr} is a {type(data).__name__}, not bytes")
        if len(data) != payload:
            raise ParameterError(f"block {addr} is {len(data)} bytes, "
                                 f"block payload is {payload}")

    def _path_buckets(self, leaf: int) -> list[int]:
        L = self.L
        return [(1 << d) - 1 + (leaf >> (L - d)) for d in range(L + 1)]

    def _draw_leaf(self) -> int:
        return self.rng.randrange(self.leaves)

    def _flush(self) -> None:
        """Store the pending write-back, then release its views of the
        batch buffer, so a store that kept them fails loudly rather than
        read a later batch. On failure it stays pending, to be re-sent
        before the next access."""
        try:
            self.store.batch_put(self._pending)
        except StorageError as exc:
            raise BatchError(f"write-back not confirmed; it is re-sent "
                             f"before the next access: {exc}") from exc
        for _, value in self._pending:
            value.release()
        self._pending = None

    def _write_back(self, bucket_ids: list[int], src: np.ndarray,
                    table: dict[int, int]) -> list[tuple[bytes, memoryview]]:
        """Evict the blocks of ``table`` (address -> row of ``src``, in
        stash order) into the fetched buckets and keep the rest as the new
        stash. Returns the ``(key, value)`` pairs of the buckets, each
        holding its placed blocks padded with dummies and sealed under a
        fresh nonce, as read-only views of the batch buffer, which the
        caller has sized to hold them. ``src`` may lie in that buffer: it
        is read before the buffer is written."""
        slots, left = self._evict(bucket_ids, table)
        slots.append(0)  # then the next batch's first rows: the dummy and the stash
        slots.extend(map(table.__getitem__, left))
        n, m, bs = len(bucket_ids), len(slots), self.body_size
        self._plain = _grown(self._plain, m * bs)
        plain = self._plain[:m * bs].reshape(m, bs)
        np.take(src, np.frombuffer(slots, np.int64), axis=0, out=plain, mode="clip")
        self._stash_rows = plain[n * Z:]  # the next batch copies them before it gathers
        self.stash = {a: i for i, a in enumerate(left, 1)}
        sealed = seal_slots(self._cipher, plain[:n * Z].data.cast("B"), fresh_nonces(n), n,
                            self.bucket_plain, self._buf)
        return list(zip([self._bucket_keys[b] for b in bucket_ids], sealed))

    def _check_stash(self) -> None:
        """Track the stash peak; refuse further access once the stash
        holds more than ``stash_limit`` blocks."""
        size = len(self.stash)
        self.stash_peak = max(self.stash_peak, size)
        if size > self.stash_limit:
            self.overflowed = True
            raise StashOverflowError(f"stash holds {size} blocks, limit {self.stash_limit}")

    def _evict(self, bucket_ids: list[int], table: dict[int, int]):
        """Greedy write-back into the fetched buckets, one pass per level
        from the leaves up: a block, taken in leaf order (stash order on
        ties), enters its bucket at that level if it was fetched and has
        room, else it waits. Returns the source row of every slot of the
        fetched buckets, in order (row 0, the dummy, where none is
        placed), and the addresses left over, in stash order."""
        L, pos = self.L, self.pos
        first = {bid: i * Z for i, bid in enumerate(bucket_ids)}
        slots = array("q", bytes(8 * Z * len(bucket_ids)))
        waiting = sorted(table, key=pos.__getitem__)
        for d in range(L, -1, -1):
            base, shift = (1 << d) - 1, L - d
            still: list[int] = []
            bucket, at, room = -1, 0, 0
            for a in waiting:  # sorted by leaf, so one bucket's blocks are adjacent
                bid = base + (pos[a] >> shift)
                if bid != bucket:
                    bucket, at = bid, first.get(bid, -1)
                    room = Z if at >= 0 else 0
                if room:
                    slots[at + Z - room] = table[a]
                    room -= 1
                else:
                    still.append(a)
            waiting = still
        left = set(waiting)
        return slots, [a for a in table if a in left] if left else []


def _flat(data) -> bytes | memoryview:
    """Bytes-like ``data`` in the unsigned-byte format a slice of a batch
    buffer takes; a view of signed bytes or chars would not assign."""
    return data if type(data) is bytes else memoryview(data).cast("B")


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf``, or a fresh buffer if it holds fewer than ``size`` bytes.
    A fresh one has an eighth to spare, since batch sizes vary a little
    and each regrowth leaves a freed buffer behind in the heap; it is
    left unfilled, as every byte a batch reads it writes first."""
    return buf if len(buf) >= size else np.empty(size + size // 8, np.uint8)


def oram_init(config: OramConfig, key: bytes, store: Kvs,
              rng: random.Random, namespace: int = 0,
              rows: np.ndarray | None = None) -> OramState:
    """Build the client and upload a tree whose address ``a`` holds
    ``rows[a]``, a 2-D uint8 array of at most ``capacity`` rows (none if
    ``None``), each one block payload wide, checked before storage is
    touched. Probes the root bucket with a one-key batch read, which
    must miss. Then places every block on the path to its position
    (drawn with the rest of the position map) by the write-back over all
    buckets, and writes all ``2^(L+1) - 1`` buckets, each sealed once
    under a fresh nonce, in one batch. Blocks that fit nowhere stay in
    the stash; more than ``stash_limit`` of them raise
    ``StashOverflowError`` after the upload, as a write-back does.
    """
    payload = config.block_payload
    rows = np.empty((0, payload), np.uint8) if rows is None else rows
    if not isinstance(rows, np.ndarray) or rows.dtype != np.uint8 or rows.shape[1:] != (payload,):
        raise ParameterError(f"rows must be a 2-D uint8 array {payload} bytes wide")
    k = len(rows)
    if k > config.capacity:
        raise AddressError(f"{k} rows exceed the capacity {config.capacity}")
    state = OramState(config, key, store, rng, namespace)
    bs = state.body_size
    state._buf = np.empty(max((1 + k) * bs, state.n_buckets * state.bucket_bytes), np.uint8)
    src = state._buf[:(1 + k) * bs].reshape(1 + k, bs)  # the dummy, then the rows
    src[0] = state._stash_rows[0]
    src[1:, :ADDR_SIZE] = np.arange(k, dtype=">u8").view(np.uint8).reshape(k, ADDR_SIZE)
    src[1:, ADDR_SIZE:] = rows
    try:
        store.batch_get(state._bucket_keys[:1])
    except BatchError:
        pass
    else:
        raise StorageNotEmptyError("storage already holds a bucket tree; clear it first")
    table = dict(zip(range(k), range(1, k + 1)))  # address a is row 1 + a of src
    pending = state._write_back(list(range(state.n_buckets)), src, table)
    # these buffers hold the whole tree; a batch sizes its own
    state._stash_rows = state._stash_rows.copy()
    state._plain = _EMPTY
    store.batch_put(pending)
    for _, value in pending:
        value.release()
    state._buf = _EMPTY
    state._check_stash()
    return state
