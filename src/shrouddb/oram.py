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

``oram_init`` builds the starting tree on the client: it places the
initial blocks by the same write-back over every bucket, keeps any
that do not fit in the stash, and uploads each bucket sealed once. That
meets the invariant above, so no access is needed to load the data.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from shrouddb.crypto import SymKey
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
    """

    def __init__(self, config: OramConfig, key: SymKey, store: Kvs,
                 rng: random.Random, namespace: int = 0):
        self.config = config
        self._cipher = cipher(key.data)  # owned here, dropped with the state
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
        self.stash: dict[int, bytes] = {}
        self.stash_peak = 0
        self.overflowed = False
        self._pending: list[tuple[bytes, bytes]] | None = None  # unconfirmed write-back
        self._zeros = bytes(config.block_payload)
        self._dummy_body = DUMMY_ADDR.to_bytes(ADDR_SIZE, "big") + self._zeros
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
        for addr, data in ops:
            self._check_block(addr, data)

        bucket_ids = sorted({b for a in {addr for addr, _ in ops}
                             for b in self._path_buckets(self.pos[a])})
        if self._pending is not None:
            self._flush()

        blobs = self.store.batch_get([self._bucket_keys[b] for b in bucket_ids])
        for blob in blobs:
            if len(blob) != self.bucket_bytes:
                raise StorageError(f"bucket value has {len(blob)} bytes, expected {self.bucket_bytes}")
        total = len(bucket_ids) * Z
        bodies = open_slots(self._cipher, blobs, len(bucket_ids), self.bucket_plain)

        # pull every real block on the fetched paths into the stash
        view = np.frombuffer(bodies, dtype=np.uint8).reshape(total, self.body_size)
        addrs = view[:, :ADDR_SIZE].copy().view(">u8").ravel()
        bs = self.body_size
        stash = self.stash
        for i in np.flatnonzero(addrs != np.uint64(DUMMY_ADDR)).tolist():
            stash[int(addrs[i])] = bodies[i * bs + ADDR_SIZE:(i + 1) * bs]

        results: list[bytes | None] = []
        for addr, data in ops:
            if data is None:
                results.append(stash.get(addr, self._zeros))
            else:
                stash[addr] = data
                results.append(None)
            self.pos[addr] = self._draw_leaf()

        self.stash, placed = self._evict(bucket_ids)
        self._pending = self._seal(bucket_ids, placed)
        self._flush()
        self._check_stash()
        return results

    # -- internals --------------------------------------------------------

    def _check_block(self, addr: int, data: bytes | None) -> None:
        """Reject an address outside the capacity, or data that is not
        exactly one block payload long."""
        capacity, payload = self.config.capacity, self.config.block_payload
        if not 0 <= addr < capacity:
            raise AddressError(f"address {addr} outside [0, {capacity})")
        if data is not None and len(data) != payload:
            raise ParameterError(f"block {addr} is {len(data)} bytes, "
                                 f"block payload is {payload}")

    def _path_buckets(self, leaf: int) -> list[int]:
        L = self.L
        return [(1 << d) - 1 + (leaf >> (L - d)) for d in range(L + 1)]

    def _draw_leaf(self) -> int:
        return self.rng.randrange(self.leaves)

    def _flush(self) -> None:
        """Store the pending write-back. On failure it stays pending, to
        be re-sent before the next access."""
        try:
            self.store.batch_put(self._pending)
        except StorageError as exc:
            raise BatchError(f"write-back not confirmed; it is re-sent "
                             f"before the next access: {exc}") from exc
        self._pending = None

    def _seal(self, bucket_ids: list[int],
              placed: dict[int, list[tuple[int, bytes]]]) -> list[tuple[bytes, bytes]]:
        """``(key, value)`` pairs of the given buckets, each holding its
        placed blocks padded with dummies and sealed under a fresh nonce."""
        parts: list[bytes] = []
        for bid in bucket_ids:
            blocks = placed.get(bid, ())
            for addr, data in blocks:
                parts.append(addr.to_bytes(ADDR_SIZE, "big"))
                parts.append(data)
            parts.extend([self._dummy_body] * (Z - len(blocks)))
        n = len(bucket_ids)
        sealed = seal_slots(self._cipher, b"".join(parts), fresh_nonces(n), n,
                            self.bucket_plain)
        return list(zip([self._bucket_keys[b] for b in bucket_ids], sealed))

    def _check_stash(self) -> None:
        """Track the stash peak; refuse further access once the stash
        holds more than ``stash_limit`` blocks."""
        size = len(self.stash)
        self.stash_peak = max(self.stash_peak, size)
        if size > self.stash_limit:
            self.overflowed = True
            raise StashOverflowError(f"stash holds {size} blocks, limit {self.stash_limit}")

    def _evict(self, bucket_ids: list[int]):
        """Greedy write-back into the fetched buckets, one pass per level
        from the leaves up: a block, taken in leaf order, enters its bucket
        at that level if it was fetched and has room, else it waits.
        Returns the blocks left over, in stash order, and the placement."""
        L, pos, stash = self.L, self.pos, self.stash
        fetched = set(bucket_ids)
        waiting = sorted(stash, key=pos.__getitem__)
        placed: dict[int, list[tuple[int, bytes]]] = {}
        for d in range(L, -1, -1):
            base, shift = (1 << d) - 1, L - d
            still: list[int] = []
            for a in waiting:
                bid = base + (pos[a] >> shift)
                if bid in fetched:
                    got = placed.setdefault(bid, [])
                    if len(got) < Z:
                        got.append((a, stash[a]))
                        continue
                still.append(a)
            waiting = still
        left = set(waiting)
        return {a: p for a, p in stash.items() if a in left}, placed


def oram_init(config: OramConfig, key: SymKey, store: Kvs,
              rng: random.Random, namespace: int = 0,
              blocks: Iterable[tuple[int, bytes]] = ()) -> OramState:
    """Build the client and upload a tree that already holds ``blocks``.

    ``blocks`` are the initial ``(address, payload)`` pairs; they are
    checked before storage is touched. Probes the root bucket with a
    one-key batch read, which must miss. Then places every block on the
    path to its position (drawn with the rest of the position map) by
    the write-back over all buckets, and writes all ``2^(L+1) - 1``
    buckets, each sealed once under a fresh nonce, in one batch. Blocks
    that fit nowhere stay in the stash; more than ``stash_limit`` of
    them raise ``StashOverflowError`` after the upload, as a write-back
    does.
    """
    state = OramState(config, key, store, rng, namespace)
    initial: dict[int, bytes] = {}
    for addr, data in blocks:
        state._check_block(addr, data)
        if addr in initial:
            raise ParameterError(f"address {addr} given twice")
        initial[addr] = data
    try:
        store.batch_get(state._bucket_keys[:1])
    except BatchError:
        pass
    else:
        raise StorageNotEmptyError("storage already holds a bucket tree; clear it first")
    state.stash = initial
    every = list(range(state.n_buckets))
    state.stash, placed = state._evict(every)
    store.batch_put(state._seal(every, placed))
    state._check_stash()
    return state
