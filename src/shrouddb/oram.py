"""Tree-based ORAM over a key-value bucket store.

The server holds a complete binary tree of buckets. A bucket is ``Z``
block slots of ``addr (8) || payload``, dummies included, sealed
together as one AES-GCM message (``shrouddb.slots``), so every bucket
value has the same length. Every stored block is pinned to a uniformly
random leaf; the block lives somewhere on the path from the root to
that leaf, or in the client-side stash. Each access reads one whole
path, remaps the touched address to a fresh leaf, and greedily rewrites
the path from the leaf level upward with re-encrypted buckets, so the
server observes nothing but uniformly random path reads.

``batch_access`` combines many accesses into exactly one multi-path
read plus one multi-path write-back (two storage round trips), with all
mixing and re-encryption done in client memory.

``oram_init`` builds the starting tree on the client: it places the
initial blocks by the same greedy rule over every bucket, keeps any
that do not fit in the stash, and uploads each bucket sealed once. That
meets the invariant above, so no access is needed to load the data.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
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
    "OramConfig",
    "AccessOp",
    "OramState",
    "oram_init",
    "stash_bound",
    "default_stash_limit",
    "read_op",
    "write_op",
]

DUMMY_ADDR = (1 << 64) - 1
ADDR_SIZE = 8

READ = "read"
WRITE = "write"


def stash_bound(x: int) -> float:
    """Upper bound on Pr[stash occupancy > x] with 5-slot buckets."""
    if x < 0:
        raise ParameterError("stash size must be non-negative")
    return min(1.0, 14.0 * 0.6002 ** x)


def default_stash_limit(eta1: float = 2.0 ** -32) -> int:
    """Smallest stash size whose overflow bound is at most ``eta1``."""
    if not 0.0 < eta1 < 1.0:
        raise ParameterError("eta1 must be in (0, 1)")
    x = 0
    while stash_bound(x) > eta1:
        x += 1
    return x


@dataclass(frozen=True)
class OramConfig:
    """Geometry and failure budget of one ORAM store.

    ``stash_limit`` defaults to the smallest size whose overflow
    probability bound is below ``eta1``. ``eta2`` records the assumed
    distinguishing advantage of the encryption; it is informational.
    """

    capacity: int
    block_payload: int
    Z: int = 5
    stash_limit: int | None = None
    eta1: float = 2.0 ** -32
    eta2: float | None = None

    def __post_init__(self):
        if self.Z < 1:
            raise ParameterError("bucket size Z must be >= 1")
        if self.capacity < 1:
            raise ParameterError("capacity must be >= 1")
        if self.block_payload < 1:
            raise ParameterError("block payload must be >= 1 byte")
        if self.stash_limit is not None and self.stash_limit < 1:
            raise ParameterError("stash limit must be >= 1")
        if not 0.0 < self.eta1 < 1.0:
            raise ParameterError("eta1 must be in (0, 1)")


@dataclass(frozen=True)
class AccessOp:
    """One logical access: ``op`` is "read" or "write"; writes carry data."""

    op: str
    addr: int
    data: bytes | None = None

    def __post_init__(self):
        if self.op not in (READ, WRITE):
            raise ParameterError(f"unknown access type {self.op!r}")
        if (self.data is not None) != (self.op == WRITE):
            raise ParameterError("data must be present exactly when writing")


def read_op(addr: int) -> AccessOp:
    return AccessOp(READ, addr)


def write_op(addr: int, data: bytes) -> AccessOp:
    return AccessOp(WRITE, addr, data)


class OramState:
    """Client half of one ORAM: position map, stash, keys, counters.

    Owned by exactly one worker at a time; parallelism happens across
    independent instances, never within one. Bucket ``i`` is stored
    under ``bucket_key(i, namespace)``, so instances with distinct
    namespaces can share one store.
    """

    def __init__(self, config: OramConfig, key: SymKey, store: Kvs,
                 rng: random.Random, namespace: int = 0):
        self.config = config
        self.key = key
        self._cipher = cipher(key.data)  # owned here, dropped with the state
        self.store = store
        self.rng = rng
        self.L = math.ceil(math.log2(max(2, math.ceil(config.capacity / config.Z))))
        self.leaves = 1 << self.L
        self.n_buckets = 2 * self.leaves - 1
        self.body_size = ADDR_SIZE + config.block_payload
        self.bucket_plain = config.Z * self.body_size
        self.bucket_bytes = sealed_size(self.bucket_plain)
        self.stash_limit = (config.stash_limit if config.stash_limit is not None
                            else default_stash_limit(config.eta1))
        self.pos = [rng.randrange(self.leaves) for _ in range(config.capacity)]
        self.stash: dict[int, bytes] = {}
        self.stash_peak = 0
        self.overflowed = False
        self._zeros = bytes(config.block_payload)
        self._dummy_body = DUMMY_ADDR.to_bytes(ADDR_SIZE, "big") + self._zeros
        self._bucket_keys = [bucket_key(i, namespace) for i in range(self.n_buckets)]

    # -- protocol ---------------------------------------------------------

    def access(self, op: AccessOp) -> bytes | None:
        """Single access: one path read, one path write-back."""
        return self._transact([op])[0]

    def batch_access(self, ops: list[AccessOp]) -> list[bytes | None]:
        """Run ``ops`` with the outputs of sequential accesses in exactly
        two storage round trips (one multi-path read, one write-back)."""
        return self._transact(ops)

    # -- internals --------------------------------------------------------

    def _path_buckets(self, leaf: int) -> list[int]:
        L = self.L
        return [(1 << d) - 1 + (leaf >> (L - d)) for d in range(L + 1)]

    def _draw_leaf(self) -> int:
        return self.rng.randrange(self.leaves)

    def _transact(self, ops: list[AccessOp]) -> list[bytes | None]:
        if self.overflowed:
            raise StashOverflowError("stash overflowed earlier; this ORAM refuses access")
        if not ops:
            raise ParameterError("access batch must be nonempty")
        capacity, payload = self.config.capacity, self.config.block_payload
        for op in ops:
            if not 0 <= op.addr < capacity:
                raise AddressError(f"address {op.addr} outside [0, {capacity})")
            if op.data is not None and len(op.data) != payload:
                raise ParameterError(
                    f"write data is {len(op.data)} bytes, block payload is {payload}")

        distinct: list[int] = []
        seen: set[int] = set()
        for op in ops:
            if op.addr not in seen:
                seen.add(op.addr)
                distinct.append(op.addr)
        read_leaves = [self.pos[a] for a in distinct]
        bucket_ids = sorted({b for leaf in read_leaves for b in self._path_buckets(leaf)})

        stash_snapshot = dict(self.stash)
        pos_snapshot = [(a, self.pos[a]) for a in distinct]

        blobs = self.store.batch_get([self._bucket_keys[b] for b in bucket_ids])
        for blob in blobs:
            if len(blob) != self.bucket_bytes:
                raise StorageError(f"bucket value has {len(blob)} bytes, expected {self.bucket_bytes}")
        total = len(bucket_ids) * self.config.Z
        bodies = open_slots(self._cipher, blobs, len(bucket_ids), self.bucket_plain)

        # pull every real block on the fetched paths into the stash
        view = np.frombuffer(bodies, dtype=np.uint8).reshape(total, self.body_size)
        addrs = view[:, :ADDR_SIZE].copy().view(">u8").ravel()
        bs = self.body_size
        stash = self.stash
        for i in np.flatnonzero(addrs != np.uint64(DUMMY_ADDR)).tolist():
            stash[int(addrs[i])] = bodies[i * bs + ADDR_SIZE:(i + 1) * bs]

        results: list[bytes | None] = []
        for op in ops:
            if op.op == WRITE:
                stash[op.addr] = op.data
                results.append(None)
            else:
                results.append(stash.get(op.addr, self._zeros))
            self.pos[op.addr] = self._draw_leaf()

        new_stash, placed = self._evict(bucket_ids)
        pairs = self._seal(bucket_ids, placed)
        try:
            self.store.batch_put(pairs)
        except StorageError as exc:
            self.stash = stash_snapshot
            for a, leaf in pos_snapshot:
                self.pos[a] = leaf
            raise BatchError(f"write-back failed, state rolled back: {exc}") from exc

        self._keep_stash(new_stash)
        return results

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
            parts.extend([self._dummy_body] * (self.config.Z - len(blocks)))
        n = len(bucket_ids)
        sealed = seal_slots(self._cipher, b"".join(parts), fresh_nonces(n), n,
                            self.bucket_plain)
        return list(zip([self._bucket_keys[b] for b in bucket_ids], sealed))

    def _keep_stash(self, new_stash: dict[int, bytes]) -> None:
        """Adopt the stash left after a write-back; refuse further access
        once it holds more than ``stash_limit`` blocks."""
        self.stash = new_stash
        if len(new_stash) > self.stash_peak:
            self.stash_peak = len(new_stash)
        if len(new_stash) > self.stash_limit:
            self.overflowed = True
            raise StashOverflowError(
                f"stash holds {len(new_stash)} blocks, limit {self.stash_limit}")

    def _evict(self, bucket_ids: list[int]):
        """Greedy write-back: fill fetched buckets deepest-first, each
        block going as deep as its leaf assignment allows."""
        items = list(self.stash.items())
        n = len(items)
        pos = self.pos
        positions = [pos[a] for a, _ in items]
        order = sorted(range(n), key=positions.__getitem__)
        spos = [positions[i] for i in order]
        taken = [False] * n
        nxt = list(range(n + 1))  # skip list over sorted order

        def find(i: int) -> int:
            while nxt[i] != i:
                nxt[i] = nxt[nxt[i]]
                i = nxt[i]
            return i

        L, Z = self.L, self.config.Z
        placed: dict[int, list[tuple[int, bytes]]] = {}
        for bid in reversed(bucket_ids):  # ids grow with depth
            d = (bid + 1).bit_length() - 1
            shift = L - d
            lo = (bid - ((1 << d) - 1)) << shift
            hi = lo + (1 << shift)
            got: list[tuple[int, bytes]] = []
            i = find(bisect_left(spos, lo))
            while i < n and spos[i] < hi:
                j = order[i]
                got.append(items[j])
                taken[j] = True
                nxt[i] = i + 1
                if len(got) == Z:
                    break
                i = find(i + 1)
            if got:
                placed[bid] = got
        new_stash = {a: p for j, (a, p) in enumerate(items) if not taken[j]}
        return new_stash, placed

    # -- test support ------------------------------------------------------

    def tree_blocks(self) -> dict[int, int]:
        """Decrypt the whole server tree; returns {address: bucket id}.

        White-box helper for invariant checks; never used by protocols.
        """
        blobs = self.store.batch_get(self._bucket_keys)
        total = self.n_buckets * self.config.Z
        bodies = open_slots(self._cipher, blobs, self.n_buckets, self.bucket_plain)
        found: dict[int, int] = {}
        for i in range(total):
            addr = int.from_bytes(bodies[i * self.body_size:i * self.body_size + ADDR_SIZE], "big")
            if addr != DUMMY_ADDR:
                if addr in found:
                    raise AssertionError(f"address {addr} stored twice")
                found[addr] = i // self.config.Z
        return found


def oram_init(config: OramConfig, key: SymKey, store: Kvs,
              rng: random.Random, namespace: int = 0,
              blocks: Iterable[tuple[int, bytes]] = ()) -> OramState:
    """Build the client and upload a tree that already holds ``blocks``.

    ``blocks`` are the initial ``(address, payload)`` pairs; they are
    checked before storage is touched. Probes the root bucket with a
    one-key batch read, which must miss. Then places every block on the
    path to its position (drawn with the rest of the position map) by
    the greedy rule of a write-back over all buckets, and writes all
    ``2^(L+1) - 1`` buckets, each sealed once under a fresh nonce, in
    one batch. Blocks that fit nowhere stay in the stash; more than
    ``stash_limit`` of them raise ``StashOverflowError`` after the
    upload, as a write-back does.
    """
    state = OramState(config, key, store, rng, namespace)
    initial: dict[int, bytes] = {}
    for addr, data in blocks:
        if not 0 <= addr < config.capacity:
            raise AddressError(f"address {addr} outside [0, {config.capacity})")
        if len(data) != config.block_payload:
            raise ParameterError(f"block {addr} is {len(data)} bytes, "
                                 f"block payload is {config.block_payload}")
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
    new_stash, placed = state._evict(every)
    store.batch_put(state._seal(every, placed))
    state._keep_stash(new_stash)
    return state
