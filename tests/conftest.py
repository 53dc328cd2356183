import errno
import os
import random
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, settings

from shrouddb.errors import BatchError
from shrouddb.oram import ADDR_SIZE, DUMMY_ADDR, Z
from shrouddb.slots import open_slots
from shrouddb.storage import INDEX_BITS, MAX_INDEX, Kvs, MemoryKvs

settings.register_profile(
    "default",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def server():
    """``shrouddb serve`` on a free loopback port; yields (host, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "shrouddb", "serve", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        m = re.search(r"listening on (\S+):(\d+)", line)
        assert m, line
        yield m.group(1), int(m.group(2))
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


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


class LeafRecordingKvs(MemoryKvs):
    """A store that records, for every ``batch_get`` it answers, the leaf
    of the deepest bucket asked for: the path leaf the server saw read
    when the batch is one ORAM access."""

    def __init__(self):
        super().__init__()
        self.leaves: list[int] = []

    def batch_get(self, keys):
        values = super().batch_get(keys)
        index = max(int.from_bytes(k, "big") for k in keys) % MAX_INDEX
        depth = (index + 1).bit_length() - 1
        self.leaves.append(index - ((1 << depth) - 1))
        return values


@pytest.fixture
def leaf_kvs():
    """Factory of ``LeafRecordingKvs`` stores."""
    return LeafRecordingKvs


class FullDisk:
    """Stands in for ``os.writev`` on a disk with ``room`` bytes left: the
    gather write that would exceed it stores what fits and raises ENOSPC;
    after that, writes go through again."""

    def __init__(self, room):
        self.room = room
        self.real = os.writev

    def __call__(self, fd, buffers):
        if self.room is not None:
            data = b"".join(buffers)
            if len(data) > self.room:
                os.write(fd, data[:self.room])
                self.room = None
                raise OSError(errno.ENOSPC, "No space left on device")
            self.room -= len(data)
        return self.real(fd, buffers)


def tree_blocks(st) -> dict[int, int]:
    """Decrypt the whole server tree of ORAM ``st``; returns {address:
    bucket id}, and fails if an address is stored twice."""
    blobs = st.store.batch_get(st._bucket_keys)
    bodies = open_slots(st._cipher, blobs, st.n_buckets, st.bucket_plain)
    found: dict[int, int] = {}
    for i in range(st.n_buckets * Z):
        at = i * st.body_size
        addr = int.from_bytes(bodies[at:at + ADDR_SIZE], "big")
        if addr != DUMMY_ADDR:
            assert addr not in found, f"address {addr} stored twice"
            found[addr] = i // Z
    return found
