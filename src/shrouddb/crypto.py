"""Symmetric keys and the partition PRF.

A key is 16 plain bytes, used by ``shrouddb.slots`` for AES-128-GCM
sealing (``nonce (12) || ciphertext || tag (16)``, one message per ORAM
bucket); ``slots.cipher`` refuses any other length. The partition hash
is CMAC-AES of each record id; it stays deterministic under a fixed
key.
"""

from __future__ import annotations

import random

import numpy as np
from cryptography.hazmat.primitives.cmac import CMAC
from cryptography.hazmat.primitives.ciphers import algorithms

from shrouddb.errors import ParameterError

__all__ = [
    "keygen",
    "partition_of",
]


def keygen(rng: random.Random) -> bytes:
    """Draw a uniformly random 16-byte key from ``rng``."""
    return rng.randbytes(16)


def partition_of(key: bytes, record_ids, m: int) -> np.ndarray:
    """Hash each record ID into a store index in [1, m]: its 8-byte
    big-endian CMAC-AES digest mod ``m``, plus 1. One key schedule
    serves every ID, copied per ID."""
    if m < 1:
        raise ParameterError("partition count must be >= 1")
    ids = np.asarray(record_ids, ">u8")
    if m == 1:  # x % 1 + 1 for any digest x; no need to compute it
        return np.ones(len(ids), np.int64)
    base, data, digests = CMAC(algorithms.AES(key)), ids.tobytes(), []
    for at in range(0, len(data), 8):
        mac = base.copy()
        mac.update(data[at:at + 8])
        digests.append(int.from_bytes(mac.finalize(), "big") % m + 1)
    return np.array(digests, np.int64)
