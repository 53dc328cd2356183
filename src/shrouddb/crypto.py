"""Symmetric keys and a PRF.

A key is plain bytes, 16 or 32 of them, used by ``shrouddb.slots`` for
AES-GCM sealing (``nonce (12) || ciphertext || tag (16)``, one message
per ORAM bucket); ``slots.cipher`` refuses any other length. The PRF is
CMAC-AES; it drives the record-to-ORAM partition hash and stays
deterministic under a fixed key.
"""

from __future__ import annotations

import random

from cryptography.hazmat.primitives.cmac import CMAC
from cryptography.hazmat.primitives.ciphers import algorithms

from shrouddb.errors import ParameterError

__all__ = [
    "KEY_BITS",
    "keygen",
    "prf",
    "partition_of",
]

KEY_BITS = (128, 256)


def keygen(bits: int, rng: random.Random) -> bytes:
    """Draw a uniformly random key of ``bits`` ∈ {128, 256} from ``rng``."""
    if bits not in KEY_BITS:
        raise ParameterError(f"unsupported key size {bits}, expected one of {KEY_BITS}")
    return rng.randbytes(bits // 8)


def prf(key: bytes, data: bytes) -> bytes:
    """Deterministic 16-byte pseudo-random function of ``data``."""
    mac = CMAC(algorithms.AES(key))
    mac.update(data)
    return mac.finalize()


def partition_of(key: bytes, record_id: int, m: int) -> int:
    """Hash a record ID into a store index in [1, m]."""
    if m < 1:
        raise ParameterError("partition count must be >= 1")
    if m == 1:  # x % 1 + 1 for any digest x; no need to compute it
        return 1
    digest = prf(key, record_id.to_bytes(8, "big"))
    return int.from_bytes(digest, "big") % m + 1
