"""AES-GCM sealing of fixed-size messages: the package's one cipher path.

Every encrypted value the client stores goes through here. The ORAM
seals one message per bucket (its ``Z`` block slots together) and the
linear-scan baseline one message per record. A sealed message is
``nonce (12) || ciphertext || tag (16)``, ``sealed_size(size)`` bytes
for a ``size``-byte plaintext, so its length depends only on the
configuration. Nonces come from OS entropy (``fresh_nonces``); callers
never need the nonce or tag sizes.
"""

import os

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shrouddb.errors import AuthenticationError, ParameterError

__all__ = ["sealed_size", "fresh_nonces", "seal_slots", "open_slots"]

_NONCE = 12
_TAG = 16

# One AESGCM context per key; an ORAM seals every bucket it writes under
# a single key, so construction cost matters.
_ctx_cache: dict[bytes, AESGCM] = {}


def _ctx(key: bytes) -> AESGCM:
    ctx = _ctx_cache.get(key)
    if ctx is None:
        if len(key) not in (16, 32):
            raise ParameterError(f"bad AES key length {len(key)}")
        if len(_ctx_cache) > 64:
            _ctx_cache.clear()
        ctx = _ctx_cache[key] = AESGCM(key)
    return ctx


def sealed_size(size: int) -> int:
    """Bytes of one sealed message with a ``size``-byte plaintext."""
    return _NONCE + size + _TAG


def fresh_nonces(count: int) -> bytes:
    """``count`` concatenated nonces drawn from OS entropy."""
    return os.urandom(_NONCE * count)


def seal_slots(key: bytes, plain: bytes, nonces: bytes, count: int,
               size: int) -> list[bytes]:
    """Seal ``count`` messages of ``size`` bytes each.

    ``plain`` is the concatenated messages and ``nonces`` their
    concatenated nonces (``fresh_nonces(count)``); returns one sealed
    message per plaintext, in order.
    """
    if len(plain) != count * size:
        raise ParameterError("plaintext length does not match count * size")
    if len(nonces) != count * _NONCE:
        raise ParameterError("nonce blob length does not match count")
    encrypt = _ctx(key).encrypt
    src = memoryview(plain)
    out = []
    for i in range(count):
        nonce = nonces[i * _NONCE:(i + 1) * _NONCE]
        out.append(nonce + encrypt(nonce, src[i * size:(i + 1) * size], None))
    return out


def open_slots(key: bytes, sealed: list[bytes], count: int, size: int) -> bytes:
    """Open ``count`` sealed messages back to their concatenated plaintexts.

    Raises ``AuthenticationError`` naming the index of the first message
    that fails (wrong key or tampering).
    """
    if len(sealed) != count:
        raise ParameterError(f"got {len(sealed)} sealed messages, expected {count}")
    want = sealed_size(size)
    decrypt = _ctx(key).decrypt
    out = []
    for i, msg in enumerate(sealed):
        if len(msg) != want:
            raise ParameterError(f"sealed message {i} has {len(msg)} bytes, expected {want}")
        view = memoryview(msg)
        try:
            out.append(decrypt(view[:_NONCE], view[_NONCE:], None))
        except InvalidTag as exc:
            raise AuthenticationError(f"message {i} failed authentication") from exc
    return b"".join(out)
