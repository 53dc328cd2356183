"""AES-GCM sealing of fixed-size messages: the package's one cipher path.

Every encrypted value the client stores goes through here. The ORAM
seals one message per bucket (its ``Z`` block slots together) and the
linear-scan baseline one message per record. A sealed message is
``nonce (12) || ciphertext || tag (16)``, ``sealed_size(size)`` bytes
for a ``size``-byte plaintext, so its length depends only on the
configuration. Nonces come from OS entropy (``fresh_nonces``); callers
never need the nonce or tag sizes. The caller owns the ``AESGCM``
context (``cipher(key)``), so no key outlives the state that holds it.
Both directions work in a caller's buffer (``encrypt_into`` and
``decrypt_into``), so a caller that reuses one buffer per batch makes
no per-message copies: sealing returns read-only views of it, opening
one view of the plaintexts.
"""

import os

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shrouddb.errors import AuthenticationError, ParameterError

__all__ = ["cipher", "sealed_size", "fresh_nonces", "seal_slots", "open_slots"]

_NONCE = 12
_TAG = 16


def cipher(key: bytes) -> AESGCM:
    """An AES-GCM context for a 128- or 256-bit ``key``."""
    if len(key) not in (16, 32):
        raise ParameterError(f"bad AES key length {len(key)}")
    return AESGCM(key)


def sealed_size(size: int) -> int:
    """Bytes of one sealed message with a ``size``-byte plaintext."""
    return _NONCE + size + _TAG


def fresh_nonces(count: int) -> bytes:
    """``count`` concatenated nonces drawn from OS entropy."""
    return os.urandom(_NONCE * count)


def _writable(out, need: int) -> memoryview:
    """``out`` as a flat byte view, refused unless writable and at least
    ``need`` bytes long."""
    view = memoryview(out).cast("B")
    if view.readonly:
        raise ParameterError("output buffer is read-only")
    if len(view) < need:
        raise ParameterError(f"output buffer has {len(view)} bytes, needs {need}")
    return view


def seal_slots(ctx: AESGCM, plain, nonces: bytes, count: int, size: int,
               out=None) -> list[memoryview]:
    """Seal ``count`` messages of ``size`` bytes each into ``out``.

    ``plain`` is the concatenated messages and ``nonces`` their
    concatenated nonces (``fresh_nonces(count)``). The sealed messages
    are written back to back at the start of ``out``, a writable buffer
    of at least ``count * sealed_size(size)`` bytes (a fresh one if
    ``None``); returns a read-only view of each, in order. A buffer that
    is too small is refused before anything is written.
    """
    if len(plain) != count * size:
        raise ParameterError("plaintext length does not match count * size")
    if len(nonces) != count * _NONCE:
        raise ParameterError("nonce blob length does not match count")
    step = sealed_size(size)
    buf = _writable(bytearray(count * step) if out is None else out, count * step)
    # every nonce in place in one strided copy; a slice assignment per message costs more
    shape = (count, _NONCE)
    np.ndarray(shape, np.uint8, buf, 0, (step, 1))[:] = np.ndarray(shape, np.uint8, nonces)
    encrypt_into = ctx.encrypt_into
    src = memoryview(plain)
    for i in range(count):
        at = i * step
        encrypt_into(nonces[i * _NONCE:(i + 1) * _NONCE], src[i * size:(i + 1) * size], None,
                     buf[at + _NONCE:at + step])
    sealed = buf.toreadonly()
    return [sealed[i * step:(i + 1) * step] for i in range(count)]


def open_slots(ctx: AESGCM, sealed: list, count: int, size: int, out=None) -> memoryview:
    """Open ``count`` sealed messages into ``out``, back to back.

    ``out`` is a writable buffer of at least ``count * size`` bytes (a
    fresh one if ``None``); returns the view of its first ``count *
    size`` bytes. Sizes are checked before anything is written. Raises
    ``AuthenticationError`` naming the index of the first message that
    fails (wrong key or tampering).
    """
    if len(sealed) != count:
        raise ParameterError(f"got {len(sealed)} sealed messages, expected {count}")
    want = sealed_size(size)
    for i, msg in enumerate(sealed):
        if len(msg) != want:
            raise ParameterError(f"sealed message {i} has {len(msg)} bytes, expected {want}")
    buf = _writable(bytearray(count * size) if out is None else out, count * size)
    decrypt_into = ctx.decrypt_into
    for i, msg in enumerate(sealed):
        view = memoryview(msg)
        try:
            decrypt_into(view[:_NONCE], view[_NONCE:], None, buf[i * size:(i + 1) * size])
        except InvalidTag as exc:
            raise AuthenticationError(f"message {i} failed authentication") from exc
    return buf[:count * size]
