import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shrouddb.crypto import keygen
from shrouddb.errors import AuthenticationError, ParameterError
from shrouddb.slots import cipher, fresh_nonces, open_slots, seal_slots, sealed_size


def _material(rng, count, size):
    return cipher(keygen(rng)), rng.randbytes(count * size)


@pytest.mark.parametrize("count,size", [(1, 8), (5, 24), (64, 1), (16, 4096)])
def test_roundtrip(count, size, rng):
    ctx, plain = _material(rng, count, size)
    sealed = seal_slots(ctx, plain, fresh_nonces(count), count, size)
    assert len(sealed) == count
    assert all(len(msg) == sealed_size(size) == 28 + size for msg in sealed)
    assert open_slots(ctx, sealed, count, size) == plain


def test_message_layout(rng):
    """Each message is nonce || ciphertext || tag of one AES-GCM call."""
    key = keygen(rng)
    plain = rng.randbytes(4 * 32)
    nonces = rng.randbytes(4 * 12)
    sealed = seal_slots(cipher(key), plain, nonces, 4, 32)
    for i, msg in enumerate(sealed):
        assert msg[:12] == nonces[i * 12:(i + 1) * 12]
        assert AESGCM(key).decrypt(msg[:12], msg[12:], None) == plain[i * 32:(i + 1) * 32]


def test_tamper_reports_message(rng):
    ctx, plain = _material(rng, 8, 16)
    sealed = seal_slots(ctx, plain, fresh_nonces(8), 8, 16)
    bad = bytearray(sealed[5])
    bad[20] ^= 1  # a ciphertext bit of message 5
    sealed[5] = bytes(bad)
    with pytest.raises(AuthenticationError, match="message 5"):
        open_slots(ctx, sealed, 8, 16)


def test_length_validation(rng):
    ctx, plain = _material(rng, 4, 16)
    nonces = fresh_nonces(4)
    with pytest.raises(ParameterError):
        seal_slots(ctx, plain[:-1], nonces, 4, 16)
    with pytest.raises(ParameterError):
        seal_slots(ctx, plain, nonces[:-1], 4, 16)
    sealed = seal_slots(ctx, plain, nonces, 4, 16)
    with pytest.raises(ParameterError):
        open_slots(ctx, sealed[:-1], 4, 16)  # one message short
    with pytest.raises(ParameterError):
        open_slots(ctx, sealed[:3] + [sealed[3][:-1]], 4, 16)  # one byte short


def test_bad_key_length():
    for key in (b"tiny", bytes(24), bytes(33)):
        with pytest.raises(ParameterError):
            cipher(key)


def test_256_bit_keys(rng):
    """Every key is AES-128: a 32-byte key is refused."""
    with pytest.raises(ParameterError, match="bad AES key length 32"):
        cipher(rng.randbytes(32))


# -- sealing and opening in a caller's buffer --------------------------------

@pytest.mark.parametrize("count,size", [(3, 16), (2, 20_600)])
def test_roundtrip_in_caller_buffers(count, size, rng):
    ctx, plain = _material(rng, count, size)
    sealed_buf = bytearray(count * sealed_size(size) + 5)  # a larger buffer is fine
    sealed = seal_slots(ctx, plain, fresh_nonces(count), count, size, sealed_buf)
    assert b"".join(sealed) == sealed_buf[:count * sealed_size(size)]
    opened_buf = bytearray(count * size + 3)
    opened = open_slots(ctx, sealed, count, size, opened_buf)
    assert opened == plain == opened_buf[:count * size]
    assert open_slots(ctx, [bytes(m) for m in sealed], count, size) == plain


def test_buffer_too_small_is_refused_before_writing(rng):
    ctx, plain = _material(rng, 4, 16)
    short = bytearray(b"\xaa" * (4 * sealed_size(16) - 1))
    with pytest.raises(ParameterError, match="needs"):
        seal_slots(ctx, plain, fresh_nonces(4), 4, 16, short)
    assert short == b"\xaa" * len(short)
    sealed = seal_slots(ctx, plain, fresh_nonces(4), 4, 16)
    short = bytearray(b"\xaa" * (4 * 16 - 1))
    with pytest.raises(ParameterError, match="needs"):
        open_slots(ctx, sealed, 4, 16, short)
    assert short == b"\xaa" * len(short)
    with pytest.raises(ParameterError, match="read-only"):
        open_slots(ctx, sealed, 4, 16, bytes(4 * 16))


def test_sealed_views_are_read_only(rng):
    ctx, plain = _material(rng, 2, 16)
    sealed = seal_slots(ctx, plain, fresh_nonces(2), 2, 16, bytearray(2 * sealed_size(16)))
    for msg in sealed:
        assert isinstance(msg, memoryview) and msg.readonly
        with pytest.raises(TypeError):
            msg[0] = 0


def test_tamper_reports_message_when_opening_into_a_buffer(rng):
    ctx, plain = _material(rng, 6, 16)
    sealed = [bytes(m) for m in seal_slots(ctx, plain, fresh_nonces(6), 6, 16)]
    bad = bytearray(sealed[4])
    bad[-1] ^= 1  # a tag bit of message 4
    sealed[4] = bytes(bad)
    with pytest.raises(AuthenticationError, match="message 4"):
        open_slots(ctx, sealed, 6, 16, bytearray(6 * 16))
