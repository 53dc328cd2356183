import random

import pytest
from hypothesis import given, strategies as st

from shrouddb.crypto import keygen, partition_of, prf
from shrouddb.errors import AuthenticationError, ParameterError
from shrouddb.slots import cipher, fresh_nonces, open_slots, seal_slots, sealed_size


def test_keygen_sizes(rng):
    for bits in (128, 256):
        key = keygen(bits, rng)
        assert type(key) is bytes
        assert len(key) == bits // 8


def test_keygen_rejects_other_sizes(rng):
    for bits in (0, 64, 192, 512):
        with pytest.raises(ParameterError):
            keygen(bits, rng)


def test_keygen_uses_injected_rng():
    a = keygen(128, random.Random(5))
    b = keygen(128, random.Random(5))
    c = keygen(128, random.Random(6))
    assert a == b
    assert a != c


def test_cipher_validates_key_length():
    with pytest.raises(ParameterError, match="bad AES key length 5"):
        cipher(b"short")


def _seal(key: bytes, msg: bytes) -> bytes:
    return seal_slots(cipher(key), msg, fresh_nonces(1), 1, len(msg))[0]


def _open(key: bytes, sealed: bytes, size: int) -> bytes:
    return open_slots(cipher(key), [sealed], 1, size)


def test_encrypt_decrypt_roundtrip(rng):
    key = keygen(128, rng)
    for size in (0, 1, 24, 1024):
        msg = rng.randbytes(size)
        assert _open(key, _seal(key, msg), size) == msg


def test_ciphertext_layout(rng):
    key = keygen(256, rng)
    msg = b"hello world"
    nonce = rng.randbytes(12)
    sealed = seal_slots(cipher(key), msg, nonce, 1, len(msg))[0]
    assert len(sealed) == sealed_size(len(msg)) == 12 + len(msg) + 16
    assert sealed[:12] == nonce
    assert msg not in bytes(sealed)  # a view would only compare single bytes


def test_ciphertext_from_bytes_too_short(rng):
    key = keygen(128, rng)
    with pytest.raises(ParameterError):
        _open(key, b"\x00" * 27, 0)


def test_block_size_cap(rng):
    key = keygen(128, rng)
    seal_slots(cipher(key), b"x" * 64, fresh_nonces(1), 1, 64)
    with pytest.raises(ParameterError):
        seal_slots(cipher(key), b"x" * 65, fresh_nonces(1), 1, 64)


def test_tamper_detection(rng):
    key = keygen(128, rng)
    sealed = _seal(key, b"payload")
    for offset in (0, 12, len(sealed) - 1):  # nonce, body, tag
        mutated = bytearray(sealed)
        mutated[offset] ^= 1
        with pytest.raises(AuthenticationError):
            _open(key, bytes(mutated), 7)


def test_wrong_key_fails(rng):
    k1 = keygen(128, random.Random(1))
    k2 = keygen(128, random.Random(2))
    with pytest.raises(AuthenticationError):
        _open(k2, _seal(k1, b"secret"), 6)


def test_fresh_iv_per_call(rng):
    key = keygen(128, rng)
    c1 = _seal(key, b"same")
    c2 = _seal(key, b"same")
    assert c1[:12] != c2[:12]
    assert c1[12:] != c2[12:]


def test_prf_deterministic_and_keyed(rng):
    k1 = keygen(128, random.Random(1))
    k2 = keygen(128, random.Random(2))
    assert prf(k1, b"data") == prf(k1, b"data")
    assert prf(k1, b"data") != prf(k2, b"data")
    assert prf(k1, b"data") != prf(k1, b"date")
    assert len(prf(k1, b"")) == 16


def test_partition_range(rng):
    key = keygen(128, rng)
    for m in (1, 2, 7, 64):
        got = {partition_of(key, rid, m) for rid in range(1000)}
        assert got <= set(range(1, m + 1))
        if m <= 7:
            assert got == set(range(1, m + 1))


def test_partition_rejects_bad_m(rng):
    key = keygen(128, rng)
    with pytest.raises(ParameterError):
        partition_of(key, 1, 0)


@given(st.binary(min_size=0, max_size=256), st.integers(0, 2**31))
def test_roundtrip_property(msg, seed):
    r = random.Random(seed)
    key = keygen(256, r)
    assert _open(key, _seal(key, msg), len(msg)) == msg
