import random

import pytest
from hypothesis import given, strategies as st

import numpy as np
from cryptography.hazmat.primitives.ciphers import algorithms
from cryptography.hazmat.primitives.cmac import CMAC

from shrouddb.crypto import keygen, partition_of
from shrouddb.errors import AuthenticationError, ParameterError
from shrouddb.slots import cipher, fresh_nonces, open_slots, seal_slots, sealed_size


def test_keygen_sizes(rng):
    key = keygen(rng)
    assert type(key) is bytes
    assert len(key) == 16


def test_keygen_uses_injected_rng():
    a = keygen(random.Random(5))
    b = keygen(random.Random(5))
    c = keygen(random.Random(6))
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
    key = keygen(rng)
    for size in (0, 1, 24, 1024):
        msg = rng.randbytes(size)
        assert _open(key, _seal(key, msg), size) == msg


def test_ciphertext_layout(rng):
    key = keygen(rng)
    msg = b"hello world"
    nonce = rng.randbytes(12)
    sealed = seal_slots(cipher(key), msg, nonce, 1, len(msg))[0]
    assert len(sealed) == sealed_size(len(msg)) == 12 + len(msg) + 16
    assert sealed[:12] == nonce
    assert msg not in bytes(sealed)  # a view would only compare single bytes


def test_ciphertext_from_bytes_too_short(rng):
    key = keygen(rng)
    with pytest.raises(ParameterError):
        _open(key, b"\x00" * 27, 0)


def test_block_size_cap(rng):
    key = keygen(rng)
    seal_slots(cipher(key), b"x" * 64, fresh_nonces(1), 1, 64)
    with pytest.raises(ParameterError):
        seal_slots(cipher(key), b"x" * 65, fresh_nonces(1), 1, 64)


def test_tamper_detection(rng):
    key = keygen(rng)
    sealed = _seal(key, b"payload")
    for offset in (0, 12, len(sealed) - 1):  # nonce, body, tag
        mutated = bytearray(sealed)
        mutated[offset] ^= 1
        with pytest.raises(AuthenticationError):
            _open(key, bytes(mutated), 7)


def test_wrong_key_fails(rng):
    k1 = keygen(random.Random(1))
    k2 = keygen(random.Random(2))
    with pytest.raises(AuthenticationError):
        _open(k2, _seal(k1, b"secret"), 6)


def test_fresh_iv_per_call(rng):
    key = keygen(rng)
    c1 = _seal(key, b"same")
    c2 = _seal(key, b"same")
    assert c1[:12] != c2[:12]
    assert c1[12:] != c2[12:]


def _partition_reference(key: bytes, rid: int, m: int) -> int:
    """One record's partition by its own CMAC: the digest of its 8-byte
    big-endian id, mod ``m``, plus 1."""
    mac = CMAC(algorithms.AES(key))
    mac.update(rid.to_bytes(8, "big"))
    return int.from_bytes(mac.finalize(), "big") % m + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4095])
def test_partition_equals_one_cmac_per_record(m, rng):
    key = keygen(rng)
    rids = [0, (1 << 64) - 1, 1, 1 << 63] + [rng.getrandbits(64) for _ in range(300)]
    got = partition_of(key, rids, m)
    assert got.dtype == np.int64 and got.shape == (len(rids),)
    assert got.tolist() == [_partition_reference(key, rid, m) for rid in rids]
    assert np.array_equal(partition_of(key, np.array(rids, np.uint64), m), got)
    other = partition_of(keygen(random.Random(2)), rids, m)
    assert (m == 1) == np.array_equal(other, got)  # keyed, except that m = 1 needs no key


def test_partition_range(rng):
    key = keygen(rng)
    for m in (1, 2, 7, 64):
        got = set(partition_of(key, range(1000), m).tolist())
        assert got <= set(range(1, m + 1))
        if m <= 7:
            assert got == set(range(1, m + 1))
    assert partition_of(key, [], 3).shape == (0,)


def test_partition_rejects_bad_m(rng):
    key = keygen(rng)
    with pytest.raises(ParameterError):
        partition_of(key, [1], 0)


@given(st.binary(min_size=0, max_size=256), st.integers(0, 2**31))
def test_roundtrip_property(msg, seed):
    r = random.Random(seed)
    key = keygen(r)
    assert _open(key, _seal(key, msg), len(msg)) == msg
