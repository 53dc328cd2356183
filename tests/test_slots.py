import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shrouddb.crypto import keygen
from shrouddb.errors import AuthenticationError, ParameterError
from shrouddb.slots import fresh_nonces, open_slots, seal_slots, sealed_size


def _material(rng, count, size, bits=128):
    return keygen(bits, rng).data, rng.randbytes(count * size)


@pytest.mark.parametrize("count,size", [(1, 8), (5, 24), (64, 1), (16, 4096)])
def test_roundtrip(count, size, rng):
    key, plain = _material(rng, count, size)
    sealed = seal_slots(key, plain, fresh_nonces(count), count, size)
    assert len(sealed) == count
    assert all(len(msg) == sealed_size(size) == 28 + size for msg in sealed)
    assert open_slots(key, sealed, count, size) == plain


def test_message_layout(rng):
    """Each message is nonce || ciphertext || tag of one AES-GCM call."""
    key, plain = _material(rng, 4, 32)
    nonces = rng.randbytes(4 * 12)
    sealed = seal_slots(key, plain, nonces, 4, 32)
    for i, msg in enumerate(sealed):
        assert msg[:12] == nonces[i * 12:(i + 1) * 12]
        assert AESGCM(key).decrypt(msg[:12], msg[12:], None) == plain[i * 32:(i + 1) * 32]


def test_tamper_reports_message(rng):
    key, plain = _material(rng, 8, 16)
    sealed = seal_slots(key, plain, fresh_nonces(8), 8, 16)
    bad = bytearray(sealed[5])
    bad[20] ^= 1  # a ciphertext bit of message 5
    sealed[5] = bytes(bad)
    with pytest.raises(AuthenticationError, match="message 5"):
        open_slots(key, sealed, 8, 16)


def test_length_validation(rng):
    key, plain = _material(rng, 4, 16)
    nonces = fresh_nonces(4)
    with pytest.raises(ParameterError):
        seal_slots(key, plain[:-1], nonces, 4, 16)
    with pytest.raises(ParameterError):
        seal_slots(key, plain, nonces[:-1], 4, 16)
    sealed = seal_slots(key, plain, nonces, 4, 16)
    with pytest.raises(ParameterError):
        open_slots(key, sealed[:-1], 4, 16)  # one message short
    with pytest.raises(ParameterError):
        open_slots(key, sealed[:3] + [sealed[3][:-1]], 4, 16)  # one byte short


def test_bad_key_length(rng):
    _, plain = _material(rng, 2, 8)
    with pytest.raises(ParameterError):
        seal_slots(b"tiny", plain, fresh_nonces(2), 2, 8)
    with pytest.raises(ParameterError):
        open_slots(b"tiny", [bytes(sealed_size(8))] * 2, 2, 8)


def test_256_bit_keys(rng):
    key, plain = _material(rng, 3, 10, bits=256)
    sealed = seal_slots(key, plain, fresh_nonces(3), 3, 10)
    assert open_slots(key, sealed, 3, 10) == plain
