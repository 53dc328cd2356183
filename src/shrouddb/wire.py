"""Length-prefixed binary wire protocol for the remote KVS backend.

Request frame:  ``[u32 length][u8 opcode][payload]`` where length counts
the opcode byte plus payload. Response frame mirrors the request with
opcode ``0x80 | op`` and a status byte: ``[u32 length][u8 0x80|op][u8
status][payload]``. All integers are big-endian.

The protocol has two operations, the two of the storage contract; any
other opcode is answered with an ERROR frame carrying a message.

Payloads:
    BATCH_GET  u32 n, n x key(8)           -> OK: u32 n, n x (u32 len, value)
                                              MISSING: u32 k, k x key(8), the
                                              keys never written
    BATCH_PUT  u32 n, n x (key(8), u32 len, value) -> OK: empty
"""

import socket
import struct

OP_BATCH_GET = 0x03
OP_BATCH_PUT = 0x04
RESP_FLAG = 0x80

ST_OK = 0x00
ST_MISSING = 0x01
ST_ERROR = 0x02

KEY_SIZE = 8
MAX_FRAME = 1 << 30


def recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def send_request(sock: socket.socket, opcode: int, payload: bytes) -> None:
    sock.sendall(struct.pack(">IB", 1 + len(payload), opcode) + payload)


def send_response(sock: socket.socket, opcode: int, status: int, payload: bytes = b"") -> None:
    sock.sendall(struct.pack(">IBB", 2 + len(payload), RESP_FLAG | opcode, status) + payload)


def read_request(sock: socket.socket) -> tuple[int, bytes]:
    """Returns (opcode, payload); raises ConnectionError on EOF."""
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if not 1 <= length <= MAX_FRAME:
        raise ValueError(f"bad frame length {length}")
    body = recv_exact(sock, length)
    return body[0], body[1:]


def read_response(sock: socket.socket, opcode: int) -> tuple[int, bytes]:
    """Returns (status, payload) for a response to ``opcode``."""
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if not 2 <= length <= MAX_FRAME:
        raise ValueError(f"bad frame length {length}")
    body = recv_exact(sock, length)
    if body[0] != (RESP_FLAG | opcode):
        raise ValueError(f"response opcode {body[0]:#x} does not match request {opcode:#x}")
    return body[1], body[2:]


def pack_keys(keys: list[bytes]) -> bytes:
    return struct.pack(">I", len(keys)) + b"".join(keys)


def unpack_keys(payload: bytes) -> list[bytes]:
    (n,) = struct.unpack(">I", payload[:4])
    if len(payload) != 4 + n * KEY_SIZE:
        raise ValueError("key list length mismatch")
    return [payload[4 + i * KEY_SIZE:4 + (i + 1) * KEY_SIZE] for i in range(n)]


def pack_values(values: list[bytes]) -> bytes:
    parts = [struct.pack(">I", len(values))]
    for v in values:
        parts.append(struct.pack(">I", len(v)))
        parts.append(v)
    return b"".join(parts)


def unpack_values(payload: bytes) -> list[bytes]:
    (n,) = struct.unpack(">I", payload[:4])
    values, off = [], 4
    for _ in range(n):
        (vlen,) = struct.unpack(">I", payload[off:off + 4])
        off += 4
        values.append(payload[off:off + vlen])
        off += vlen
    if off != len(payload):
        raise ValueError("value list length mismatch")
    return values


def pack_pairs(pairs: list[tuple[bytes, bytes]]) -> bytes:
    parts = [struct.pack(">I", len(pairs))]
    for k, v in pairs:
        parts.append(k)
        parts.append(struct.pack(">I", len(v)))
        parts.append(v)
    return b"".join(parts)


def unpack_pairs(payload: bytes) -> list[tuple[bytes, bytes]]:
    (n,) = struct.unpack(">I", payload[:4])
    pairs, off = [], 4
    for _ in range(n):
        k = payload[off:off + KEY_SIZE]
        off += KEY_SIZE
        (vlen,) = struct.unpack(">I", payload[off:off + 4])
        off += 4
        pairs.append((k, payload[off:off + vlen]))
        off += vlen
    if off != len(payload):
        raise ValueError("pair list length mismatch")
    return pairs
