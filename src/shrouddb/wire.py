"""Length-prefixed binary wire protocol for the remote KVS backend.

Request frame:  ``[u32 length][u8 opcode][payload]`` where length counts
the opcode byte plus payload. Response frame mirrors the request with
opcode ``0x80 | op`` and a status byte: ``[u32 length][u8 0x80|op][u8
status][payload]``. All integers are big-endian.

The protocol has two operations, the two of the storage contract; any
other opcode is answered with an ERROR frame carrying a message. Every
payload but an empty OK and an ERROR message is one blob list,
``u32 n || n x (u32 len || blob)``:

    BATCH_GET  [key0, key1, ...]            -> OK: [value0, value1, ...]
                                               MISSING: [the keys never written]
    BATCH_PUT  [key0, value0, key1, ...]    -> OK: empty; an odd count is an ERROR
"""

import socket
import struct

OP_BATCH_GET = 0x03
OP_BATCH_PUT = 0x04
RESP_FLAG = 0x80

ST_OK = 0x00
ST_MISSING = 0x01
ST_ERROR = 0x02

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


def _read_frame(sock: socket.socket, min_length: int) -> bytes:
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if not min_length <= length <= MAX_FRAME:
        raise ValueError(f"bad frame length {length}")
    return recv_exact(sock, length)


def read_request(sock: socket.socket) -> tuple[int, bytes]:
    """Returns (opcode, payload); raises ConnectionError on EOF."""
    body = _read_frame(sock, 1)
    return body[0], body[1:]


def read_response(sock: socket.socket, opcode: int) -> tuple[int, bytes]:
    """Returns (status, payload) for a response to ``opcode``."""
    body = _read_frame(sock, 2)
    if body[0] != (RESP_FLAG | opcode):
        raise ValueError(f"response opcode {body[0]:#x} does not match request {opcode:#x}")
    return body[1], body[2:]


def pack_blobs(blobs: list[bytes]) -> bytes:
    """``u32 n || n x (u32 len || blob)``."""
    parts = [struct.pack(">I", len(blobs))]
    for blob in blobs:
        parts.append(struct.pack(">I", len(blob)))
        parts.append(blob)
    return b"".join(parts)


def unpack_blobs(payload: bytes) -> list[bytes]:
    """The list ``pack_blobs`` wrote; ``ValueError`` unless ``payload``
    is exactly one such list."""
    if len(payload) < 4:
        raise ValueError("blob list has no count")
    (n,) = struct.unpack_from(">I", payload)
    blobs, off = [], 4
    for _ in range(n):
        if off + 4 > len(payload):
            raise ValueError(f"blob list ends before blob {len(blobs)} of {n}")
        (size,) = struct.unpack_from(">I", payload, off)
        off += 4 + size
        if off > len(payload):
            raise ValueError(f"blob {len(blobs)} runs past the end")
        blobs.append(payload[off - size:off])
    if off != len(payload):
        raise ValueError(f"{len(payload) - off} bytes after the blob list")
    return blobs
