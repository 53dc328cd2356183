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

No batch is copied in user space. A payload is sent from a list of
buffers by gather writes, ``IOV_MAX`` buffers a ``sendmsg`` call (POSIX
only), and received into one buffer of the frame's length; what is
read back is read-only views of that buffer. A frame over ``MAX_FRAME``
bytes is refused by its sender before any byte goes out, and by its
receiver.
"""

import os
import socket
import struct

from shrouddb.errors import StorageError

OP_BATCH_GET = 0x03
OP_BATCH_PUT = 0x04
RESP_FLAG = 0x80

ST_OK = 0x00
ST_MISSING = 0x01
ST_ERROR = 0x02

MAX_FRAME = 1 << 30

_IOV_MAX = os.sysconf("SC_IOV_MAX")
_u32 = struct.Struct(">I").pack


def _recv_exact(sock: socket.socket, n: int) -> memoryview:
    """The next ``n`` bytes, as a read-only view of one fresh buffer."""
    buf = memoryview(bytearray(n))
    got = 0
    while got < n:
        k = sock.recv_into(buf[got:])
        if not k:
            raise ConnectionError("peer closed the connection")
        got += k
    return buf.toreadonly()


def _send(sock: socket.socket, head: bytes, payload: list) -> None:
    length = len(head) + sum(map(len, payload))
    if length > MAX_FRAME:
        raise StorageError(f"frame of {length} bytes is over the {MAX_FRAME}-byte limit")
    pieces = [_u32(length) + head, *payload]
    i = 0
    while i < len(pieces):
        sent = sock.sendmsg(pieces[i:i + _IOV_MAX])
        while i < len(pieces) and sent >= len(pieces[i]):
            sent -= len(pieces[i])
            i += 1
        if sent:  # a short send ended inside piece i
            pieces[i] = memoryview(pieces[i])[sent:]


def send_request(sock: socket.socket, opcode: int, payload: list) -> None:
    """``payload`` is a list of buffers; ``StorageError`` if the frame is too large."""
    _send(sock, bytes([opcode]), payload)


def send_response(sock: socket.socket, opcode: int, status: int, payload: list) -> None:
    _send(sock, bytes([RESP_FLAG | opcode, status]), payload)


def _read_frame(sock: socket.socket, min_length: int) -> memoryview:
    (length,) = struct.unpack(">I", _recv_exact(sock, 4))
    if not min_length <= length <= MAX_FRAME:
        raise ValueError(f"bad frame length {length}")
    return _recv_exact(sock, length)


def read_request(sock: socket.socket) -> tuple[int, memoryview]:
    """Returns (opcode, payload); raises ConnectionError on EOF."""
    body = _read_frame(sock, 1)
    return body[0], body[1:]


def read_response(sock: socket.socket, opcode: int) -> tuple[int, memoryview]:
    """Returns (status, payload) for a response to ``opcode``."""
    body = _read_frame(sock, 2)
    if body[0] != (RESP_FLAG | opcode):
        raise ValueError(f"response opcode {body[0]:#x} does not match request {opcode:#x}")
    return body[1], body[2:]


def blob_pieces(blobs: list) -> list:
    """``u32 n || n x (u32 len || blob)`` as a payload for ``send_request``
    or ``send_response``; the blobs themselves are not copied."""
    pieces = [_u32(len(blobs))]
    for blob in blobs:
        pieces += (_u32(len(blob)), blob)
    return pieces


def unpack_blobs(payload) -> list[memoryview]:
    """The blob list in ``payload``, as views of it; ``ValueError`` unless
    ``payload`` is exactly one such list."""
    view = memoryview(payload)
    if len(view) < 4:
        raise ValueError("blob list has no count")
    (n,) = struct.unpack_from(">I", view)
    blobs, off = [], 4
    for _ in range(n):
        if off + 4 > len(view):
            raise ValueError(f"blob list ends before blob {len(blobs)} of {n}")
        (size,) = struct.unpack_from(">I", view, off)
        off += 4 + size
        if off > len(view):
            raise ValueError(f"blob {len(blobs)} runs past the end")
        blobs.append(view[off - size:off])
    if off != len(view):
        raise ValueError(f"{len(view) - off} bytes after the blob list")
    return blobs
