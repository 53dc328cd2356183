"""TCP key-value server speaking the shrouddb wire protocol.

One thread per connection; a deployment opens one connection, and no
ordering is promised across connections. Every request is one batch on
one backend from ``shrouddb.storage``, which holds its lock across the
batch, so no connection sees half of another's. The server is the
modeled adversary: it sees keys, sizes, and timing, never plaintext.
"""

from __future__ import annotations

import socket
import socketserver
from pathlib import Path

from shrouddb import wire
from shrouddb.errors import BatchError, ParameterError, StorageError
from shrouddb.storage import Kvs, connect


def _answer(kvs: Kvs, opcode: int, payload: memoryview) -> tuple[int, list]:
    if opcode == wire.OP_BATCH_GET:
        keys = [bytes(k) for k in wire.unpack_blobs(payload)]  # dict keys, so copied
        try:
            return wire.ST_OK, wire.blob_pieces(kvs.batch_get(keys))
        except BatchError as exc:
            return wire.ST_MISSING, wire.blob_pieces(exc.missing)
    if opcode == wire.OP_BATCH_PUT:
        flat = wire.unpack_blobs(payload)
        if len(flat) % 2:
            return wire.ST_ERROR, [f"batch_put got {len(flat)} blobs, not key-value pairs".encode()]
        kvs.batch_put([(bytes(k), v) for k, v in zip(flat[::2], flat[1::2])])
        return wire.ST_OK, []
    return wire.ST_ERROR, [f"unknown opcode {opcode:#x}".encode()]


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        kvs: Kvs = self.server.kvs  # type: ignore[attr-defined]
        while True:
            try:
                opcode, payload = wire.read_request(sock)
            except (ConnectionError, ValueError, OSError):
                return
            try:
                status, out = _answer(kvs, opcode, payload)
            except Exception as exc:  # surface, never kill the connection
                status, out = wire.ST_ERROR, [str(exc).encode()]
            del payload  # the store holds copies; free the frame before the next one
            try:
                try:
                    wire.send_response(sock, opcode, status, out)
                except StorageError as exc:  # a reply over the frame limit; none of it went out
                    wire.send_response(sock, opcode, wire.ST_ERROR, [str(exc).encode()])
            except OSError:
                return


class KvsServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, backend: str, data_dir: str | Path | None = None):
        if backend not in ("memory", "disk"):
            raise ParameterError(f"unknown backend {backend!r}")
        self.kvs = connect(backend, data_dir)
        super().__init__((host, port), _Handler)

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]


def serve(host: str, port: int, backend: str, data_dir: str | Path | None = None) -> None:
    """Run the server until interrupted; prints readiness for scripting."""
    with KvsServer(host, port, backend, data_dir) as srv:
        bound_host, bound_port = srv.endpoint
        print(f"listening on {bound_host}:{bound_port}", flush=True)
        try:
            srv.serve_forever()
        except KeyboardInterrupt:
            pass
