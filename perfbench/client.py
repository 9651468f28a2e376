"""A client for the `standoff-xq serve` protocol, independent of the
repository's own client so that a change there cannot change the load.

    request:   <len>\\n<payload>
    response:  ok <len>\\n<payload>   |   err <len>\\n<category>\\n<message>

`FreshClient` opens a new TCP connection per request, the way
`standoff-xq call` does; `KeepAliveClient` sends every request over one
connection. Both close client sockets with SO_LINGER 0 (an RST instead
of a FIN), so a fresh-connection loop leaves no TIME_WAIT sockets behind
and cannot run out of ephemeral ports at thousands of requests per
second.
"""

import socket
import struct
import time

from loadgen import frame

MAX_PAYLOAD = 4 << 20
_LINGER_RST = struct.pack("ii", 1, 0)


class ProtocolError(Exception):
    pass


class Reply:
    """One response, with client-side timings in seconds: `connect` is
    the TCP handshake (0 on a kept-alive connection), `first_byte` runs
    from the end of connect to the first reply byte, `total` from the
    start of connect (or send) to the last reply byte."""

    def __init__(self, ok, body, connect, first_byte, total):
        self.ok = ok
        self.body = body
        self.connect = connect
        self.first_byte = first_byte
        self.total = total

    @property
    def category(self):
        return None if self.ok else self.body.split("\n", 1)[0]


def _connect(addr, timeout):
    sock = socket.create_connection(addr, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RST)
    return sock


def _roundtrip(sock, payload, started, connected):
    sock.sendall(frame(payload))
    buf = b""
    first = None
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ProtocolError("connection closed before the reply head")
        if first is None:
            first = time.perf_counter()
        buf += chunk
        if len(buf) > 64 and b"\n" not in buf:
            raise ProtocolError("oversized reply head")
    head, _, rest = buf.partition(b"\n")
    status, _, length = head.decode().partition(" ")
    if status not in ("ok", "err") or not length.isdigit() or int(length) > MAX_PAYLOAD:
        raise ProtocolError(f"malformed reply head {head!r}")
    need = int(length)
    parts = [rest]
    have = len(rest)
    while have < need:
        chunk = sock.recv(max(65536, need - have))
        if not chunk:
            raise ProtocolError("connection closed inside a reply")
        parts.append(chunk)
        have += len(chunk)
    body = b"".join(parts)
    if have != need:
        raise ProtocolError("reply longer than its head announced")
    done = time.perf_counter()
    return Reply(status == "ok", body.decode(), connected - started, first - connected,
                 done - started)


class FreshClient:
    """One TCP connection per request."""

    def __init__(self, addr, timeout=30.0):
        self.addr = addr
        self.timeout = timeout

    def request(self, payload):
        started = time.perf_counter()
        sock = _connect(self.addr, self.timeout)
        try:
            return _roundtrip(sock, payload, started, time.perf_counter())
        finally:
            sock.close()

    def close(self):
        pass


class KeepAliveClient:
    """Every request over one connection, opened on first use."""

    def __init__(self, addr, timeout=30.0):
        self.addr = addr
        self.timeout = timeout
        self.sock = None

    def request(self, payload):
        started = time.perf_counter()
        if self.sock is None:
            self.sock = _connect(self.addr, self.timeout)
        try:
            return _roundtrip(self.sock, payload, started, started)
        except (OSError, ProtocolError):
            self.close()
            raise

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None
