"""Upstream stub for the proxy workload, run as its own process.

Prints its port on the first line of stdout.  Then each ``stats`` line read
from stdin is answered with one JSON line: connections accepted so far and
hits per ``METHOD path``.  End of stdin stops it.

Every response goes out in one write on a TCP_NODELAY socket, so the stub
itself can never cause a Nagle / delayed-ACK stall.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
from collections import Counter


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.hits = Counter()

    def snapshot(self) -> dict:
        with self.lock:
            return {"connections": self.connections, "hits": dict(self.hits)}


def _serve_connection(conn: socket.socket, stats: Stats) -> None:
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = conn.makefile("rb")
    try:
        while True:
            line = reader.readline(65537)
            if not line.strip():
                return
            method, target, _version = line.decode("latin-1").split(" ", 2)
            length, close = 0, False
            while True:
                header = reader.readline(65537)
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                name, value = name.strip().lower(), value.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value == "close":
                    close = True
            body = reader.read(length) if length else b""
            path = target.split("?", 1)[0]
            with stats.lock:
                stats.hits[f"{method} {path}"] += 1
            payload = json.dumps({"upstream": True, "path": path, "bytes": len(body)}).encode()
            head = (
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode()
            conn.sendall(head if method == "HEAD" else head + payload)
            if close:
                return
    except (OSError, ValueError):
        return  # a client that breaks protocol just loses its connection
    finally:
        reader.close()
        conn.close()


def _accept_loop(listener: socket.socket, stats: Stats) -> None:
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return  # listener closed on shutdown
        with stats.lock:
            stats.connections += 1
        threading.Thread(target=_serve_connection, args=(conn, stats), daemon=True).start()


def main() -> int:
    stats = Stats()
    listener = socket.create_server(("127.0.0.1", 0), backlog=64)
    threading.Thread(target=_accept_loop, args=(listener, stats), daemon=True).start()
    print(listener.getsockname()[1], flush=True)
    for line in sys.stdin:
        if line.strip() == "stats":
            print(json.dumps(stats.snapshot()), flush=True)
    listener.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
