"""Processes and load: the gateway and stub as child processes, and a
closed-loop HTTP/1.1 client over raw sockets.

The client sets TCP_NODELAY and sends each request in one write, so any
Nagle / delayed-ACK stall it measures is the gateway's own.  All connections
are driven from one thread by a selector; each sends its next request only
after the previous reply has been read in full.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HOST = "127.0.0.1"
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def http_request(method: str, path: str, body: bytes = b"", headers: tuple = ()) -> bytes:
    """One request as the bytes of a single write."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {HOST}"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body or method in ("POST", "PUT", "PATCH"):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@dataclass
class Response:
    status: int
    headers: dict  # lower-cased names; repeated headers keep the last value
    body: bytes


class Connection:
    """One keep-alive client connection with at most one request in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection((HOST, port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.tag = None  # caller's note on the request in flight
        self.sent_at = 0.0

    def send(self, data: bytes, tag) -> None:
        self.tag = tag
        self.sent_at = time.perf_counter()
        self.sock.sendall(data)

    def feed(self) -> Response | None:
        """Read what is available; the response once it is complete."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = self.buffer[:end].decode("latin-1").split("\r\n")
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if len(self.buffer) < end + 4 + length:
            return None
        body = self.buffer[end + 4 : end + 4 + length]
        self.buffer = self.buffer[end + 4 + length :]
        return Response(int(head[0].split(" ", 2)[1]), headers, body)

    def exchange(self, data: bytes) -> Response:
        """Blocking request/response, for the traced run and set-up."""
        self.send(data, None)
        while True:
            response = self.feed()
            if response is not None:
                return response

    def close(self) -> None:
        self.sock.close()


@dataclass
class Sample:
    index: int  # pool index, or reload number for admin requests
    sent: float
    done: float
    response: Response
    # reloads completed when sent and reloads started when answered: the
    # policy that decided is one of those installed in between
    window: tuple = (0, 0)


@dataclass
class LoadResult:
    started: float
    deadline: float
    samples: list = field(default_factory=list)
    reloads: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def closed_loop(port, pool, seconds, connections, reload_bodies=(), reload_every=1.0) -> LoadResult:
    """Drive ``connections`` keep-alive connections through ``pool`` (wire
    requests, cycled in order) for ``seconds``; alongside, PUT the texts in
    ``reload_bodies`` in turn to /admin/policy every ``reload_every`` seconds
    on a connection of their own."""
    selector = selectors.DefaultSelector()
    workers = [Connection(port) for _ in range(connections)]
    admin = Connection(port) if reload_bodies else None
    result = LoadResult(started=time.perf_counter(), deadline=0.0)
    result.deadline = result.started + seconds
    state = {"next": 0, "puts_started": 0, "puts_done": 0, "next_reload": result.started + reload_every}
    busy, dead = set(), set()

    def admin_idle() -> bool:
        return admin is not None and admin not in busy and admin not in dead

    def fire(conn: Connection) -> None:
        index = state["next"] % len(pool)
        state["next"] += 1
        conn.send(pool[index], (index, state["puts_done"]))
        busy.add(conn)

    try:
        for conn in workers + ([admin] if admin else []):
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        for conn in workers:
            fire(conn)
        while busy or time.perf_counter() < result.deadline:
            now = time.perf_counter()
            if admin_idle() and state["next_reload"] <= now < result.deadline:
                k = state["puts_started"]
                admin.send(http_request("PUT", "/admin/policy", reload_bodies[k % len(reload_bodies)]), (k, 0))
                busy.add(admin)
                state["puts_started"] += 1
                state["next_reload"] += reload_every
            wake = min(result.deadline, state["next_reload"]) if admin_idle() else result.deadline
            if now > result.deadline + 60:
                result.errors.append(f"{len(busy)} request(s) unanswered 60 s after the run")
                break
            for key, _ in selector.select(max(0.0, wake - now) if now < result.deadline else 1.0):
                conn = key.data
                try:
                    response = conn.feed()
                except (OSError, ValueError) as exc:
                    result.errors.append(f"connection error: {exc}")
                    selector.unregister(conn.sock)
                    busy.discard(conn)
                    dead.add(conn)
                    continue
                if response is None:
                    continue
                done = time.perf_counter()
                busy.discard(conn)
                index, at_send = conn.tag
                if conn is admin:
                    state["puts_done"] += 1
                    result.reloads.append(Sample(index, conn.sent_at, done, response))
                    continue
                window = (at_send, state["puts_started"])
                result.samples.append(Sample(index, conn.sent_at, done, response, window))
                if done < result.deadline:
                    fire(conn)
    finally:
        selector.close()
        for conn in workers + ([admin] if admin else []):
            conn.close()
    return result


# --- child processes --------------------------------------------------------


class GatewayProcess:
    """``python -m sacpdp.cli serve CONFIG`` in its own process."""

    def __init__(self, conf: Path, port: int, log: Path):
        self.port = port
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "sacpdp.cli", "serve", str(conf)],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )
        try:
            self.setup_s = self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, started: float) -> float:
        probe = http_request("GET", "/healthz", headers=(("Connection", "close"),))
        while time.perf_counter() - started < 120:
            if self.proc.poll() is not None:
                raise RuntimeError(f"gateway exited with code {self.proc.returncode}")
            try:
                conn = Connection(self.port)
            except OSError:
                time.sleep(0.002)
                continue
            try:
                if conn.exchange(probe).status == 200:
                    return time.perf_counter() - started
            except (OSError, ConnectionError):
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("gateway did not answer /healthz within 120 s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def write_gateway_conf(run_dir: Path, bundle_conf: Path, upstream_port: int, audit: Path, name: str) -> tuple[Path, int]:
    """A gateway config naming the bundle's documents, on a free port."""
    port = free_port()
    conf = run_dir / f"{name}.conf"
    base = bundle_conf.parent
    lines = []
    for raw in bundle_conf.read_text(encoding="utf-8").splitlines():
        key, eq, value = raw.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or key.startswith("#") or key in ("requests", "listen", "upstream", "audit_log"):
            continue
        lines.append(f"{key} = {value if key == 'trusted_soas' else base / value}")
    lines += [
        f"listen = {HOST}:{port}",
        f"upstream = http://{HOST}:{upstream_port}",
        f"audit_log = {audit}",
    ]
    conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conf, port


def start_gateway(run_dir: Path, bundle_conf: Path, upstream_port: int, audit: Path, name: str) -> GatewayProcess:
    conf, port = write_gateway_conf(run_dir, bundle_conf, upstream_port, audit, name)
    return GatewayProcess(conf, port, run_dir / f"{name}.log")


class Stub:
    """bench/stub.py in its own process; see that file for the protocol."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = int(self.proc.stdout.readline())

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
