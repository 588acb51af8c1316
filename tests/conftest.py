from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import sacpdp
from sacpdp.bundle import build_store, load_bundle
from sacpdp.registry import build_access_request
from sacpdp.service import Gateway, load_gateway_config
from sacpdp.xmlio import parse_xacml_request

FIXTURES = Path(sacpdp.__file__).parent / "fixtures"
EHEALTH = FIXTURES / "ehealth"
GOLDEN = FIXTURES / "golden"


@pytest.fixture(scope="session")
def ehealth_bundle():
    return load_bundle(EHEALTH)


@pytest.fixture(scope="session")
def ehealth(ehealth_bundle):
    return build_store(ehealth_bundle)


@pytest.fixture(scope="session")
def canned_requests(ehealth_bundle, ehealth):
    store, kb = ehealth
    out = []
    for path in ehealth_bundle.request_paths():
        wire = parse_xacml_request(path.read_text(encoding="utf-8"))
        request, _ = build_access_request(wire, kb, store)
        out.append((path.stem, request))
    return out


class StubUpstream:
    """Counts hits and accepted and closed connections and answers 200 with a
    recognizable JSON body.  With ``close``, every answer says
    ``Connection: close``; with ``hang_up``, the connection is closed after
    each answer without saying so; with ``drop_reused``, a request that
    arrives on a connection already used is counted and then dropped
    unanswered.  ``status``, ``content_type`` (None for none) and the
    ``(name, value)`` pairs in ``headers`` shape the answer; ``delay`` seconds
    pass before it (a tuple: ``delay[i]`` before the answer to hit ``i``);
    ``raw`` bytes replace it, and the connection closes after them.  With
    ``split``, raw bytes go out in pieces of 1 and 3 bytes on a TCP_NODELAY
    socket, a millisecond apart.  ``first_answer`` bytes answer the stub's
    first request, on a connection that stays open; ``unsolicited`` bytes
    follow each normal answer 50 ms later, and ``unsolicited_sent`` is set
    once they went out."""

    def __init__(
        self,
        close: bool = False,
        hang_up: bool = False,
        drop_reused: bool = False,
        status: int = 200,
        content_type: str | None = "application/json",
        headers: tuple = (),
        delay: float | tuple = 0,
        raw: bytes | None = None,
        split: bool = False,
        first_answer: bytes | None = None,
        unsolicited: bytes | None = None,
    ):
        self.hits = []
        self.connections = 0
        self.closed = 0
        self.lock = threading.Lock()
        self.unsolicited_sent = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            served = 0

            def log_message(self, format, *args):  # noqa: A002
                pass

            def setup(self):
                super().setup()
                if split:
                    self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                with stub.lock:
                    stub.connections += 1

            def finish(self):
                super().finish()
                with stub.lock:
                    stub.closed += 1

            def _write_raw(self, data: bytes):
                if not split:
                    self.wfile.write(data)
                    return
                start = 0
                for size in itertools.cycle((1, 3)):
                    if start >= len(data):
                        break
                    self.wfile.write(data[start : start + size])
                    start += size
                    time.sleep(0.001)

            def _answer(self):
                length = int(self.headers.get("Content-Length") or 0)
                body_in = self.rfile.read(length) if length else b""
                with stub.lock:
                    stub.hits.append((self.command, self.path, body_in, self.headers))
                    hit = len(stub.hits) - 1
                self.served += 1
                time.sleep(delay[hit] if isinstance(delay, tuple) else delay)
                if hit == 0 and first_answer is not None:
                    self._write_raw(first_answer)
                    return
                if drop_reused and self.served > 1 or raw is not None:
                    self._write_raw(raw or b"")
                    self.close_connection = True
                    return
                body = json.dumps({"upstream": True, "path": self.path}).encode()
                self.send_response(status)
                if content_type is not None:
                    self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers:
                    self.send_header(name, value)
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                if self.command != "HEAD":
                    self.wfile.write(body)
                self.close_connection = self.close_connection or hang_up
                if unsolicited is not None:
                    time.sleep(0.05)
                    self.wfile.write(unsolicited)
                    stub.unsolicited_sent.set()

            do_GET = do_HEAD = do_POST = do_PUT = do_PATCH = do_DELETE = _answer

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def hit_count(self) -> int:
        with self.lock:
            return len(self.hits)

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


def write_gateway_conf(tmp_path: Path, upstream_port: int, bundle_dir: Path = EHEALTH) -> Path:
    conf = tmp_path / "gateway.conf"
    lines = [
        f"so = {bundle_dir / 'ehealth_so.xml'}",
        f"oo = {bundle_dir / 'ehealth_oo.xml'}",
        f"ao = {bundle_dir / 'ehealth_ao.xml'}",
        f"ato = {bundle_dir / 'ehealth_ato.xml'}",
        f"purposes = {bundle_dir / 'ehealth_purposes.xml'}",
        f"policy = {bundle_dir / 'ehealth_policy.xml'}",
        f"registry = {bundle_dir / 'ehealth_registry.xml'}",
        "trusted_soas = hospital_ADMIN",
        "listen = 127.0.0.1:0",
        f"upstream = http://127.0.0.1:{upstream_port}",
        f"audit_log = {tmp_path / 'audit.jsonl'}",
    ]
    conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return conf


@pytest.fixture
def gateway_for(tmp_path):
    """Starts a gateway in front of a StubUpstream built with the given
    options; returns (gateway, base URL, stub, audit log path)."""
    started = []

    def start(**stub_options):
        stub = StubUpstream(**stub_options)
        gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, stub.port)))
        started.append((gw, stub))
        return gw, f"http://127.0.0.1:{gw.start()}", stub, tmp_path / "audit.jsonl"

    yield start
    for gw, stub in started:
        gw.stop()
        stub.stop()


@pytest.fixture
def gateway(gateway_for):
    return gateway_for()
