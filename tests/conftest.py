from __future__ import annotations

import json
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
    pass before it; ``raw`` bytes replace it, and the connection closes
    after them."""

    def __init__(
        self,
        close: bool = False,
        hang_up: bool = False,
        drop_reused: bool = False,
        status: int = 200,
        content_type: str | None = "application/json",
        headers: tuple = (),
        delay: float = 0,
        raw: bytes | None = None,
    ):
        self.hits = []
        self.connections = 0
        self.closed = 0
        self.lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            served = 0

            def log_message(self, format, *args):  # noqa: A002
                pass

            def setup(self):
                super().setup()
                with stub.lock:
                    stub.connections += 1

            def finish(self):
                super().finish()
                with stub.lock:
                    stub.closed += 1

            def _answer(self):
                length = int(self.headers.get("Content-Length") or 0)
                body_in = self.rfile.read(length) if length else b""
                with stub.lock:
                    stub.hits.append((self.command, self.path, body_in, self.headers))
                self.served += 1
                time.sleep(delay)
                if drop_reused and self.served > 1 or raw is not None:
                    self.wfile.write(raw or b"")
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
