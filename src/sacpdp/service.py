"""HTTP gateway: enforcement proxy, decision endpoint, live admin reloads.

The gateway sits in front of an upstream service.  Every request under /proxy/
is turned into an access request, decided against the active store, and only
forwarded upstream on Permit.  POST /pdp/decide answers wire requests directly.
PUT /admin/... swaps one document at a time; the whole assembly is revalidated
and the swap is atomic, so concurrent decisions always see one consistent
store version.

Each response leaves in one write on a TCP_NODELAY socket, so no response
waits on Nagle's algorithm for the client's delayed ACK.  Each client
connection forwards its Permits on one kept-alive upstream connection.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from .bundle import (
    ADMIN_PATHS,
    SLOTS,
    Bundle,
    assemble,
    build_store,
    load_bundle,
    parse_document,
    parse_kv_config,
)
from .errors import ActivationError, ConfigError, SacError, UnknownPurposeError
from .ontology import AttributeDescriptor
from .pdp import Decision, DecisionValue, PolicyStore, decide, explain
from .registry import KnowledgeBase, build_access_request
from .xmlio import (
    XacmlRequestDoc,
    parse_scalar,
    parse_xacml_request,
    response_doc_for,
    serialize_xacml_response,
)

# HTTP method to action concept, for requests arriving at the proxy.
METHOD_ACTIONS = {
    "GET": "read",
    "HEAD": "read",
    "POST": "write",
    "PUT": "write",
    "PATCH": "write",
    "DELETE": "delete",
}
FALLBACK_ACTION = "execute"

# Methods a client may repeat without a changed effect (RFC 9110 §9.2.2): only
# these are sent again when a kept-alive upstream connection turns out dead.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS"})

# Request headers never forwarded upstream: the hop-by-hop ones (RFC 9110
# §7.6.1), the two the upstream connection sets itself, the caller's decision
# inputs, and Accept-Encoding, so that the upstream answers in the identity
# encoding that the relay passes on as is.
NOT_FORWARDED = frozenset({
    "connection", "keep-alive", "proxy-connection", "te", "trailer",
    "transfer-encoding", "upgrade",
    "host", "content-length",
    "x-subject", "x-attribute", "x-context",
    "accept-encoding",
})


@dataclass(frozen=True)
class GatewayConfig:
    bundle: Bundle
    listen_host: str
    listen_port: int
    upstream: str
    audit_log: Path | None


def load_gateway_config(path: str | Path) -> GatewayConfig:
    """The gateway config is a bundle file with listen/upstream/audit_log keys."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.conf"
    bundle = load_bundle(path)
    values = parse_kv_config(path)
    listen = values.get("listen", "127.0.0.1:8080")
    host, _, port_text = listen.rpartition(":")
    if not host:
        host, port_text = listen, "8080"
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ConfigError(f"{path}: bad listen address {listen!r}") from exc
    upstream = values.get("upstream", "http://127.0.0.1:9000").rstrip("/")
    parts = urlsplit(upstream)
    try:
        parts.port  # a port that is not a number raises here
    except ValueError as exc:
        raise ConfigError(f"{path}: bad upstream port in {upstream!r}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"{path}: upstream must be an http:// or https:// URL, got {upstream!r}")
    audit = (bundle.root / values["audit_log"]) if "audit_log" in values else None
    return GatewayConfig(
        bundle=bundle, listen_host=host, listen_port=port, upstream=upstream, audit_log=audit
    )


def _parse_attribute_header(raw: str) -> AttributeDescriptor:
    """``name; soa=...; e=enabled`` presented by the caller."""
    parts = [p.strip() for p in raw.split(";")]
    name = parts[0]
    if not name:
        raise ValueError(f"attribute header missing name: {raw!r}")
    soa = ""
    enabled = False
    for part in parts[1:]:
        if not part:
            continue
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key == "soa":
            soa = value
        elif key == "e":
            enabled = value.lower() == "enabled"
        else:
            raise ValueError(f"unknown attribute header field {key!r}")
    return AttributeDescriptor(attribute_id=name, name=name, soa_id=soa, equivalence_enabled=enabled)


def _parse_context_header(raw: str) -> tuple[str, object]:
    """``key=value; type=int`` context values; ``type`` takes the documents'
    value types and defaults to string."""
    head, _, tail = raw.partition(";")
    key, eq, value = head.partition("=")
    key, value = key.strip(), value.strip()
    if not eq or not key:
        raise ValueError(f"context header needs key=value: {raw!r}")
    kind = "string"
    if tail.strip():
        tkey, _, tvalue = tail.strip().partition("=")
        if tkey.strip() != "type":
            raise ValueError(f"unknown context header field {tkey.strip()!r}")
        kind = tvalue.strip()
    return key, parse_scalar(kind, value)


class BodyError(ValueError):
    """A request body whose extent the gateway does not know.  It is answered
    with ``status``, and the connection closes after the answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _status(exc: Exception) -> int:
    return exc.status if isinstance(exc, BodyError) else 400


def _dot_segment(object_id: str) -> str | None:
    """The first ``.`` or ``..`` segment of ``object_id``, raw or with its
    dots percent-encoded; an upstream would resolve such a path to another
    object than the one decided."""
    for segment in object_id.split("/"):
        if segment.lower().replace("%2e", ".") in (".", ".."):
            return segment
    return None


def _forward_headers(headers: http.client.HTTPMessage) -> http.client.HTTPMessage:
    """The caller's headers less NOT_FORWARDED and every header that
    Connection names; repeated headers stay repeated."""
    named = {
        token.strip().lower()
        for value in headers.get_all("Connection") or []
        for token in value.split(",")
    }
    forwarded = http.client.HTTPMessage()
    for name, value in headers.items():
        if name.lower() not in NOT_FORWARDED and name.lower() not in named:
            forwarded[name] = value
    return forwarded


def _open_upstream(upstream: str) -> http.client.HTTPConnection:
    parts = urlsplit(upstream)
    kind = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    return kind(parts.hostname, parts.port, timeout=10)


def _readable(conn: http.client.HTTPConnection) -> bool:
    """Whether an idle connection's socket has something to read: the
    upstream closed it, or sent bytes nobody asked for."""
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0))


def _exchange(conn, method, target, body, headers) -> tuple[int, str, bytes]:
    """Status, content type and body of one upstream exchange.  On any
    failure the connection is closed, so the next request opens a fresh one."""
    try:
        conn.request(method, target, body=body, headers=headers)
        response = conn.getresponse()
        content = response.read()
    except BaseException:
        conn.close()
        raise
    return response.status, response.getheader("Content-Type", "application/octet-stream"), content


class Gateway:
    """Holds the active (store, knowledge base) snapshot and the audit stream."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        store, kb = build_store(config.bundle)
        # One tuple attribute so readers always see a matched pair.
        self._state: tuple[PolicyStore, KnowledgeBase] = (store, kb)
        self._swap_lock = threading.Lock()
        self._audit_lock = threading.Lock()
        self._audit_handle = None
        if config.audit_log is not None:
            config.audit_log.parent.mkdir(parents=True, exist_ok=True)
            self._audit_handle = open(config.audit_log, "a", encoding="utf-8")
        self._server: GatewayServer | None = None
        self._thread: threading.Thread | None = None

    # -- state ---------------------------------------------------------------

    def snapshot(self) -> tuple[PolicyStore, KnowledgeBase]:
        return self._state

    @property
    def version(self) -> int:
        return self._state[0].version

    def admin_load(self, slot: str, text: str) -> int:
        """Replace one document; revalidate everything; swap or reject whole.

        Returns the new store version.  Raises ActivationError with the full
        findings report when the candidate assembly does not validate; the
        previous state stays active in that case.
        """
        if slot not in SLOTS:
            raise ActivationError([f"unknown admin slot {slot!r}"])
        with self._swap_lock:
            store, kb = self._state
            docs = {**store.graphs, "purposes": store.purposes, "policy": store.policy, "registry": kb}
            try:
                docs[slot] = parse_document(slot, text, source="admin upload")
            except SacError as exc:
                raise ActivationError([str(exc)]) from exc
            findings, candidate = assemble(docs, store.trusted_soas, version=store.version + 1)
            if findings or candidate is None:
                raise ActivationError(findings or ["activation failed"])
            self._state = (candidate, docs["registry"])
            return candidate.version

    # -- audit ---------------------------------------------------------------

    def audit(self, record: dict) -> None:
        if self._audit_handle is None:
            return
        with self._audit_lock:
            self._audit_handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._audit_handle.flush()

    # -- server lifecycle ----------------------------------------------------

    def _bind(self) -> GatewayServer:
        self._server = GatewayServer((self.config.listen_host, self.config.listen_port), self)
        return self._server

    def start(self) -> int:
        """Bind and serve on a background thread; returns the bound port."""
        # short poll so stop() returns promptly
        self._thread = threading.Thread(
            target=self._bind().serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self.bound_port

    @property
    def bound_port(self) -> int:
        if self._server is None:
            raise RuntimeError("gateway not started")
        return self._server.server_address[1]

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._audit_handle is not None:
            self._audit_handle.close()
            self._audit_handle = None

    def serve_forever(self) -> None:
        """Foreground variant used by the command line."""
        server = self._bind()
        try:
            server.serve_forever()
        finally:
            server.server_close()


class GatewayServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], gateway: Gateway):
        self.gateway = gateway
        super().__init__(address, GatewayHandler)


class GatewayHandler(BaseHTTPRequestHandler):
    """One instance per client connection, which owns that connection's
    upstream connection."""

    protocol_version = "HTTP/1.1"
    server: GatewayServer
    # Headers and body collect in the write buffer and leave in one send when
    # _send flushes; with TCP_NODELAY none of them waits for an ACK.
    disable_nagle_algorithm = True
    wbufsize = -1
    _upstream: http.client.HTTPConnection | None = None

    def finish(self) -> None:
        if self._upstream is not None:
            self._upstream.close()
        super().finish()

    def handle_expect_100(self) -> bool:
        # the interim response would otherwise wait in the write buffer
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # decisions go to the audit log, not stderr

    # Every supported method funnels into one router.
    def do_GET(self) -> None:
        self._route("GET")

    def do_HEAD(self) -> None:
        self._route("HEAD")

    def do_POST(self) -> None:
        self._route("POST")

    def do_PUT(self) -> None:
        self._route("PUT")

    def do_PATCH(self) -> None:
        self._route("PATCH")

    def do_DELETE(self) -> None:
        self._route("DELETE")

    def do_OPTIONS(self) -> None:
        self._route("OPTIONS")

    # -- plumbing ------------------------------------------------------------

    def _body(self) -> bytes:
        """The request body, framed by Content-Length.  A Transfer-Encoding
        (411) or a Content-Length that is not a non-negative integer (400)
        raises BodyError."""
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            raise BodyError(411, "Transfer-Encoding is not accepted: send a Content-Length")
        raw = self.headers.get("Content-Length") or "0"
        if not (raw.isascii() and raw.isdigit()):
            self.close_connection = True
            raise BodyError(400, f"bad Content-Length {raw!r}")
        length = int(raw)
        return self.rfile.read(length) if length else b""

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "text/plain; charset=utf-8",
        extra: dict | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for key, value in (extra or {}).items():
            self.send_header(key, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
        self.wfile.flush()

    def _route(self, method: str) -> None:
        parts = urlsplit(self.path)
        path = parts.path
        try:
            if path == "/pdp/decide" and method == "POST":
                self._pdp_decide()
            elif path == "/proxy" or path.startswith("/proxy/"):
                self._proxy(method, parts)
            else:
                self._local(method, path)
        except BrokenPipeError:  # client went away mid-response
            pass

    # -- endpoints -----------------------------------------------------------

    def _local(self, method: str, path: str) -> None:
        """Health, version and admin requests, and every 404.  The body is read
        first, used or not, so the next request on the connection starts
        where this one ends."""
        try:
            body = self._body()
        except BodyError as exc:
            self._send(exc.status, f"{exc}\n".encode())
            return
        if path == "/healthz" and method in ("GET", "HEAD"):
            self._send(200, b"ok\n")
        elif path == "/admin/version" and method in ("GET", "HEAD"):
            self._send_version(self.server.gateway.version)
        elif path.startswith("/admin/") and method == "PUT":
            self._admin(path[len("/admin/") :], body)
        else:
            self._send(404, b"not found\n")

    def _send_version(self, version: int) -> None:
        self._send(200, json.dumps({"version": version}).encode() + b"\n", "application/json")

    def _admin(self, name: str, body: bytes) -> None:
        slot = ADMIN_PATHS.get(name)
        if slot is None:
            self._send(404, f"unknown admin slot {name!r}\n".encode())
            return
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            self._send(400, b"body is not valid UTF-8\n")
            return
        try:
            version = self.server.gateway.admin_load(slot, text)
        except ActivationError as exc:
            report = "\n".join(exc.findings) + "\n"
            self._send(422, report.encode())
            return
        self._send_version(version)

    def _pdp_decide(self) -> None:
        started = time.monotonic()
        store, kb = self.server.gateway.snapshot()
        try:
            wire = parse_xacml_request(self._body())
        except (SacError, ValueError) as exc:
            self._audit(started, None, None, None, None)
            self._send(_status(exc), f"{exc}\n".encode())
            return
        ids = (wire.subject_id, wire.resource_id, wire.action_id, wire.purpose_id)
        try:
            request, conflicts = build_access_request(wire, kb, store)
        except UnknownPurposeError as exc:
            self._audit(started, *ids)
            self._send(400, f"{exc}\n".encode())
            return
        decision = decide(store, request)
        self._audit(started, *ids, decision, conflicts)
        doc = response_doc_for(decision)
        body = serialize_xacml_response(doc).encode("utf-8")
        self._send(200, body, "application/xml", {"X-Decision": decision.value.value})

    def _proxy(self, method: str, parts) -> None:
        gateway = self.server.gateway
        started = time.monotonic()
        store, kb = gateway.snapshot()
        object_id = parts.path[len("/proxy/") :] if parts.path.startswith("/proxy/") else ""
        query = parse_qs(parts.query)
        purpose = (query.get("purpose") or [self.headers.get("X-Purpose", "")])[0]
        subject_id = self.headers.get("X-Subject", "anonymous")
        action_id = METHOD_ACTIONS.get(method, FALLBACK_ACTION)

        problems: list[str] = []
        status = 400
        if not object_id:
            problems.append("no object named after /proxy/")
        elif (segment := _dot_segment(object_id)) is not None:
            problems.append(f"dot segment {segment!r} in object {object_id!r}")
        if not purpose:
            problems.append("no purpose: pass ?purpose=... or an X-Purpose header")
        attrs = []
        environment: dict[str, object] = {}
        try:
            body = self._body()
            for raw in self.headers.get_all("X-Attribute") or []:
                attrs.append(_parse_attribute_header(raw))
            for raw in self.headers.get_all("X-Context") or []:
                key, value = _parse_context_header(raw)
                environment[key] = value
        except (SacError, ValueError) as exc:
            problems.append(str(exc))
            status = _status(exc)
        if problems:
            self._audit(started, subject_id, object_id or None, action_id, purpose or None)
            self._send(status, ("\n".join(problems) + "\n").encode())
            return

        wire = XacmlRequestDoc(
            subject_id=subject_id,
            subject_attributes=tuple(attrs),
            resource_id=object_id,
            action_id=action_id,
            purpose_id=purpose,
            environment=environment,
        )
        try:
            request, conflicts = build_access_request(wire, kb, store)
        except UnknownPurposeError as exc:
            self._audit(started, subject_id, object_id, action_id, purpose)
            self._send(400, f"{exc}\n".encode())
            return
        decision = decide(store, request)
        self._audit(started, subject_id, object_id, action_id, purpose, decision, conflicts)

        if decision.value is not DecisionValue.PERMIT:
            # masked refusals must be byte-exact "access denied", so no newline here
            self._send(
                403, explain(decision).encode(), extra={"X-Decision": decision.value.value}
            )
            return

        # the target is the decided object id as received, never re-normalised
        target = f"{urlsplit(gateway.config.upstream).path}/{object_id}"
        if parts.query:
            target += f"?{parts.query}"
        try:
            status, content_type, content = self._forward(
                method, target, body or None, _forward_headers(self.headers)
            )
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # ValueError: http.client refuses a target or header it cannot send
            self._send(
                502,
                f"upstream unreachable: {exc}\n".encode(),
                extra={"X-Decision": "Permit"},
            )
            return
        self._send(status, content, content_type, {"X-Decision": "Permit"})

    def _forward(self, method, target, body, headers) -> tuple[int, str, bytes]:
        """One exchange on this client connection's upstream connection,
        opened on first use and kept alive.  A reused connection that fails
        is closed, and an idempotent request is sent once more on a fresh one."""
        conn = self._upstream
        if conn is None:
            conn = self._upstream = _open_upstream(self.server.gateway.config.upstream)
        elif conn.sock is not None and _readable(conn):
            conn.close()  # the next request opens a fresh connection
        reused = conn.sock is not None
        try:
            return _exchange(conn, method, target, body, headers)
        except (ConnectionError, http.client.HTTPException):
            if not reused or method not in IDEMPOTENT_METHODS:
                raise
        return _exchange(conn, method, target, body, headers)

    # -- audit records -------------------------------------------------------

    def _audit(
        self, started, subject, obj, action, purpose, decision: Decision | None = None, conflicts=()
    ) -> None:
        """Write one audit record; without a decision, the request is recorded
        as an ``error`` (refused before it could be decided)."""
        record = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "subject": subject,
            "object": obj,
            "action": action,
            "purpose": purpose,
            "decision": "error" if decision is None else decision.value.value,
            "masked": decision is not None and decision.masked,
            "matched_rule": None if decision is None or decision.masked else decision.matched_rule,
            "latency_ms": round((time.monotonic() - started) * 1000, 3),
        }
        if conflicts:
            record["conflicts"] = list(conflicts)
        self.server.gateway.audit(record)
