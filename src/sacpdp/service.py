"""HTTP gateway: enforcement proxy, decision endpoint, live admin reloads.

The gateway sits in front of an upstream service.  Every request under /proxy/
is turned into an access request, decided against the active store, and only
forwarded upstream on Permit.  POST /pdp/decide answers wire requests directly.
PUT /admin/... swaps one document at a time; the whole assembly is revalidated
and the swap is atomic, so concurrent decisions always see one consistent
store version.

One asyncio event loop serves every client connection, one coroutine each,
and every upstream exchange; only admin swaps run on a worker thread, so
decisions keep flowing while a large store is rebuilt.  Requests on a
connection are answered in order, each in one write on a TCP_NODELAY socket.
Each client connection forwards its Permits on one kept-alive upstream
connection.  A request head is at most 64 KiB and 100 header lines (else
431), HTTP/1.0 or HTTP/1.1 (else 505), with CRLF line endings.  Every request
leaves through one exit: an unexpected error is a 500 with one ``error``
audit record, and a failed audit write is a 503 with nothing forwarded.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from datetime import datetime, timezone
from http import HTTPStatus
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
METHODS = frozenset(METHOD_ACTIONS) | {"OPTIONS"}  # any other is a 501

# Methods a client may repeat without a changed effect (RFC 9110 §9.2.2): only
# these are sent again when a kept-alive upstream connection turns out dead.
IDEMPOTENT_METHODS = frozenset({"GET", "HEAD", "PUT", "DELETE", "OPTIONS"})

# Hop-by-hop headers (RFC 9110 §7.6.1): neither forwarded nor relayed.
HOP_BY_HOP = frozenset({
    "connection", "keep-alive", "proxy-connection", "te", "trailer",
    "transfer-encoding", "upgrade",
})
# Request headers never forwarded upstream: the hop-by-hop ones, the two the
# upstream connection sets itself, the caller's decision inputs, and
# Accept-Encoding, so that the upstream answers in the identity encoding that
# the relay passes on as is.
NOT_FORWARDED = HOP_BY_HOP | {
    "host", "content-length", "x-subject", "x-attribute", "x-context", "accept-encoding",
}
# Upstream response headers never relayed: Content-Length is recomputed, and
# only the gateway says X-Decision.
NOT_RELAYED = HOP_BY_HOP | {"content-length", "x-decision"}

HEAD_LIMIT = 64 * 1024  # bytes in a request head; also the StreamReader limit
MAX_FIELDS = 100  # header lines in a request head
UPSTREAM_TIMEOUT = 10  # seconds to connect, and for each upstream exchange

_TOKEN = r"[-!#$%&'*+.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([^\x00-\x20\x7f]+) HTTP/(\d)(?:\.(\d))?")
_STATUS_LINE = re.compile(r"HTTP/1\.(\d) (\d{3})(?: [^\r\n]*)?")
_FIELD_LINE = re.compile(rf"({_TOKEN}):[ \t]*([^\x00-\x08\x0a-\x1f\x7f]*?)[ \t]*")
_REASONS = {status.value: status.phrase for status in HTTPStatus}

_log = logging.getLogger(__name__)


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


class RequestError(ValueError):
    """A request head or body framing the gateway cannot take.  It is
    answered with ``status``, and the connection closes after the answer."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class AuditError(Exception):
    """The audit record could not be written: the request fails closed."""


def _status(exc: Exception) -> int:
    return exc.status if isinstance(exc, RequestError) else 400


def _dot_segment(object_id: str) -> str | None:
    """The first ``.`` or ``..`` segment of ``object_id``, raw or with its
    dots percent-encoded; an upstream would resolve such a path to another
    object than the one decided."""
    for segment in object_id.split("/"):
        if segment.lower().replace("%2e", ".") in (".", ".."):
            return segment
    return None


class Headers:
    """The fields of one head: ``items`` in arrival order, looked up by name
    in any case; repeated fields keep every value."""

    def __init__(self, lines: list[str]):
        """Parses ``name: value`` lines.  One with no colon, a name that is
        not a token (as after obsolete line folding) or a control character
        in its value raises RequestError(400)."""
        self.items: list[tuple[str, str]] = []
        self._index: dict[str, list[str]] = {}
        for line in lines:
            if (match := _FIELD_LINE.fullmatch(line)) is None:
                raise RequestError(400, f"bad header line {line!r}")
            self.items.append(match.groups())
            self._index.setdefault(match[1].lower(), []).append(match[2])

    def get_all(self, name: str) -> list[str]:
        return self._index.get(name.lower(), [])

    def get(self, name: str, default: str | None = None) -> str | None:
        return (self.get_all(name) or [default])[0]

    def tokens(self, name: str) -> list[str]:
        """The lower-cased comma-separated tokens of every ``name`` field."""
        return [t.strip().lower() for value in self.get_all(name) for t in value.split(",")]


def _parse_head(head: bytes) -> tuple[str, str, bool, Headers]:
    """Method, target, whether HTTP/1.0, and fields of a request head."""
    request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    if (match := _REQUEST_LINE.fullmatch(request_line)) is None:
        raise RequestError(400, f"bad request line {request_line!r}")
    method, target, major, minor = match.groups()
    if major >= "2":
        raise RequestError(505, f"HTTP/{major} is not supported: use HTTP/1.1")
    if major != "1" or minor is None:
        raise RequestError(400, f"bad request line {request_line!r}")
    if len(lines) > MAX_FIELDS:
        raise RequestError(431, f"more than {MAX_FIELDS} header lines")
    return method, target, minor == "0", Headers(lines)


def _content_length(headers: Headers) -> int | None:
    """The body length a head declares, None when it declares none.  Two
    different values, or one that is not a non-negative integer, raise
    RequestError(400)."""
    if len(values := set(headers.get_all("Content-Length"))) > 1:
        raise RequestError(400, f"conflicting Content-Length values {sorted(values)}")
    if not values:
        return None
    if not ((raw := values.pop()).isascii() and raw.isdigit()):
        raise RequestError(400, f"bad Content-Length {raw!r}")
    return int(raw)


def _end_to_end(headers: Headers, dropped: frozenset) -> list[tuple[str, str]]:
    """``headers`` less ``dropped`` and every header that Connection names;
    repeated headers stay repeated."""
    named = set(headers.tokens("Connection"))
    return [(n, v) for n, v in headers.items if n.lower() not in dropped and n.lower() not in named]


class Upstream:
    """One client connection's kept-alive connection to the upstream, opened
    on its first exchange and replaced when the upstream drops it."""

    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.tls = parts.scheme == "https"
        self.address = (parts.hostname, parts.port or (443 if self.tls else 80))
        self.path = parts.path
        self.host = parts.netloc.rpartition("@")[2]

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None

    async def exchange(self, method, target, body, fields) -> tuple[int, Headers, bytes | None]:
        """Status, headers and body (None when the answer has none by rule)
        of one exchange.  A reused connection that fails is closed, and an
        idempotent request is sent once more on a fresh one."""
        # StreamReader has no public peek: bytes or an EOF that arrived while
        # the connection was idle mean the upstream closed it or broke step
        reader = self.reader
        if reader is not None and (reader._buffer or reader.at_eof() or reader.exception()):
            self.close()
        for retry in (self.writer is not None and method in IDEMPOTENT_METHODS, False):
            try:
                return await self._exchange(method, target, body, fields)
            except (ConnectionError, EOFError, ValueError):
                if not retry:
                    raise

    async def _exchange(self, method, target, body, fields):
        """One request and its answer; on any failure the connection is
        closed, so the next exchange opens a fresh one."""
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.wait_for(
                    asyncio.open_connection(*self.address, ssl=self.tls), UPSTREAM_TIMEOUT
                )
            lines = [f"{method} {target} HTTP/1.1", f"Host: {self.host}", "Accept-Encoding: identity"]
            lines += [f"{name}: {value}" for name, value in fields]
            if body or method in ("POST", "PUT", "PATCH"):
                lines.append(f"Content-Length: {len(body)}")
            timer = asyncio.get_running_loop().call_later(UPSTREAM_TIMEOUT, self._expire)
            try:
                self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
                status, headers, content, reusable = await self._response(method)
            finally:
                timer.cancel()
        except BaseException:
            self.close()
            raise
        if not reusable:
            self.close()
        return status, headers, content

    def _expire(self) -> None:
        # the pending read raises this once the aborted connection is lost
        self.reader.set_exception(TimeoutError(f"no answer within {UPSTREAM_TIMEOUT} s"))
        self.writer.transport.abort()

    async def _response(self, method: str) -> tuple[int, Headers, bytes | None, bool]:
        """The final answer, framed by Content-Length, chunked coding or the
        end of the connection; and whether the connection can carry another."""
        reader, status = self.reader, 100
        while status < 200:  # interim 1xx answers precede the final one
            status_line, *lines = (await reader.readuntil(b"\r\n\r\n"))[:-4].decode("latin-1").split("\r\n")
            if (match := _STATUS_LINE.fullmatch(status_line)) is None:
                raise ValueError(f"bad upstream status line {status_line!r}")
            status, headers = int(match[2]), Headers(lines)
        connection = headers.tokens("Connection")
        reusable = "close" not in connection and (match[1] != "0" or "keep-alive" in connection)
        if method == "HEAD" or status in (204, 304):
            return status, headers, None, reusable
        if (codings := headers.tokens("Transfer-Encoding")) and codings[-1] == "chunked":
            return status, headers, await self._chunked(), reusable
        if codings or (length := _content_length(headers)) is None:
            return status, headers, await reader.read(), False
        return status, headers, await reader.readexactly(length), reusable

    async def _chunked(self) -> bytes:
        reader, chunks = self.reader, []
        while True:
            size = (await reader.readuntil(b"\r\n")).partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ValueError(f"bad chunk size {size!r}")
            if not (length := int(size, 16)):
                break
            chunks.append(await reader.readexactly(length))
            if await reader.readexactly(2) != b"\r\n":
                raise ValueError("chunk data not followed by CRLF")
        while await reader.readuntil(b"\r\n") != b"\r\n":
            pass  # trailer fields are not relayed
        return b"".join(chunks)


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
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._stopping: Future | None = None  # set by stop(), from any thread

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
        """Append one record as one JSON line, its keys in the record's own
        order, and flush it."""
        if self._audit_handle is None:
            return
        with self._audit_lock:
            self._audit_handle.write(json.dumps(record) + "\n")
            self._audit_handle.flush()

    # -- server lifecycle ----------------------------------------------------

    def _bind(self) -> socket.socket:
        self._listener = socket.create_server((self.config.listen_host, self.config.listen_port))
        self._stopping = Future()
        return self._listener

    def start(self) -> int:
        """Bind and serve on a background thread; returns the bound port."""
        self._thread = threading.Thread(target=asyncio.run, args=(self._serve(self._bind()),), daemon=True)
        self._thread.start()
        return self.bound_port

    @property
    def bound_port(self) -> int:
        if self._listener is None:
            raise RuntimeError("gateway not started")
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        if self._thread is not None:
            self._stopping.set_result(None)
            self._thread.join(timeout=5)
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        if self._audit_handle is not None:
            self._audit_handle.close()
            self._audit_handle = None

    def serve_forever(self) -> None:
        """Foreground variant used by the command line."""
        asyncio.run(self._serve(self._bind()))

    async def _serve(self, listener: socket.socket) -> None:
        def connected(reader, writer):
            return ClientConnection(self, reader, writer).serve()

        async with await asyncio.start_server(connected, sock=listener, limit=HEAD_LIMIT):
            await asyncio.wrap_future(self._stopping)
        # asyncio.run then cancels the open connections and joins the worker threads


class ClientConnection:
    """One client connection: answers its requests in turn and owns its
    upstream connection.  The attributes set in _read_request describe the
    request being answered."""

    method = target = ""
    body = b""
    body_error: RequestError | None = None
    close = audited = False

    def __init__(self, gateway: Gateway, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.gateway, self.reader, self.writer = gateway, reader, writer
        self.upstream = Upstream(gateway.config.upstream)

    async def serve(self) -> None:
        try:
            while not self.close:
                try:
                    if not await self._read_request():
                        return
                except RequestError as exc:
                    self.method, self.close = "", True
                    self._send(exc.status, f"{exc}\n".encode())
                    return
                await self._answer()
                await self.writer.drain()
        except OSError:
            pass  # the client went away
        except asyncio.CancelledError:
            # The gateway stops.  Nothing awaits this task, and on Python 3.11
            # the stream protocol's done callback reads task.exception(),
            # which logs a cancelled task as an error: end it normally.
            pass
        finally:
            self.upstream.close()
            self.writer.close()

    async def _read_request(self) -> bool:
        """Reads the next request's head and body; False when the client
        closes the connection between requests."""
        try:
            head = await self.reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return False
        except asyncio.LimitOverrunError as exc:
            raise RequestError(431, f"request head over {HEAD_LIMIT} bytes") from exc
        self.method, self.target, http10, self.headers = _parse_head(head)
        connection = self.headers.tokens("Connection")
        self.close = "close" in connection or (http10 and "keep-alive" not in connection)
        self.body, self.body_error = b"", None
        try:
            if self.headers.get_all("Transfer-Encoding"):
                raise RequestError(411, "Transfer-Encoding is not accepted: send a Content-Length")
            length = _content_length(self.headers) or 0
        except RequestError as exc:
            self.body_error, self.close = exc, True
            return True
        if length:
            if not http10 and self.headers.get("Expect", "").lower() == "100-continue":
                self.writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            try:
                self.body = await self.reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                message = f"body ends after {len(exc.partial)} of {length} bytes"
                self.body_error, self.close = RequestError(400, message), True
        return True

    async def _answer(self) -> None:
        """Routes one request.  This is its only exit: whatever an endpoint
        raises becomes one answer here."""
        started, self.audited = time.monotonic(), False
        parts = urlsplit(self.target)
        try:
            if self.method not in METHODS:
                self._send(501, f"method {self.method} is not supported\n".encode())
            elif parts.path == "/pdp/decide" and self.method == "POST":
                self._pdp_decide()
            elif parts.path == "/proxy" or parts.path.startswith("/proxy/"):
                await self._proxy(self.method, parts)
            else:
                await self._local(self.method, parts.path)
        except AuditError:
            # fail closed: a decision that cannot be audited is not enforced
            self.close = True
            self._send(503, b"audit log unavailable: request refused\n")
        except Exception:
            _log.exception("%s %s failed", self.method, self.target)
            self.close = True
            if not self.audited:
                try:
                    self._audit(started, None, None, None, None)
                except AuditError:
                    pass  # the 500 stands
            self._send(500, b"internal error\n")

    # -- plumbing ------------------------------------------------------------

    def _body(self) -> bytes:
        """The request body; raises the RequestError its framing met."""
        if self.body_error is not None:
            raise self.body_error
        return self.body

    def _send(
        self, status: int, body: bytes | None, content_type: str | None = "text/plain; charset=utf-8", extra=()
    ) -> None:
        """One response in one write; a None body has no Content-Length."""
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, '')}"]
        if content_type is not None:
            lines.append(f"Content-Type: {content_type}")
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        if self.close:
            lines.append("Connection: close")
        lines += [f"{name}: {value}" for name, value in extra]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.writer.write(head if body is None or self.method == "HEAD" else head + body)

    # -- endpoints -----------------------------------------------------------

    async def _local(self, method: str, path: str) -> None:
        """Health, version and admin requests, and every 404.  The body is read
        first, used or not, so the next request on the connection starts
        where this one ends."""
        try:
            body = self._body()
        except RequestError as exc:
            self._send(exc.status, f"{exc}\n".encode())
            return
        if path == "/healthz" and method in ("GET", "HEAD"):
            self._send(200, b"ok\n")
        elif path == "/admin/version" and method in ("GET", "HEAD"):
            self._send_version(self.gateway.version)
        elif path.startswith("/admin/") and method == "PUT":
            await self._admin(path[len("/admin/") :], body)
        else:
            self._send(404, b"not found\n")

    def _send_version(self, version: int) -> None:
        self._send(200, json.dumps({"version": version}).encode() + b"\n", "application/json")

    async def _admin(self, name: str, body: bytes) -> None:
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
            # a large store takes long to rebuild; decisions go on meanwhile
            version = await asyncio.to_thread(self.gateway.admin_load, slot, text)
        except ActivationError as exc:
            report = "\n".join(exc.findings) + "\n"
            self._send(422, report.encode())
            return
        self._send_version(version)

    def _pdp_decide(self) -> None:
        started = time.monotonic()
        store, kb = self.gateway.snapshot()
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
        self._send(200, body, "application/xml", [("X-Decision", decision.value.value)])

    async def _proxy(self, method: str, parts) -> None:
        gateway = self.gateway
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
            for raw in self.headers.get_all("X-Attribute"):
                attrs.append(_parse_attribute_header(raw))
            for raw in self.headers.get_all("X-Context"):
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
                403, explain(decision).encode(), extra=[("X-Decision", decision.value.value)]
            )
            return

        # the target is the decided object id as received, never re-normalised
        target = f"{self.upstream.path}/{object_id}"
        if parts.query:
            target += f"?{parts.query}"
        try:
            status, headers, content = await self.upstream.exchange(
                method, target, body, _end_to_end(self.headers, NOT_FORWARDED)
            )
        except (OSError, EOFError, ValueError, asyncio.LimitOverrunError, asyncio.TimeoutError) as exc:
            self._send(502, f"upstream unreachable: {exc}\n".encode(), extra=[("X-Decision", "Permit")])
            return
        relayed = _end_to_end(headers, NOT_RELAYED) + [("X-Decision", "Permit")]
        self._send(status, content, None, relayed)

    # -- audit records -------------------------------------------------------

    def _audit(
        self, started, subject, obj, action, purpose, decision: Decision | None = None, conflicts=()
    ) -> None:
        """Write one audit record; without a decision, the request is recorded
        as an ``error`` (refused before it could be decided).  A write that
        fails raises AuditError."""
        # keys in sorted order, so the line reads as json.dumps(sort_keys=True) wrote it
        record = {"action": action}
        if conflicts:
            record["conflicts"] = list(conflicts)
        record["decision"] = "error" if decision is None else decision.value.value
        record["latency_ms"] = round((time.monotonic() - started) * 1000, 3)
        record["masked"] = decision is not None and decision.masked
        record["matched_rule"] = None if decision is None or decision.masked else decision.matched_rule
        record["object"] = obj
        record["purpose"] = purpose
        record["subject"] = subject
        record["ts"] = datetime.now(timezone.utc).isoformat(timespec="milliseconds")
        try:
            self.gateway.audit(record)
        except (OSError, ValueError) as exc:  # ValueError: the log file is closed
            raise AuditError(str(exc)) from exc
        self.audited = True
