"""HTTP gateway: enforcement proxy, decision endpoint, live admin reloads.

The gateway sits in front of an upstream service.  Every request under /proxy/
is turned into an access request, decided against the active store, and only
forwarded upstream on Permit.  POST /pdp/decide answers wire requests directly.
PUT /admin/... swaps one document at a time; the whole assembly is revalidated
and the swap is atomic, so concurrent decisions always see one consistent
store version.  A /pdp/decide answer is kept for its byte-identical body and
reused, unparsed and undecided but audited again, while the store that made
it stays active: every swap drops the map, which holds at most ANSWER_BYTES.

One asyncio event loop serves every client connection and every upstream
exchange, and each connection is one ``asyncio.BufferedProtocol`` that
reads into the gateway's one read buffer and frames what it read from its
own buffer.  A client connection answers /pdp/decide, /healthz,
/admin/version, every refusal and every 4xx/5xx at once, inside
``data_received``.  A Permit is written to the client connection's kept-alive
upstream connection, and the upstream connection relays the answer from its
own ``data_received`` once the answer is complete: no task, future or
coroutine runs for it (only opening an upstream connection runs
``loop.create_connection`` on a task).  An admin swap runs on a worker
thread, so decisions keep flowing while a large store is rebuilt, and is
answered from its future's callback.  The requests behind a forward or a
swap wait in the buffer, so requests on a connection are answered in order,
each in one write on a TCP_NODELAY socket.  A request head is at most 64 KiB
and 100 header lines (else 431), HTTP/1.0 or HTTP/1.1 (else 505), with CRLF
line endings (else 400).  Every request leaves through one exit: a refusal
on /proxy or /pdp/decide (a ``RequestError``) and an unexpected error (a 500)
each leave one ``error`` audit record, and a failed audit write is a 503 with
nothing forwarded.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import signal
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from functools import lru_cache
from http import HTTPStatus
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import NamedTuple
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

HEAD_LIMIT = 64 * 1024  # bytes in a request head
BODY_LIMIT = 8 * 1024 * 1024  # bytes a request body may declare
MAX_FIELDS = 100  # header lines in a request head
UPSTREAM_TIMEOUT = 10  # seconds to connect, and for each upstream exchange
ANSWER_BYTES = 1024 * 1024  # body and response bytes kept per store version
READ_SIZE = 256 * 1024  # bytes one socket read may take, as asyncio reads by default

_TOKEN = r"[-!#$%&'*+.^_`|~0-9A-Za-z]+"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) ([^\x00-\x20\x7f]+) HTTP/(\d)(?:\.(\d))?")
_STATUS_LINE = re.compile(r"HTTP/1\.(\d) (\d{3})(?: [^\r\n]*)?")
_FIELD_LINE = re.compile(rf"({_TOKEN}):[ \t]*([^\x00-\x08\x0a-\x1f\x7f]*?)[ \t]*")
_REASONS = {status.value: status.phrase for status in HTTPStatus}

_log = logging.getLogger(__name__)


def _json_text(value: str | None) -> str:
    return "null" if value is None else _json_string(value)


def _audit_line(
    *, action, decision, latency_ms, masked, matched_rule, object, purpose, subject, ts, conflicts=()
) -> str:
    """One audit record as ``json.dumps(record, sort_keys=True)`` writes it,
    and a newline: each field is filled into the one template by name, and
    ``conflicts`` is written only when it is not empty.  A field the template
    does not know raises TypeError."""
    listed = f'"conflicts": [{", ".join(map(_json_string, conflicts))}], ' if conflicts else ""
    return (
        f'{{"action": {_json_text(action)}, {listed}"decision": {_json_string(decision)}, '
        f'"latency_ms": {latency_ms!r}, "masked": {"true" if masked else "false"}, '
        f'"matched_rule": {_json_text(matched_rule)}, "object": {_json_text(object)}, '
        f'"purpose": {_json_text(purpose)}, "subject": {_json_text(subject)}, '
        f'"ts": {_json_string(ts)}}}\n'
    )


@lru_cache(maxsize=1)
def _second_text(second: int) -> str:
    t = time.gmtime(second)
    return f"{t.tm_year:04d}-{t.tm_mon:02d}-{t.tm_mday:02d}T{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"


def _timestamp(ns: int) -> str:
    """The UTC instant ``ns`` nanoseconds after the epoch, as
    ``datetime.isoformat(timespec="milliseconds")`` writes it."""
    second, rest = divmod(ns, 1_000_000_000)
    return f"{_second_text(second)}.{rest // 1_000_000:03d}+00:00"


@dataclass(frozen=True)
class GatewayConfig:
    bundle: Bundle
    listen_host: str
    listen_port: int
    upstream: str
    audit_log: Path


def load_gateway_config(path: str | Path) -> GatewayConfig:
    """The gateway config is a bundle file with listen/upstream/audit_log
    keys; audit_log is required, and listen is ``host[:port]``."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.conf"
    bundle = load_bundle(path)
    values = parse_kv_config(path)
    if not values.get("audit_log"):
        raise ConfigError(f"{path}: no audit_log: the gateway records every decision it enforces there")
    listen = values.get("listen", "127.0.0.1:8080")
    try:
        address = urlsplit("//" + listen)  # an unclosed "[" raises, and so does a port that is not a number
        port = 8080 if address.port is None else address.port
    except ValueError as exc:
        raise ConfigError(f"{path}: bad listen address {listen!r}: {exc}") from exc
    if address.netloc != listen or "@" in listen:  # a path, query, fragment or user would be dropped
        raise ConfigError(f"{path}: listen must be host[:port], got {listen!r}")
    if not address.hostname:
        raise ConfigError(f"{path}: no host in listen address {listen!r}")
    upstream = values.get("upstream", "http://127.0.0.1:9000").rstrip("/")
    try:
        parts = urlsplit(upstream)
        parts.port  # raises as the listen address does
    except ValueError as exc:
        raise ConfigError(f"{path}: bad upstream URL {upstream!r}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"{path}: upstream must be an http:// or https:// URL, got {upstream!r}")
    audit = bundle.root / values["audit_log"]
    return GatewayConfig(
        bundle=bundle, listen_host=address.hostname, listen_port=port, upstream=upstream, audit_log=audit
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
    """A request refused before it is decided, answered with ``status``; on
    /proxy and /pdp/decide it is audited as ``error`` with ``ids``, the
    subject, object, action and purpose the request named.  A bad head or
    body framing also closes the connection after the answer."""

    def __init__(self, status: int, message: str, ids: tuple = (None, None, None, None)):
        super().__init__(message)
        self.status = status
        self.ids = ids


class AuditError(Exception):
    """The audit record could not be written: the request fails closed."""


def _dot_segment(object_id: str) -> str | None:
    """The first ``.`` or ``..`` segment of ``object_id``, raw or with its
    dots percent-encoded; an upstream would resolve such a path to another
    object than the one decided."""
    for segment in object_id.split("/"):
        if segment.lower().replace("%2e", ".") in (".", ".."):
            return segment
    return None


class Outcome(NamedTuple):
    """What the audit record of a decided request says, less its time: the
    ids the request named, the decision and its masking, the matched rule
    (None when masked) and the registry conflicts."""

    subject: str | None
    object: str | None
    action: str | None
    purpose: str | None
    decision: str
    masked: bool
    matched_rule: str | None
    conflicts: tuple


def _judge(wire: XacmlRequestDoc, store: PolicyStore, kb: KnowledgeBase) -> tuple[Decision, Outcome]:
    """Decides ``wire`` against ``store`` and ``kb``, one snapshot's pair, and
    returns the decision with its Outcome.  An unknown purpose raises
    RequestError(400) with the ids the request named."""
    ids = (wire.subject_id, wire.resource_id, wire.action_id, wire.purpose_id)
    try:
        request, conflicts = build_access_request(wire, kb, store)
    except UnknownPurposeError as exc:
        raise RequestError(400, str(exc), ids) from exc
    decision = decide(store, request)
    masked = decision.masked
    outcome = Outcome(*ids, decision.value.value, masked, None if masked else decision.matched_rule, tuple(conflicts))
    return decision, outcome


class AnswerMap(dict):
    """The /pdp/decide answers one store version made: request body bytes to
    (Outcome, response bytes).  It holds at most ANSWER_BYTES of bodies and
    responses together: an insert that would pass the bound empties the map
    first, and a pair over the bound is never kept."""

    __slots__ = ("size",)

    def __init__(self):
        super().__init__()
        self.size = 0

    def keep(self, body: bytes, outcome: Outcome, response: bytes) -> None:
        size = len(body) + len(response)
        if size > ANSWER_BYTES:
            return
        if self.size + size > ANSWER_BYTES:
            self.clear()
            self.size = 0
        self[body] = (outcome, response)
        self.size += size


class Headers:
    """The fields of one head: ``items`` in arrival order, looked up by a
    lower-case name in any case; repeated fields keep every value.  A head
    has few fields and a request looks up few names, so a lookup scans
    ``names``, the field names in lower case."""

    __slots__ = ("items", "names")

    def __init__(self, lines: list[str]):
        """Parses ``name: value`` lines.  One with no colon, a name that is
        not a token (as after obsolete line folding) or a control character
        in its value raises RequestError(400)."""
        items = []
        for line in lines:
            if (match := _FIELD_LINE.fullmatch(line)) is None:
                raise RequestError(400, f"bad header line {line!r}")
            items.append(match.groups())
        self.items: list[tuple[str, str]] = items
        self.names = [name.lower() for name, _ in items]

    def get_all(self, name: str) -> list[str]:
        if name not in self.names:  # most names looked up are absent
            return []
        return [value for field, (_, value) in zip(self.names, self.items) if field == name]

    def get(self, name: str, default: str | None = None) -> str | None:
        return (self.get_all(name) or [default])[0]

    def tokens(self, name: str) -> list[str]:
        """The lower-cased comma-separated tokens of every ``name`` field."""
        return [t.strip().lower() for value in self.get_all(name) for t in value.split(",")]


def _parse_head(head: bytes) -> tuple[str, str, bool, Headers]:
    """Method, target, whether HTTP/1.0, and fields of a request head, given
    without the empty line that ends it."""
    request_line, *lines = head.decode("latin-1").split("\r\n")
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
    RequestError(400); one of more digits than ``int`` converts raises
    RequestError(413)."""
    if len(values := set(headers.get_all("content-length"))) > 1:
        raise RequestError(400, f"conflicting Content-Length values {sorted(values)}")
    if not values:
        return None
    if not ((raw := values.pop()).isascii() and raw.isdigit()):
        raise RequestError(400, f"bad Content-Length {raw!r}")
    try:
        return int(raw)
    except ValueError:
        raise RequestError(413, f"Content-Length of {len(raw)} digits") from None


def _end_to_end(headers: Headers, dropped: frozenset) -> list[tuple[str, str]]:
    """``headers`` less ``dropped`` and every header that Connection names;
    repeated headers stay repeated."""
    named = set(headers.tokens("connection"))
    return [field for field, name in zip(headers.items, headers.names) if name not in dropped and name not in named]


class UpstreamConnection(asyncio.BufferedProtocol):
    """One kept-alive connection from a client connection to the upstream.

    It carries one exchange at a time, and frames each answer from its own
    buffer as bytes arrive.  Once the final answer is complete, inside
    ``data_received`` or ``eof_received``, it hands the answer to its client
    connection, which relays it and goes on with the requests behind it; a
    failed exchange is handed over the same way, from whichever callback
    saw it fail.  Bytes or an end that arrive while no exchange is in flight
    mean the upstream closed the connection or broke step: the connection
    closes at once, so it is never used again."""

    transport: asyncio.Transport | None = None
    # The connect and each exchange must end by ``deadline``.  One timer
    # serves many exchanges: when it fires before the deadline of the
    # exchange then in flight, it is set again for that deadline.
    deadline = 0.0
    timer: asyncio.TimerHandle | None = None
    connecting: asyncio.Task | None = None
    method: str | None = None  # of the exchange in flight; None while idle
    reused = closed = eof = False
    # the final answer's head, once it is in: status, headers, whether the
    # connection can carry another exchange; then how its body is framed
    head: tuple[int, Headers, bool] | None = None
    length: int | None = None  # Content-Length; None: chunked, or until the end
    chunks: list[bytes] | None = None  # chunked: the chunks so far
    trailer = False  # chunked: the last chunk is in, the trailer fields follow

    def __init__(self, client: ClientConnection, method: str, request: bytes):
        self.client = client
        self.reads = client.gateway.reads
        self.buffer = bytearray()
        self.method, self.request = method, request

    def connect(self, host: str, port: int, tls: bool) -> None:
        """Opens the connection; the request given at construction goes out
        once it is made."""
        loop = asyncio.get_running_loop()
        self.connecting = loop.create_task(loop.create_connection(lambda: self, host, port, ssl=tls))
        self.connecting.add_done_callback(self._connected)
        self._time()

    def send(self, method: str, request: bytes) -> None:
        """Starts an exchange on the idle connection."""
        self.method, self.request, self.reused = method, request, True
        self.transport.write(request)
        self._time()

    @property
    def idle(self) -> bool:
        return self.method is None and not self.closed

    def close(self) -> None:
        """Closes the connection; no exchange on it is answered after this."""
        self.closed, self.client = True, None
        if self.timer is not None:
            self.timer.cancel()
        if self.connecting is not None:
            self.connecting.cancel()
        if self.transport is not None:
            self.transport.abort()

    # -- protocol callbacks --------------------------------------------------

    def _connected(self, task: asyncio.Task) -> None:
        self.connecting = None
        if not task.cancelled() and (exc := task.exception()) is not None and not self.closed:
            self._failed(exc)

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.closed:  # the client connection went away meanwhile
            transport.abort()
            return
        transport.write(self.request)
        self._time()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.reads

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.reads[:nbytes])

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.method is None:  # bytes nobody asked for
            self.close()
        else:
            self._take_answer()

    def eof_received(self) -> bool:
        self.eof = True
        if self.method is None:
            self.close()
        else:
            self._take_answer()
        return False  # the transport closes itself

    def connection_lost(self, exc: Exception | None) -> None:
        if self.closed:
            return
        if self.method is None:
            self.close()
        elif exc is not None:
            self._failed(exc)
        else:
            self.eof = True
            self._take_answer()

    def _time(self) -> None:
        """Gives the connect or the exchange that starts now UPSTREAM_TIMEOUT
        seconds."""
        loop = asyncio.get_running_loop()
        self.deadline = loop.time() + UPSTREAM_TIMEOUT
        if self.timer is None or self.timer.when() > self.deadline:
            if self.timer is not None:
                self.timer.cancel()
            self.timer = loop.call_at(self.deadline, self._expire)

    def _expire(self) -> None:
        self.timer = None
        if self.method is None:  # idle: the timer is set again by the next exchange
            return
        if (loop := asyncio.get_running_loop()).time() < self.deadline:
            self.timer = loop.call_at(self.deadline, self._expire)
            return
        self._failed(TimeoutError(f"no answer within {UPSTREAM_TIMEOUT} s"))

    # -- answers -------------------------------------------------------------

    def _take_answer(self) -> None:
        """Hands the final answer to the client connection once the buffer
        holds all of it, or the failure met framing it."""
        try:
            if (answer := self._frame()) is None:
                return
        except Exception as exc:  # ValueError, EOFError, or a fault that the one exit answers
            self._failed(exc)
            return
        status, headers, content, reusable = answer
        client = self.client
        self.method = self.head = self.chunks = None
        self.trailer = False
        if not reusable or self.buffer:  # bytes past the answer put the connection out of step
            self.close()
        client._relay(status, headers, content)

    def _failed(self, exc: Exception) -> None:
        """Hands the failure of the exchange in flight to the client
        connection, which may send it once more on a fresh connection."""
        client, method, request, reused = self.client, self.method, self.request, self.reused
        self.close()
        if reused and method in IDEMPOTENT_METHODS and isinstance(exc, (ConnectionError, EOFError, ValueError)):
            client._connect(method, request)
        else:
            client._unreachable(exc)

    def _frame(self) -> tuple[int, Headers, bytes | None, bool] | None:
        """The final answer once the buffer holds all of it: status, headers,
        body (None when the answer has none by rule), and whether the
        connection can carry another exchange.  None while bytes are due;
        raises ValueError for a malformed answer and EOFError for one that
        the end of the connection cut short."""
        buffer = self.buffer
        while self.head is None:  # interim 1xx answers precede the final one
            if (end := self._line_end(b"\r\n\r\n")) < 0:
                return None
            status_line, *lines = buffer[:end].decode("latin-1").split("\r\n")
            del buffer[: end + 4]
            if (match := _STATUS_LINE.fullmatch(status_line)) is None:
                raise ValueError(f"bad upstream status line {status_line!r}")
            status, headers = int(match[2]), Headers(lines)
            if status < 200:
                continue
            connection = headers.tokens("connection")
            reusable = "close" not in connection and (match[1] != "0" or "keep-alive" in connection)
            if self.method == "HEAD" or status in (204, 304):
                return status, headers, None, reusable
            if (codings := headers.tokens("transfer-encoding")) and codings[-1] == "chunked":
                self.chunks = []
            elif codings or (length := _content_length(headers)) is None:
                self.length, reusable = None, False  # the body ends with the connection
            else:
                self.length = length
            self.head = (status, headers, reusable)
        status, headers, reusable = self.head
        if self.chunks is not None:
            content = self._chunked()
        elif self.length is None:
            content = bytes(buffer) if self.eof else None
            if content is not None:
                buffer.clear()
        elif len(buffer) >= self.length:
            content = bytes(buffer[: self.length])
            del buffer[: self.length]
        elif self.eof:
            raise asyncio.IncompleteReadError(bytes(buffer), self.length)
        else:
            content = None
        return None if content is None else (status, headers, content, reusable)

    def _chunked(self) -> bytes | None:
        """A chunked body once it is all in, trailer fields dropped."""
        buffer, chunks = self.buffer, self.chunks
        while not self.trailer:
            if (end := self._line_end(b"\r\n")) < 0:
                return None
            size = bytes(buffer[:end]).partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ValueError(f"bad chunk size {size!r}")
            if not (length := int(size, 16)):
                del buffer[: end + 2]
                self.trailer = True
            elif len(buffer) < end + length + 4:
                if self.eof:
                    raise asyncio.IncompleteReadError(bytes(buffer[end + 2 :]), length + 2)
                return None
            elif buffer[end + length + 2 : end + length + 4] != b"\r\n":
                raise ValueError("chunk data not followed by CRLF")
            else:
                chunks.append(bytes(buffer[end + 2 : end + length + 2]))
                del buffer[: end + length + 4]
        while (end := self._line_end(b"\r\n")) >= 0:
            del buffer[: end + 2]
            if not end:  # the empty line after the trailer fields
                return b"".join(chunks)
        return None

    def _line_end(self, separator: bytes) -> int:
        """Where ``separator`` first starts in the buffer; -1 while it has not
        arrived.  A line or head over HEAD_LIMIT bytes raises ValueError, and
        the end of the connection before the separator EOFError."""
        buffer = self.buffer
        end = buffer.find(separator)
        if end > HEAD_LIMIT or end < 0 and len(buffer) - len(separator) >= HEAD_LIMIT:
            raise ValueError(f"upstream answer line or head over {HEAD_LIMIT} bytes")
        if end < 0 and self.eof:
            raise asyncio.IncompleteReadError(bytes(buffer), None)
        return end


class Gateway:
    """Holds the active (store, knowledge base, answer map) snapshot and the
    audit stream."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        store, kb = build_store(config.bundle)
        # One tuple attribute so readers always see a matched store and
        # knowledge base, and the answers made from that store alone.
        self._state: tuple[PolicyStore, KnowledgeBase, AnswerMap] = (store, kb, AnswerMap())
        self._swap_lock = threading.Lock()
        self._audit_lock = threading.Lock()
        config.audit_log.parent.mkdir(parents=True, exist_ok=True)
        self._audit_handle = open(config.audit_log, "a", encoding="utf-8")
        parts = urlsplit(config.upstream)
        tls = parts.scheme == "https"
        self.upstream_address = (parts.hostname, parts.port or (443 if tls else 80), tls)
        self.upstream_path = parts.path
        self.upstream_host = parts.netloc.rpartition("@")[2]
        self._listener: socket.socket | None = None
        self._connections: set[ClientConnection] = set()
        self._thread: threading.Thread | None = None
        self._stopping: Future | None = None  # set by stop(), from any thread
        # Every connection reads into this one buffer, and copies what it
        # read out at once, on the one loop thread: no read allocates.
        self.reads = memoryview(bytearray(READ_SIZE))

    # -- state ---------------------------------------------------------------

    def snapshot(self) -> tuple[PolicyStore, KnowledgeBase]:
        return self._state[:2]

    @property
    def version(self) -> int:
        return self._state[0].version

    def admin_load(self, slot: str, text: str) -> int:
        """Replace one document; revalidate everything; swap or reject whole.

        Returns the new store version.  Raises ActivationError with the full
        findings report when the candidate assembly does not validate; the
        active state stays active in that case.
        """
        if slot not in SLOTS:
            raise ActivationError([f"unknown admin slot {slot!r}"])
        with self._swap_lock:
            store, kb, _ = self._state
            docs = {**store.graphs, "purposes": store.purposes, "policy": store.policy, "registry": kb}
            try:
                docs[slot] = parse_document(slot, text, source="admin upload")
            except SacError as exc:
                raise ActivationError([str(exc)]) from exc
            findings, candidate = assemble(docs, store.trusted_soas, version=store.version + 1)
            if findings or candidate is None:
                raise ActivationError(findings or ["activation failed"])
            self._state = (candidate, docs["registry"], AnswerMap())
            return candidate.version

    # -- audit ---------------------------------------------------------------

    def audit(self, record: dict) -> None:
        """Append one record as the line _audit_line fills, and flush it.
        Raises TypeError, writing nothing, for a field the line does not know
        or one it lacks; OSError when the write fails; ValueError once stop()
        has closed the log."""
        line = _audit_line(**record)
        with self._audit_lock:
            self._audit_handle.write(line)
            self._audit_handle.flush()

    # -- server lifecycle ----------------------------------------------------

    def bind(self) -> int:
        """Bind the listen address, unless it is bound already; returns the
        bound port.  Raises OSError when the address cannot be bound."""
        if self._listener is None:
            self._listener = socket.create_server((self.config.listen_host, self.config.listen_port))
            self._stopping = Future()
        return self.bound_port

    def start(self) -> int:
        """Bind and serve on a background thread; returns the bound port."""
        port = self.bind()
        self._thread = threading.Thread(target=asyncio.run, args=(self._serve(),), daemon=True)
        self._thread.start()
        return port

    @property
    def bound_port(self) -> int:
        if self._listener is None:
            raise RuntimeError("gateway not started")
        return self._listener.getsockname()[1]

    def stop(self) -> None:
        if self._thread is not None:
            self._stop_serving()
            self._thread.join(timeout=5)
            self._thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._audit_handle.close()  # a record written after this raises, so its request fails closed

    def serve_forever(self) -> None:
        """Foreground variant used by the command line, on the main thread:
        it serves until SIGTERM or Ctrl-C."""
        try:
            self.bind()
            asyncio.run(self._serve())
        finally:
            self.stop()

    def _stop_serving(self) -> None:
        if not self._stopping.done():
            self._stopping.set_result(None)

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        if threading.current_thread() is threading.main_thread():
            loop.add_signal_handler(signal.SIGTERM, self._stop_serving)
        async with await loop.create_server(lambda: ClientConnection(self), sock=self._listener):
            await asyncio.wrap_future(self._stopping)
        for connection in list(self._connections):
            connection.transport.close()
        await asyncio.sleep(0)  # their connection_lost callbacks run and close their upstream connections
        # asyncio.run then joins the worker threads of the swaps in flight


class ClientConnection(asyncio.BufferedProtocol):
    """One client connection: it answers its requests in turn and owns its
    upstream connection.

    ``data_received`` frames each request from the connection's own buffer
    and answers it at once.  A Permit's forward and an admin swap are
    answered later, from a callback: the upstream connection's once the
    upstream has answered (``_relay``, ``_unreachable``), the swap's worker
    thread's once it is done (``_swapped``).  Meanwhile the connection is
    ``busy``, and the requests behind wait in the buffer.  Request handling
    stops while the transport's write buffer is full, and the input is
    paused while the buffer holds more than 2 × HEAD_LIMIT bytes that cannot
    be answered yet.  The attributes set in _take_request describe the
    request being answered."""

    method = target = ""
    headers: Headers
    body = b""
    body_error: RequestError | None = None
    close = audited = False
    started = 0.0
    transport: asyncio.Transport
    busy = False  # the current request is answered from a callback
    upstream: UpstreamConnection | None = None
    pending: tuple[int, int] | None = None  # body offset and length of a head taken
    scanned = 0  # buffer bytes already searched for the end of the next head
    eof = ended = reading_paused = False
    writable = True

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self.buffer = bytearray()

    # -- protocol callbacks --------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.gateway._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.ended = True
        self.gateway._connections.discard(self)
        if self.upstream is not None:
            self.upstream.close()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.gateway.reads

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.gateway.reads[:nbytes])

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self._serve()

    def eof_received(self) -> bool:
        self.eof = True
        self._serve()
        return True  # the transport stays open for the answers still due

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self._serve()

    # -- framing -------------------------------------------------------------

    def _serve(self) -> None:
        """Answers the buffered requests in order until one is answered from
        a callback, the write buffer fills, the connection is to close, or
        the next request's bytes have not all arrived."""
        while not self.busy and self.writable and not self.ended:
            try:
                if not self._take_request():
                    if self.eof:  # a head cut short by the client's end is not answered
                        self._end()
                    break
            except RequestError as exc:
                self.method, self.close = "", True
                self._send(exc.status, f"{exc}\n".encode())
                self._end()
                break
            self._answer()
            if self.close and not self.busy:
                self._end()
        if self.ended:
            return
        if (self.busy or not self.writable) and len(self.buffer) > 2 * HEAD_LIMIT:
            if not self.reading_paused:
                self.reading_paused = True
                self.transport.pause_reading()
        elif self.reading_paused:
            self.reading_paused = False
            self.transport.resume_reading()

    def _take_request(self) -> bool:
        """Takes the next request's head and body off the buffer; False
        while its bytes have not all arrived."""
        buffer = self.buffer
        if self.pending is None:
            # a head that arrives in pieces is searched once: only the new
            # bytes, and the 3 before them that may start its end
            scanned, self.scanned = self.scanned, len(buffer)
            end = buffer.find(b"\r\n\r\n", max(scanned - 3, 0))
            if end < 0:
                if len(buffer) - 3 > HEAD_LIMIT:
                    raise RequestError(431, f"request head over {HEAD_LIMIT} bytes")
                lf = buffer.find(b"\n", scanned)
                while lf >= 0:
                    if buffer[lf - 1 : lf] != b"\r":  # the CR may have come in an earlier read
                        raise RequestError(400, "request head lines must end in CRLF")
                    lf = buffer.find(b"\n", lf + 1)
                return False
            self.scanned = 0
            if end > HEAD_LIMIT:
                raise RequestError(431, f"request head over {HEAD_LIMIT} bytes")
            self.method, self.target, http10, self.headers = _parse_head(buffer[:end])
            connection = self.headers.tokens("connection")
            self.close = "close" in connection or (http10 and "keep-alive" not in connection)
            self.body, self.body_error = b"", None
            try:
                if self.headers.get_all("transfer-encoding"):
                    raise RequestError(411, "Transfer-Encoding is not accepted: send a Content-Length")
                length = _content_length(self.headers) or 0
                if length > BODY_LIMIT:
                    raise RequestError(413, f"request body over {BODY_LIMIT} bytes")
            except RequestError as exc:
                # the body's end is unknown: the connection closes after the answer
                self.body_error, self.close = exc, True
                return True
            if length and not http10 and self.headers.get("expect", "").lower() == "100-continue":
                self.transport.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.pending = (end + 4, length)
        start, length = self.pending
        if len(buffer) < start + length:
            if not self.eof:
                return False
            message = f"body ends after {len(buffer) - start} of {length} bytes"
            self.body_error, self.close = RequestError(400, message), True
        elif length:
            self.body = bytes(buffer[start : start + length])
        del buffer[: start + length]
        self.pending = None
        return True

    def _end(self) -> None:
        """Closes the connection once what was written is sent."""
        self.ended = True
        self.transport.close()

    # -- exits ---------------------------------------------------------------

    def _answer(self) -> None:
        """Routes one request.  This, or the callback that answers it later,
        is its only exit: whatever an endpoint raises becomes one answer."""
        self.started, self.audited = time.monotonic(), False
        try:
            try:
                try:
                    parts = urlsplit(self.target)
                except ValueError as exc:  # an unclosed "[", say: the client's error
                    self.close = True
                    raise RequestError(400, f"bad request target {self.target!r}: {exc}") from exc
                if self.method not in METHODS:
                    self._send(501, f"method {self.method} is not supported\n".encode())
                elif parts.path == "/pdp/decide" and self.method == "POST":
                    self._pdp_decide()
                elif parts.path == "/proxy" or parts.path.startswith("/proxy/"):
                    self._proxy(self.method, parts)
                else:
                    self._local(self.method, parts.path)
            except RequestError as exc:  # a refusal: answered and audited here, once
                self._audit(*exc.ids)
                self._send(exc.status, f"{exc}\n".encode())
        except Exception as exc:
            self._fail(exc)

    def _resume(self) -> None:
        """Goes on with the requests behind one answered from a callback."""
        self.busy = False
        if self.close and not self.ended:
            self._end()
        else:
            self._serve()

    def _fail(self, exc: Exception) -> None:
        """The answer to a request whose endpoint raised ``exc``."""
        self.close = True
        if isinstance(exc, AuditError):
            # fail closed: a decision that cannot be audited is not enforced
            self._send(503, b"audit log unavailable: request refused\n")
            return
        _log.error("%s %s failed", self.method, self.target, exc_info=exc)
        if not self.audited:
            try:
                self._audit(None, None, None, None)
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
        self.transport.write(head if body is None or self.method == "HEAD" else head + body)

    # -- endpoints -----------------------------------------------------------

    def _local(self, method: str, path: str) -> None:
        """Health, version and admin requests, and every 404.  The body was
        taken off the buffer with the head, used or not, so the next request
        on the connection starts where this one ends."""
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
        # a large store takes long to rebuild; decisions go on meanwhile
        self.busy = True
        swap = asyncio.get_running_loop().run_in_executor(None, self.gateway.admin_load, slot, text)
        swap.add_done_callback(self._swapped)

    def _swapped(self, swap: asyncio.Future) -> None:
        try:
            self._send_version(swap.result())
        except ActivationError as exc:
            self._send(422, ("\n".join(exc.findings) + "\n").encode())
        except Exception as exc:
            self._fail(exc)
        self._resume()

    def _pdp_decide(self) -> None:
        """Answers a wire request.  A body the active store answered before
        is answered from that store's answer map: audited again, but not
        parsed, resolved, decided or serialized.  A refusal is never kept."""
        body = self._body()
        store, kb, answers = self.gateway._state  # the one snapshot this request sees
        kept = answers.get(body)
        if kept is not None:
            outcome, response = kept
            self._decide(outcome)
        else:
            try:
                wire = parse_xacml_request(body)
            except (SacError, ValueError) as exc:
                raise RequestError(400, str(exc)) from exc
            decision, outcome = _judge(wire, store, kb)
            self._decide(outcome)
            response = serialize_xacml_response(response_doc_for(decision)).encode("utf-8")
            answers.keep(body, outcome, response)
        self._send(200, response, "application/xml", [("X-Decision", outcome.decision)])

    def _proxy(self, method: str, parts) -> None:
        """Decides a /proxy request, and forwards a Permit; a request that
        cannot be decided raises RequestError with every problem in it."""
        object_id = parts.path[len("/proxy/") :] if parts.path.startswith("/proxy/") else ""
        query = parse_qs(parts.query)
        purpose = (query.get("purpose") or [self.headers.get("x-purpose", "")])[0]
        subject_id = self.headers.get("x-subject", "anonymous")
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
            for raw in self.headers.get_all("x-attribute"):
                attrs.append(_parse_attribute_header(raw))
            for raw in self.headers.get_all("x-context"):
                key, value = _parse_context_header(raw)
                environment[key] = value
        except (SacError, ValueError) as exc:
            problems.append(str(exc))
            status = getattr(exc, "status", 400)  # a RequestError's framing status
        if problems:
            ids = (subject_id, object_id or None, action_id, purpose or None)
            raise RequestError(status, "\n".join(problems), ids)

        wire = XacmlRequestDoc(
            subject_id=subject_id,
            subject_attributes=tuple(attrs),
            resource_id=object_id,
            action_id=action_id,
            purpose_id=purpose,
            environment=environment,
        )
        store, kb, _ = self.gateway._state
        decision, outcome = _judge(wire, store, kb)
        self._decide(outcome)

        if decision.value is not DecisionValue.PERMIT:
            # masked refusals must be byte-exact "access denied", so no newline here
            self._send(
                403, explain(decision).encode(), extra=[("X-Decision", decision.value.value)]
            )
            return

        # the target is the decided object id as received, never re-normalised
        target = f"{self.gateway.upstream_path}/{object_id}"
        if parts.query:
            target += f"?{parts.query}"
        self._forward(method, target, body, _end_to_end(self.headers, NOT_FORWARDED))

    def _decide(self, outcome: Outcome) -> None:
        """The exit of a decided request: audits its Outcome, decided
        afresh or kept.  A write that fails raises AuditError."""
        self._audit(*outcome)

    # -- forwards ------------------------------------------------------------

    def _forward(self, method: str, target: str, body: bytes, fields: list) -> None:
        """Sends a Permitted request upstream, on the kept-alive connection
        when it is idle, else on a fresh one; the upstream connection answers
        it through _relay or _unreachable."""
        lines = [f"{method} {target} HTTP/1.1", f"Host: {self.gateway.upstream_host}", "Accept-Encoding: identity"]
        lines += [f"{name}: {value}" for name, value in fields]
        if body or method in ("POST", "PUT", "PATCH"):
            lines.append(f"Content-Length: {len(body)}")
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        self.busy = True
        if self.upstream is not None and self.upstream.idle:
            self.upstream.send(method, request)
        else:
            self._connect(method, request)

    def _connect(self, method: str, request: bytes) -> None:
        self.upstream = UpstreamConnection(self, method, request)
        self.upstream.connect(*self.gateway.upstream_address)

    def _relay(self, status: int, headers: Headers, content: bytes | None) -> None:
        """Answers the forwarded Permit with the upstream's answer."""
        try:
            self._send(status, content, None, _end_to_end(headers, NOT_RELAYED) + [("X-Decision", "Permit")])
        except Exception as exc:
            self._fail(exc)
        self._resume()

    def _unreachable(self, exc: Exception) -> None:
        """Answers the forwarded Permit whose exchange failed with ``exc``."""
        try:
            if isinstance(exc, (OSError, EOFError, ValueError)):
                self._send(502, f"upstream unreachable: {exc}\n".encode(), extra=[("X-Decision", "Permit")])
            else:
                self._fail(exc)
        except Exception as error:
            self._fail(error)
        self._resume()

    # -- audit records -------------------------------------------------------

    def _audit(
        self, subject, obj, action, purpose, decision="error", masked=False, matched_rule=None, conflicts=()
    ) -> None:
        """Write one audit record, the fields of an Outcome; without a
        decision, the request is recorded as an ``error`` (refused before it
        could be decided).  A write that fails raises AuditError."""
        record = {
            "subject": subject,
            "object": obj,
            "action": action,
            "purpose": purpose,
            "decision": decision,
            "masked": masked,
            "matched_rule": matched_rule,
            "conflicts": conflicts,
            "latency_ms": round((time.monotonic() - self.started) * 1000, 3),
            "ts": _timestamp(time.time_ns()),
        }
        try:
            self.gateway.audit(record)
        except (OSError, ValueError) as exc:  # ValueError: the log file is closed
            raise AuditError(str(exc)) from exc
        self.audited = True
