"""Gateway end-to-end: proxying, decision endpoint, admin reloads, audit."""

import asyncio
import collections
import gc
import json
import logging
import random
import re
import shutil
import socket
import statistics
import struct
import tempfile
import threading
import time
from operator import attrgetter
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EHEALTH, GOLDEN, write_gateway_conf
from randgen import TRUSTED, random_request_for, random_store
from sacpdp import ontology, pdp, service
from sacpdp.bundle import build_store, load_bundle
from sacpdp.cli import main
from sacpdp.errors import ConfigError
from sacpdp.ontology import load_ontology, serialize_ontology
from sacpdp.registry import KnowledgeBase, RegistryEntry, build_access_request, serialize_registry
from sacpdp.service import ClientConnection, Gateway, _parse_context_header, load_gateway_config
from sacpdp.xmlio import (
    XacmlRequestDoc,
    parse_xacml_request,
    parse_xacml_response,
    serialize_policy,
    serialize_purposes,
    serialize_xacml_request,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


CONSENT_ATOM = '<Condition attribute="consent" reference="given" type="Equals"/>'


def read_audit(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def raw_exchange(port, request: bytes) -> bytes:
    """Send raw bytes and read until the gateway closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def split_response(reply: bytes) -> tuple[str, list[tuple[str, str]], bytes]:
    """Status line, header fields in order, and the rest of one response."""
    head, _, rest = reply.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    return status_line, [tuple(v.strip() for v in line.split(":", 1)) for line in lines], rest


def statuses(reply: bytes) -> list[int]:
    """The status code of every response in a raw keep-alive exchange."""
    return [int(code) for code in re.findall(rb"^HTTP/1\.1 (\d{3}) ", reply, re.M)]


class KeepAlive:
    """One keep-alive TCP_NODELAY connection to the gateway that sends each
    request in one write and reads responses framed by Content-Length."""

    def __init__(self, port, timeout=5):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()

    def exchange(self, request: bytes) -> tuple[int, dict, bytes]:
        self.sock.sendall(request)
        return self.read()

    def read(self) -> tuple[int, dict, bytes]:
        """The next response."""
        status = int(self.reader.readline().split()[1])
        headers = {}
        while (line := self.reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, self.reader.read(int(headers.get("content-length", 0)))


DECIDE_BODY = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
DECIDE_HEAD = f"POST /pdp/decide HTTP/1.1\r\nHost: gw\r\nContent-Length: {len(DECIDE_BODY)}\r\n"


def permit_request(method="GET", target="records/jen?purpose=treat", extra="") -> bytes:
    """A proxy request that joan is permitted."""
    return (
        f"{method} /proxy/{target} HTTP/1.1\r\nHost: gw\r\nX-Subject: joan\r\n"
        f"X-Context: years_of_service=5; type=int\r\nContent-Length: 0\r\n{extra}\r\n"
    ).encode()


def closing_proxy_get(target: str, extra: str = "") -> bytes:
    """A GET of /proxy/{target} that asks the gateway to close after it."""
    return f"GET /proxy/{target} HTTP/1.1\r\nHost: gw\r\n{extra}Connection: close\r\n\r\n".encode()


def closing_decide(body: bytes) -> bytes:
    """A POST of ``body`` to /pdp/decide that asks the gateway to close after it."""
    return f"POST /pdp/decide HTTP/1.1\r\nHost: gw\r\nContent-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode() + body


def proxy_get(base, path, subject=None, purpose=None, headers=None, method="GET", **kw):
    h = dict(headers or {})
    if subject is not None:
        h["X-Subject"] = subject
    url = f"{base}/proxy/{path}"
    if purpose is not None:
        url += f"?purpose={purpose}"
    return requests.request(method, url, headers=h, timeout=10, **kw)


class TestPlumbing:
    def test_healthz(self, gateway):
        _, base, _, _ = gateway
        r = requests.get(f"{base}/healthz", timeout=10)
        assert r.status_code == 200
        assert r.text == "ok\n"

    def test_version_endpoint(self, gateway):
        _, base, _, _ = gateway
        r = requests.get(f"{base}/admin/version", timeout=10)
        assert r.status_code == 200
        assert r.json() == {"version": 1}

    def test_unknown_path_404(self, gateway):
        _, base, _, _ = gateway
        assert requests.get(f"{base}/nowhere", timeout=10).status_code == 404

    @pytest.mark.parametrize(
        "first, status",
        [
            ("GET /healthz", 200),
            ("GET /admin/version", 200),
            ("GET /nowhere", 404),
            ("PUT /admin/wardrobe", 404),
        ],
    )
    def test_unused_body_is_consumed(self, gateway, first, status):
        # a body no endpoint reads must not be parsed as the next request
        gw, _, _, _ = gateway
        body = b"GET /nowhere X"
        request = (
            f"{first} HTTP/1.1\r\nHost: gw\r\nContent-Length: {len(body)}\r\n\r\n".encode()
            + body
            + b"GET /admin/version HTTP/1.1\r\nHost: gw\r\nConnection: close\r\n\r\n"
        )
        reply = raw_exchange(gw.bound_port, request)
        assert statuses(reply) == [status, 200]
        assert reply.endswith(b'{"version": 1}\n')

    def test_no_delayed_ack_stall(self, gateway):
        # Nagle's algorithm holds a second send until the client's delayed
        # ACK, 40 ms or more; a response written in one send never waits
        gw, _, _, _ = gateway
        round_trips = []
        with KeepAlive(gw.bound_port) as client:
            for _ in range(20):
                started = time.perf_counter()
                status, _, _ = client.exchange(DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY)
                round_trips.append(time.perf_counter() - started)
                assert status == 200
        assert statistics.median(round_trips) < 0.020

    def test_expect_100_continue_answered_before_body(self, gateway):
        gw, _, _, _ = gateway
        with KeepAlive(gw.bound_port, timeout=2) as client:
            assert client.exchange(f"{DECIDE_HEAD}Expect: 100-continue\r\n\r\n".encode())[0] == 100
            status, headers, _ = client.exchange(DECIDE_BODY)
        assert (status, headers["x-decision"]) == (200, "Permit")

    @pytest.mark.parametrize(
        "target, audited",
        [
            ("POST /proxy/records/jen?purpose=treat", 1),
            ("POST /pdp/decide", 1),
            ("GET /healthz", 0),
            ("PUT /admin/policy", 0),
        ],
    )
    def test_transfer_encoding_411_closes(self, gateway, target, audited):
        # a chunked body is refused, and its chunks never become a request
        gw, base, stub, audit_path = gateway
        request = (
            f"{target} HTTP/1.1\r\nHost: gw\r\nX-Subject: joan\r\n"
            "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
            "GET /admin/version HTTP/1.1\r\nHost: gw\r\n\r\n"
        )
        reply = raw_exchange(gw.bound_port, request.encode())
        assert statuses(reply) == [411]
        assert "Connection: close" in reply.partition(b"\r\n\r\n")[0].decode().split("\r\n")
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"] * audited
        assert stub.hit_count == 0
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}


    @pytest.mark.parametrize("length", [str(service.BODY_LIMIT + 1), "9" * 5000])
    @pytest.mark.parametrize(
        "target, audited",
        [
            ("POST /proxy/records/jen?purpose=treat", 1),
            ("POST /pdp/decide", 1),
            ("GET /healthz", 0),
            ("PUT /admin/policy", 0),
        ],
    )
    def test_body_over_limit_413_from_the_head(self, gateway, target, audited, length):
        # only the head is sent: the answer cannot wait for the body
        gw, base, stub, audit_path = gateway
        request = f"{target} HTTP/1.1\r\nHost: gw\r\nX-Subject: joan\r\nContent-Length: {length}\r\n\r\n"
        reply = raw_exchange(gw.bound_port, request.encode())
        assert statuses(reply) == [413]
        assert "Connection: close" in reply.partition(b"\r\n\r\n")[0].decode().split("\r\n")
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"] * audited
        assert stub.hit_count == 0
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}

    def test_body_at_limit_is_read(self, gateway):
        gw, _, _, _ = gateway
        body = b"x" * service.BODY_LIMIT
        with KeepAlive(gw.bound_port) as client:
            head = f"GET /healthz HTTP/1.1\r\nHost: gw\r\nContent-Length: {len(body)}\r\n\r\n"
            assert client.exchange(head.encode() + body)[0] == 200
            assert client.exchange(b"GET /admin/version HTTP/1.1\r\nHost: gw\r\n\r\n")[0] == 200


class TestProxyDecisions:
    def test_permit_relays_upstream(self, gateway):
        _, base, stub, _ = gateway
        r = proxy_get(
            base,
            "records/jen",
            subject="joan",
            purpose="treat",
            headers={"X-Context": "years_of_service=5; type=int"},
        )
        assert r.status_code == 200
        assert r.headers["X-Decision"] == "Permit"
        assert r.json()["upstream"] is True
        assert stub.hit_count == 1
        assert stub.hits[0][1].startswith("/records/jen")

    def test_masked_deny_is_opaque(self, gateway):
        _, base, stub, _ = gateway
        r = proxy_get(
            base,
            "records/jen",
            subject="joan",
            purpose="treat",
            headers={"X-Context": "years_of_service=2; type=int"},
        )
        assert r.status_code == 403
        assert r.headers["X-Decision"] == "Deny"
        assert r.text == "access denied"
        assert stub.hit_count == 0

    def test_masked_indeterminate(self, gateway):
        _, base, _, _ = gateway
        r = proxy_get(base, "records/jen", subject="joan", purpose="treat")
        assert r.status_code == 403
        assert r.headers["X-Decision"] == "Indeterminate"
        assert r.text == "access denied"

    def test_not_applicable_is_explained(self, gateway):
        _, base, _, _ = gateway
        r = proxy_get(base, "records/jen", subject="zoe", purpose="treat")
        assert r.status_code == 403
        assert r.headers["X-Decision"] == "NotApplicable"
        assert "no applicable rules" in r.text

    def test_public_deny_is_explained(self, gateway):
        _, base, _, _ = gateway
        r = proxy_get(
            base,
            "records/jen_email",
            subject="joan",
            purpose="treat",
            headers={"X-Context": "consent=refused"},
        )
        assert r.status_code == 403
        assert r.headers["X-Decision"] == "Deny"
        assert "decision: Deny" in r.text
        assert "Consulting_email_access" in r.text

    def test_purpose_via_header(self, gateway):
        _, base, stub, _ = gateway
        r = proxy_get(
            base,
            "records/jen",
            subject="joan",
            headers={"X-Purpose": "treat", "X-Context": "years_of_service=5; type=int"},
        )
        assert r.status_code == 200
        assert stub.hit_count == 1

    def test_presented_attribute_header(self, gateway):
        _, base, stub, _ = gateway
        # unregistered subject, but carrying a certificate the wildcard rule accepts
        r = proxy_get(
            base,
            "anything/at/all",
            subject="visitor",
            purpose="general",
            headers={"X-Attribute": "doctor; soa=hospital_ADMIN; e=enabled"},
        )
        assert r.status_code == 200
        assert r.headers["X-Decision"] == "Permit"
        assert stub.hit_count == 1

    def test_method_maps_to_action(self, gateway):
        gw, base, stub, audit_path = gateway
        r = proxy_get(base, "records/jen", subject="joan", purpose="treat", method="DELETE")
        # only the certificate rule matches a delete action, and joan carries one
        assert r.status_code == 200
        assert stub.hits[0][0] == "DELETE"
        record = read_audit(audit_path)[-1]
        assert record["action"] == "delete"
        assert record["matched_rule"] == "Auth_doctors"

    def test_body_forwarded_on_permit(self, gateway):
        _, base, stub, _ = gateway
        r = proxy_get(
            base,
            "records/jen",
            subject="joan",
            purpose="treat",
            method="POST",
            data=b"payload-bytes",
        )
        assert r.status_code == 200
        assert stub.hits[0][0] == "POST"
        assert stub.hits[0][2] == b"payload-bytes"


class TestUpstreamConnection:
    def test_one_upstream_connection_per_client_connection(self, gateway):
        gw, _, stub, _ = gateway
        with KeepAlive(gw.bound_port) as client:
            for _ in range(5):
                assert client.exchange(permit_request())[0] == 200
        assert (stub.hit_count, stub.connections) == (5, 1)

    def test_permits_on_an_open_connection_schedule_nothing(self, gateway, monkeypatch):
        # the upstream connection relays each answer from its own data_received:
        # a Permit on it runs no task, future, callback or timer of its own
        gw, _, stub, _ = gateway
        scheduled = collections.Counter()
        for name in ("create_task", "create_future", "call_soon", "call_at"):
            original = getattr(asyncio.base_events.BaseEventLoop, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                scheduled[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(asyncio.base_events.BaseEventLoop, name, counted)
        with KeepAlive(gw.bound_port) as client:
            assert client.exchange(permit_request())[0] == 200  # the upstream connection opens
            scheduled.clear()
            answers = [client.exchange(permit_request())[0] for _ in range(20)]
            seen = dict(scheduled)
        assert (answers, seen) == ([200] * 20, {})
        assert (stub.hit_count, stub.connections) == (21, 1)

    def test_upstream_that_closes_gets_one_hit_per_permit(self, gateway_for):
        gw, _, stub, _ = gateway_for(close=True)
        with KeepAlive(gw.bound_port) as client:
            for _ in range(5):
                assert client.exchange(permit_request())[0] == 200
        assert (stub.hit_count, stub.connections) == (5, 5)

    def test_connection_closed_by_upstream_is_replaced(self, gateway_for):
        # a POST is never retried, so it must not be sent on a connection
        # the upstream has already closed
        gw, _, stub, _ = gateway_for(hang_up=True)
        with KeepAlive(gw.bound_port) as client:
            assert client.exchange(permit_request("POST"))[0] == 200
            deadline = time.monotonic() + 5
            while stub.closed < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.exchange(permit_request("POST"))[0] == 200
        assert (stub.hit_count, stub.connections) == (2, 2)

    def test_unsolicited_bytes_on_idle_connection_replace_it(self, gateway_for):
        # bytes that arrive while no exchange is in flight put the connection
        # out of step; a POST is never retried, so it must go on a fresh one
        stale = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nstale"
        gw, _, stub, _ = gateway_for(unsolicited=stale)
        with KeepAlive(gw.bound_port) as client:
            assert client.exchange(permit_request("POST"))[0] == 200
            assert stub.unsolicited_sent.wait(timeout=5)
            time.sleep(0.1)  # they reach the gateway
            status, _, body = client.exchange(permit_request("POST"))
            assert (status, json.loads(body)["upstream"]) == (200, True)
        assert (stub.hit_count, stub.connections) == (2, 2)

    @pytest.mark.parametrize(
        "method, answers, hits, connections",
        [("GET", [200, 200], 3, 2), ("POST", [200, 502], 2, 1)],
    )
    def test_dropped_connection_retried_only_when_idempotent(
        self, gateway_for, method, answers, hits, connections
    ):
        # the stub reads the second request on a connection, then drops it
        gw, _, stub, _ = gateway_for(drop_reused=True)
        with KeepAlive(gw.bound_port) as client:
            got = [client.exchange(permit_request(method))[0] for _ in answers]
        assert got == answers
        assert [hit[0] for hit in stub.hits] == [method] * hits
        assert stub.connections == connections

    def test_forwards_exactly_what_was_decided(self, gateway):
        gw, _, stub, _ = gateway
        request = (
            "GET /proxy/any/j%65n/%2e%2ex?purpose=general&q=a%2Fb HTTP/1.1\r\nHost: gw\r\n"
            "X-Subject: visitor\r\nX-Attribute: doctor; soa=hospital_ADMIN; e=enabled\r\n"
            "X-Context: consent=given\r\nConnection: keep-alive, X-Hop\r\nX-Hop: 1\r\n"
            "Keep-Alive: timeout=5\r\nTE: trailers\r\nTrailer: X-Sum\r\nUpgrade: h2c\r\n"
            "Proxy-Connection: keep-alive\r\nAccept-Encoding: gzip\r\n"
            "X-Kept: one\r\nX-Kept: two\r\n\r\n"
        )
        with KeepAlive(gw.bound_port) as client:
            assert client.exchange(request.encode())[0] == 200
        (_, path, _, headers), = stub.hits
        assert path == "/any/j%65n/%2e%2ex?purpose=general&q=a%2Fb"
        dropped = ["X-Subject", "X-Attribute", "X-Context", "Connection", "X-Hop", "Keep-Alive",
                   "TE", "Trailer", "Upgrade", "Proxy-Connection", "Transfer-Encoding"]
        assert [name for name in dropped if name in headers] == []
        assert headers.get_all("X-Kept") == ["one", "two"]
        assert headers["Accept-Encoding"] == "identity"
        assert headers["Host"] == f"127.0.0.1:{stub.port}"

    @pytest.mark.parametrize(
        "upstream", ["ftp://127.0.0.1:9000", "127.0.0.1:9000", "http://", "http://127.0.0.1:port", "http://[::1"]
    )
    def test_upstream_must_be_http_url(self, tmp_path, upstream):
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        text = conf.read_text().replace("upstream = http://127.0.0.1:9", f"upstream = {upstream}")
        conf.write_text(text)
        with pytest.raises(ConfigError, match="upstream"):
            load_gateway_config(conf)

    @pytest.mark.parametrize(
        "listen, address",
        [
            ("[::1]:0", ("::1", 0)),
            ("127.0.0.1", ("127.0.0.1", 8080)),
            (":8080", None),
            ("h:abc", None),
            ("h:1:2", None),
            ("[::1", None),
            ("127.0.0.1:0/x", None),
            ("127.0.0.1:0?x", None),
            ("127.0.0.1:0#x", None),
            ("u@127.0.0.1:0", None),
        ],
    )
    def test_listen_address(self, tmp_path, listen, address):
        # host[:port], an IPv6 host in brackets; nothing is bound here
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        conf.write_text(conf.read_text().replace("listen = 127.0.0.1:0", f"listen = {listen}"))
        if address is None:
            with pytest.raises(ConfigError, match=re.escape(repr(listen))):
                load_gateway_config(conf)
        else:
            config = load_gateway_config(conf)
            assert (config.listen_host, config.listen_port) == address

    @pytest.mark.parametrize("line", ["", "audit_log =\n"], ids=["missing", "empty"])
    def test_audit_log_required(self, tmp_path, capsys, line):
        # a gateway that would enforce decisions with no record of them never starts
        conf = write_gateway_conf(tmp_path, upstream_port=9)
        conf.write_text(re.sub(r"audit_log = .*\n", line, conf.read_text()))
        with pytest.raises(ConfigError, match="no audit_log"):
            load_gateway_config(conf)
        assert main(["serve", str(conf)]) == 2
        assert "no audit_log" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [conf]


class TestProxyErrors:
    @pytest.mark.parametrize(
        "object_id", ["x/../records/jen", "records/./jen", "x/%2E%2e/records/jen", "records/jen/%2e"]
    )
    def test_dot_segment_400(self, gateway, object_id):
        gw, _, stub, audit_path = gateway
        request = permit_request(target=f"{object_id}?purpose=treat", extra="Connection: close\r\n")
        reply = raw_exchange(gw.bound_port, request)
        assert statuses(reply) == [400]
        assert b"dot segment" in reply
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]
        assert stub.hit_count == 0

    def test_missing_purpose_400(self, gateway):
        _, base, _, audit_path = gateway
        r = proxy_get(base, "records/jen", subject="joan")
        assert r.status_code == 400
        assert "purpose" in r.text
        assert read_audit(audit_path)[-1]["decision"] == "error"

    def test_unknown_purpose_400(self, gateway):
        _, base, _, _ = gateway
        r = proxy_get(base, "records/jen", subject="joan", purpose="bake")
        assert r.status_code == 400
        assert "bake" in r.text

    def test_empty_object_400(self, gateway):
        _, base, _, _ = gateway
        r = requests.get(f"{base}/proxy/?purpose=treat", timeout=10)
        assert r.status_code == 400

    @pytest.mark.parametrize(
        "header, message",
        [
            ("garbage-without-equals", "context header needs key=value: 'garbage-without-equals'"),
            ("years_of_service=five; type=int", "not an int: 'five'"),
            ("years_of_service=5,5; type=decimal", "not a decimal: '5,5'"),
            ("urgent=yes; type=bool", "not a bool: 'yes'"),
            ("years_of_service=5; type=integer", "unknown valueType 'integer'"),
        ],
        ids=["garbage", "int", "decimal", "bool", "type"],
    )
    def test_bad_context_header_400(self, gateway, header, message):
        _, base, stub, audit_path = gateway
        r = proxy_get(
            base, "records/jen", subject="joan", purpose="treat", headers={"X-Context": header}
        )
        assert r.status_code == 400
        assert r.text == message + "\n"
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]
        assert stub.hit_count == 0

    @pytest.mark.parametrize(
        "header, value",
        [
            ("n=5; type=int", 5),
            ("w=72.5; type=decimal", 72.5),
            ("urgent=true; type=bool", True),
            ("consent=given", "given"),
        ],
    )
    def test_context_header_values_typed(self, header, value):
        parsed = _parse_context_header(header)[1]
        assert (type(parsed), parsed) == (type(value), value)

    def test_typed_context_headers_decided(self, gateway):
        gw, _, stub, audit_path = gateway
        request = (
            "GET /proxy/records/jen?purpose=treat HTTP/1.1\r\nHost: gw\r\nX-Subject: joan\r\n"
            "X-Context: years_of_service=5; type=int\r\n"
            "X-Context: urgent=true; type=bool\r\n"
            "X-Context: weight=72.5; type=decimal\r\n"
            "Connection: close\r\n\r\n"
        )
        reply = raw_exchange(gw.bound_port, request.encode())
        assert statuses(reply) == [200]
        assert [record["decision"] for record in read_audit(audit_path)] == ["Permit"]
        assert stub.hit_count == 1

    def test_bad_attribute_header_400(self, gateway):
        _, base, _, _ = gateway
        r = proxy_get(
            base, "records/jen", subject="joan", purpose="treat",
            headers={"X-Attribute": "; soa=x"},
        )
        assert r.status_code == 400

    def test_upstream_down_502(self, tmp_path):
        conf = write_gateway_conf(tmp_path, upstream_port=1)
        gw = Gateway(load_gateway_config(conf))
        base = f"http://127.0.0.1:{gw.start()}"
        try:
            r = proxy_get(
                base,
                "records/jen",
                subject="joan",
                purpose="treat",
                headers={"X-Context": "years_of_service=5; type=int"},
            )
            assert r.status_code == 502
            assert r.headers["X-Decision"] == "Permit"
            assert "upstream unreachable" in r.text
        finally:
            gw.stop()


class TestDecideEndpoint:
    def test_golden_response_bytes(self, gateway):
        _, base, _, _ = gateway
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        r = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert r.status_code == 200
        assert r.headers["X-Decision"] == "Permit"
        assert r.headers["Content-Type"] == "application/xml"
        golden = (GOLDEN / "decide_response_01.xml").read_bytes()
        assert r.content == golden

    def test_masked_wire_response(self, gateway):
        _, base, _, _ = gateway
        body = (EHEALTH / "requests" / "02_too_few_years.xml").read_bytes()
        r = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert r.status_code == 200
        assert r.headers["X-Decision"] == "Deny"
        doc = parse_xacml_response(r.text)
        assert doc.decision == "Deny"
        assert doc.status == "access denied"
        assert doc.rule is None
        assert doc.trace == ()
        assert "Read_patient_records" not in r.text

    def test_not_applicable_wire_response(self, gateway):
        _, base, _, _ = gateway
        body = (EHEALTH / "requests" / "04_unknown_subject.xml").read_bytes()
        r = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert r.headers["X-Decision"] == "NotApplicable"
        assert parse_xacml_response(r.text).decision == "NotApplicable"

    def test_malformed_request_400(self, gateway):
        _, base, _, audit_path = gateway
        r = requests.post(f"{base}/pdp/decide", data=b"<request><broken", timeout=10)
        assert r.status_code == 400
        assert read_audit(audit_path)[-1]["decision"] == "error"

    def test_invalid_utf8_400_audited_once(self, gateway):
        _, base, _, audit_path = gateway
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        body = body.replace(b'"joan"', b'"jo\xffan"')
        r = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert r.status_code == 400
        assert "not valid UTF-8" in r.text
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                '<request><subject id="joan"/><subject id="mallory"><bogus/></subject>'
                '<resource id="records/jen"/><action id="read"/><purpose id="treat"/>'
                "<environment/></request>",
                "<request> has more than one <subject> (line 1, column 29)",
            ),
            (
                '<request><subject id="joan"/><resource id="records/jen"><x/></resource>'
                '<action id="read"/><purpose id="treat"/><environment/></request>',
                "unexpected element <x> in <resource> (line 1, column 56)",
            ),
        ],
        ids=["repeated-category", "stray-child"],
    )
    def test_request_shape_400_audited_once(self, gateway, body, message):
        _, base, _, audit_path = gateway
        r = requests.post(f"{base}/pdp/decide", data=body.encode(), timeout=10)
        assert (r.status_code, r.text) == (400, message + "\n")
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]

    def test_deeply_nested_request_400_audited_once(self, gateway):
        _, base, _, audit_path = gateway
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_text(encoding="utf-8")
        body = body.replace("<request>", "<request>" + "<x>" * 5000 + "</x>" * 5000)
        r = requests.post(f"{base}/pdp/decide", data=body.encode(), timeout=10)
        assert (r.status_code, r.text) == (400, "unexpected element <x> in <request> (line 2, column 9)\n")
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]

    def test_unknown_purpose_400(self, gateway):
        _, base, _, _ = gateway
        body = (
            '<request><subject id="joan"/><resource id="records/jen"/>'
            '<action id="read"/><purpose id="bake"/><environment/></request>'
        )
        r = requests.post(f"{base}/pdp/decide", data=body.encode(), timeout=10)
        assert r.status_code == 400


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "-1"])
    @pytest.mark.parametrize(
        "target", ["POST /pdp/decide", "GET /proxy/records/jen?purpose=treat"]
    )
    def test_bad_length_400_closes_and_audits_once(self, gateway, target, length):
        gw, _, stub, audit_path = gateway
        before = len(read_audit(audit_path))
        request = (
            f"{target} HTTP/1.1\r\nHost: gw\r\nX-Subject: joan\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        reply = raw_exchange(gw.bound_port, request.encode("latin-1"))
        head = reply.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
        assert head[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in head
        records = read_audit(audit_path)
        assert len(records) == before + 1
        assert records[-1]["decision"] == "error"
        assert stub.hit_count == 0

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_length_on_admin_upload_400(self, gateway, length):
        gw, base, _, audit_path = gateway
        request = f"PUT /admin/policy HTTP/1.1\r\nHost: gw\r\nContent-Length: {length}\r\n\r\n"
        reply = raw_exchange(gw.bound_port, request.encode("latin-1"))
        head = reply.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
        assert head[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in head
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}

    @pytest.mark.parametrize("target", ["GET /healthz", "GET /nowhere"])
    def test_bad_length_on_unread_body_400(self, gateway, target):
        gw, _, _, _ = gateway
        request = f"{target} HTTP/1.1\r\nHost: gw\r\nContent-Length: abc\r\n\r\n"
        reply = raw_exchange(gw.bound_port, request.encode("latin-1"))
        head = reply.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
        assert head[0] == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in head


class TestAdminReload:
    def test_policy_swap_bumps_version(self, gateway):
        _, base, _, _ = gateway
        gate_policy = (GOLDEN / "certificate_gate_policy.xml").read_bytes()
        r = requests.put(f"{base}/admin/policy", data=gate_policy, timeout=10)
        assert r.status_code == 200
        assert r.json() == {"version": 2}
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 2}
        # under the one-rule policy, joan's certificate still earns a Permit
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        d = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert d.headers["X-Decision"] == "Permit"
        doc = parse_xacml_response(d.text)
        assert doc.rule == "Auth_doctors"
        assert "store version 2" in doc.trace

    def test_invalid_policy_rejected_atomically(self, gateway):
        _, base, _, _ = gateway
        r = requests.put(f"{base}/admin/policy", data=b"<spl:policy><broken", timeout=10)
        assert r.status_code == 422
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        d = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert d.headers["X-Decision"] == "Permit"  # old store still active

    def test_semantic_breakage_reported(self, gateway):
        _, base, _, _ = gateway
        # an attribute ontology without the policy's condition attributes
        bare = serialize_ontology(
            load_ontology('<ontology kind="AtO"><concept id="attribute"/></ontology>')
        )
        r = requests.put(f"{base}/admin/ontology/AtO", data=bare.encode(), timeout=10)
        assert r.status_code == 422
        findings = r.text.strip().splitlines()
        assert len(findings) >= 3  # every broken rule reported, not just the first
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}

    def test_ontology_kind_mismatch_rejected(self, gateway):
        _, base, _, _ = gateway
        oo = (EHEALTH / "ehealth_oo.xml").read_bytes()
        r = requests.put(f"{base}/admin/ontology/SO", data=oo, timeout=10)
        assert r.status_code == 422
        assert "declared kind OO, expected SO" in r.text

    def test_registry_swap(self, gateway):
        _, base, _, _ = gateway
        registry = (EHEALTH / "ehealth_registry.xml").read_bytes()
        r = requests.put(f"{base}/admin/registry", data=registry, timeout=10)
        assert r.status_code == 200
        assert r.json() == {"version": 2}

    def test_purposes_swap_revalidates_rules(self, gateway):
        _, base, _, _ = gateway
        # a tree without "treat"/"research" breaks two rules
        r = requests.put(
            f"{base}/admin/purposes",
            data=b'<purposes><purpose id="general"/></purposes>',
            timeout=10,
        )
        assert r.status_code == 422
        assert "treat" in r.text

    def test_policy_only_swaps_keep_graph_sets(self, gateway, monkeypatch):
        # the SO, OO, AO and AtO sets follow from those graphs alone
        gw, _, _, _ = gateway
        built = []
        derived_sets = ontology._derived_sets
        monkeypatch.setattr(
            ontology, "_derived_sets", lambda kind, *args: built.append(kind) or derived_sets(kind, *args)
        )
        before, _ = gw.snapshot()
        for slot, document in (
            ("policy", "ehealth_policy.xml"),
            ("purposes", "ehealth_purposes.xml"),
            ("registry", "ehealth_registry.xml"),
        ):
            gw.admin_load(slot, (EHEALTH / document).read_text(encoding="utf-8"))
        after, _ = gw.snapshot()
        assert built == []
        assert all(after.graphs[kind] is before.graphs[kind] for kind in ontology.ONTOLOGY_KINDS)
        gw.admin_load("SO", (EHEALTH / "ehealth_so.xml").read_text(encoding="utf-8"))
        assert built == ["SO"]
        assert gw.version == 5

    def test_each_swap_builds_only_its_own_graph_sets(self, gateway, monkeypatch):
        # a graph's ancestor, rights and component sets are built with it, so
        # a swap builds those of the graph it uploads and keeps every other
        # graph, sets and all
        gw, _, _, _ = gateway
        built = []
        derived_sets = ontology._derived_sets
        monkeypatch.setattr(
            ontology, "_derived_sets", lambda kind, *args: built.append(kind) or derived_sets(kind, *args)
        )
        for slot, document, rebuilt in (
            ("policy", "ehealth_policy.xml", []),
            ("purposes", "ehealth_purposes.xml", []),
            ("registry", "ehealth_registry.xml", []),
            ("AtO", "ehealth_ato.xml", ["AtO"]),
            ("SO", "ehealth_so.xml", ["SO"]),
        ):
            before, _ = gw.snapshot()
            built.clear()
            gw.admin_load(slot, (EHEALTH / document).read_text(encoding="utf-8"))
            after, _ = gw.snapshot()
            assert built == rebuilt, slot
            for kind in ontology.ONTOLOGY_KINDS:
                old, new = before.graphs[kind], after.graphs[kind]
                assert (new is old) == (kind not in rebuilt), (slot, kind)
                # the same document builds the same sets afresh
                assert (new.ancestors, new.rights, new.components) == (old.ancestors, old.rights, old.components)
        assert gw.version == 6

    def test_policy_swap_decides_as_a_fresh_store(self, gateway, tmp_path):
        gw, _, _, _ = gateway
        policy = (EHEALTH / "ehealth_policy.xml").read_text(encoding="utf-8")
        policy = policy.replace('Priority="9" Public="false"', 'Priority="1" Public="true"')
        gw.admin_load("policy", policy)
        bundle = tmp_path / "bundle"
        shutil.copytree(EHEALTH, bundle)
        (bundle / "ehealth_policy.xml").write_text(policy, encoding="utf-8")
        fresh, kb = build_store(load_bundle(bundle))
        swapped, _ = gw.snapshot()
        rng = random.Random(11)
        requests_ = [
            build_access_request(parse_xacml_request(path.read_bytes()), kb, fresh)[0]
            for path in sorted((EHEALTH / "requests").glob("*.xml"))
        ]
        requests_ += [random_request_for(rng, fresh) for _ in range(300)]
        for request in requests_:
            got, want = pdp.decide(swapped, request), pdp.decide(fresh, request)
            assert got.explanation[0] == "store version 2"
            assert (got.value, got.granted_right, got.matched_rule, got.masked, got.explanation[1:]) == (
                want.value, want.granted_right, want.matched_rule, want.masked, want.explanation[1:]
            )

    @pytest.mark.parametrize(
        "slot, document, nest, message",
        [
            (
                "ontology/SO",
                "ehealth_so.xml",
                lambda text: text.replace('<ontology kind="SO">', '<ontology kind="SO">' + "<x>" * 5000 + "</x>" * 5000),
                "unexpected element <x> in ontology document (line 2, column 20)",
            ),
            (
                "policy",
                "ehealth_policy.xml",
                lambda text: text.replace(
                    CONSENT_ATOM, '<Condition type="And">' * 599 + CONSENT_ATOM + "</Condition>" * 599
                ),
                "<Condition> is nested deeper than 32 levels (line 21, column 710)",
            ),
        ],
        ids=["ontology", "policy"],
    )
    def test_deeply_nested_upload_rejected(self, gateway, slot, document, nest, message):
        _, base, _, audit_path = gateway
        text = nest((EHEALTH / document).read_text(encoding="utf-8"))
        r = requests.put(f"{base}/admin/{slot}", data=text.encode(), timeout=10)
        assert (r.status_code, r.text) == (422, message + "\n")
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}
        assert read_audit(audit_path) == []
        body = (EHEALTH / "requests" / "05_email_with_consent.xml").read_bytes()
        d = requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        assert (d.status_code, d.headers["X-Decision"]) == (200, "Permit")

    def test_unknown_slot_404(self, gateway):
        _, base, _, _ = gateway
        r = requests.put(f"{base}/admin/wardrobe", data=b"x", timeout=10)
        assert r.status_code == 404

    @pytest.mark.parametrize(
        "path, document",
        [("/admin/SO", "ehealth_so.xml"), ("/admin/ontology/policy", "ehealth_policy.xml")],
    )
    def test_undocumented_admin_paths_404(self, gateway, path, document):
        # only the documented paths exist, even for a document that would load
        _, base, _, _ = gateway
        r = requests.put(f"{base}{path}", data=(EHEALTH / document).read_bytes(), timeout=10)
        assert r.status_code == 404
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}


class TestAuditLog:
    def test_records_fields_and_masking(self, gateway):
        _, base, stub, audit_path = gateway
        proxy_get(base, "records/jen", subject="joan", purpose="treat",
                  headers={"X-Context": "years_of_service=5; type=int"})
        proxy_get(base, "records/jen", subject="joan", purpose="treat",
                  headers={"X-Context": "years_of_service=2; type=int"})
        proxy_get(base, "records/jen", subject="joan")  # missing purpose -> error
        records = read_audit(audit_path)
        assert len(records) == 3
        permit, deny, error = records
        for record in (permit, deny, error):
            for key in ("ts", "subject", "object", "action", "purpose",
                        "decision", "masked", "matched_rule", "latency_ms"):
                assert key in record, key
        assert permit["decision"] == "Permit"
        assert permit["matched_rule"] == "Read_patient_records"
        assert permit["masked"] is False
        assert deny["decision"] == "Deny"
        assert deny["masked"] is True
        assert deny["matched_rule"] is None  # masked records never name the rule
        assert error["decision"] == "error"

    def test_lines_keep_sorted_key_order(self, gw_with_conflict):
        # each line reads as json.dumps(record, sort_keys=True) writes it,
        # the conflicts key included
        lines = gw_with_conflict.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert [line == json.dumps(json.loads(line), sort_keys=True) for line in lines] == [True] * 3
        assert "conflicts" in json.loads(lines[1])

    @pytest.fixture
    def gw_with_conflict(self, gateway):
        """An audit log of a Permit, a decision with a registry conflict, and
        an error."""
        _, base, _, audit_path = gateway
        registry = (EHEALTH / "ehealth_registry.xml").read_text(encoding="utf-8")
        valued = '<attribute name="years_of_service" soa="hospital_ADMIN" type="int" value="10"/>'
        registry = registry.replace('<subject id="joan">', f'<subject id="joan">{valued}', 1)
        assert requests.put(f"{base}/admin/registry", data=registry.encode(), timeout=10).status_code == 200
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        requests.post(f"{base}/pdp/decide", data=body.replace(b'id="joan"', b'id="harrison"'), timeout=10)
        requests.post(f"{base}/pdp/decide", data=body, timeout=10)  # says 5 years
        requests.post(f"{base}/pdp/decide", data=b"<request/>", timeout=10)
        return audit_path

    def test_permit_count_matches_upstream_hits(self, gateway):
        _, base, stub, audit_path = gateway
        cases = [
            {"X-Context": "years_of_service=5; type=int"},  # Permit
            {"X-Context": "years_of_service=2; type=int"},  # Deny
            {},                                             # Indeterminate
            {"X-Context": "years_of_service=9; type=int"},  # Permit
        ]
        for headers in cases:
            proxy_get(base, "records/jen", subject="joan", purpose="treat", headers=headers)
        proxy_get(base, "records/jen", subject="zoe", purpose="treat")  # NotApplicable
        records = read_audit(audit_path)
        permits = [r for r in records if r["decision"] == "Permit"]
        assert len(records) == 5
        assert len(permits) == 2
        assert stub.hit_count == len(permits)

    DECISION_RECORD = {
        "subject": "joan", "object": "records/jen", "action": "read", "purpose": "treat",
        "decision": "Permit", "masked": False, "matched_rule": "Read_patient_records",
        "latency_ms": 0.25, "ts": "2026-10-20T09:00:00.000+00:00",
    }

    def test_record_after_stop_is_refused(self, gateway):
        # never dropped in silence: the request that writes it fails closed
        gw, _, _, audit_path = gateway
        gw.stop()
        with pytest.raises(ValueError):
            gw.audit(self.DECISION_RECORD)
        assert read_audit(audit_path) == []

    def test_record_with_unknown_key_is_refused(self, gateway):
        # the one template knows every field it writes; a record with another
        # is refused whole, never written in part or in another layout
        gw, _, _, audit_path = gateway
        with pytest.raises(TypeError):
            gw.audit({**self.DECISION_RECORD, "prev": "0" * 64})
        gw.audit(self.DECISION_RECORD)
        assert read_audit(audit_path) == [self.DECISION_RECORD]

    def test_decide_endpoint_is_audited(self, gateway):
        _, base, _, audit_path = gateway
        body = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
        requests.post(f"{base}/pdp/decide", data=body, timeout=10)
        record = read_audit(audit_path)[-1]
        assert record["subject"] == "joan"
        assert record["decision"] == "Permit"

    @pytest.mark.parametrize(
        "request_bytes, status_line, body, record",
        [
            (
                closing_proxy_get("x/../records/jen?purpose=treat", "X-Subject: joan\r\n"),
                "HTTP/1.1 400 Bad Request",
                b"dot segment '..' in object 'x/../records/jen'\n",
                ("joan", "x/../records/jen", "read", "treat", "error", False, None),
            ),
            (
                closing_proxy_get("records/jen", "X-Subject: joan\r\n"),
                "HTTP/1.1 400 Bad Request",
                b"no purpose: pass ?purpose=... or an X-Purpose header\n",
                ("joan", "records/jen", "read", None, "error", False, None),
            ),
            (
                closing_proxy_get("?purpose=treat"),
                "HTTP/1.1 400 Bad Request",
                b"no object named after /proxy/\n",
                ("anonymous", None, "read", "treat", "error", False, None),
            ),
            (
                closing_proxy_get("records/jen?purpose=bake", "X-Subject: joan\r\n"),
                "HTTP/1.1 400 Bad Request",
                b"unknown purpose 'bake'\n",
                ("joan", "records/jen", "read", "bake", "error", False, None),
            ),
            (
                closing_proxy_get(
                    "records/jen?purpose=treat", "X-Subject: joan\r\nX-Context: years_of_service=five; type=int\r\n"
                ),
                "HTTP/1.1 400 Bad Request",
                b"not an int: 'five'\n",
                ("joan", "records/jen", "read", "treat", "error", False, None),
            ),
            (
                closing_proxy_get("records/jen?purpose=treat", "X-Subject: joan\r\nX-Attribute: ; soa=x\r\n"),
                "HTTP/1.1 400 Bad Request",
                b"attribute header missing name: '; soa=x'\n",
                ("joan", "records/jen", "read", "treat", "error", False, None),
            ),
            (
                b"POST /proxy/records/jen HTTP/1.1\r\nX-Subject: joan\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                "HTTP/1.1 411 Length Required",
                b"no purpose: pass ?purpose=... or an X-Purpose header\n"
                b"Transfer-Encoding is not accepted: send a Content-Length\n",
                ("joan", "records/jen", "write", None, "error", False, None),
            ),
            (
                closing_decide(b"<request/>"),
                "HTTP/1.1 400 Bad Request",
                b"request is missing the subject category (line 1, column 0)\n",
                (None, None, None, None, "error", False, None),
            ),
            (
                closing_decide(DECIDE_BODY.replace(b'"joan"', b'"jo\xffan"')),
                "HTTP/1.1 400 Bad Request",
                b"not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 66: invalid start byte\n",
                (None, None, None, None, "error", False, None),
            ),
            (
                closing_decide(DECIDE_BODY.replace(b'"treat"', b'"bake"')),
                "HTTP/1.1 400 Bad Request",
                b"unknown purpose 'bake'\n",
                ("joan", "records/jen", "read", "bake", "error", False, None),
            ),
            (
                f"POST /pdp/decide HTTP/1.1\r\nContent-Length: {service.BODY_LIMIT + 1}\r\n\r\n".encode(),
                "HTTP/1.1 413 Request Entity Too Large",
                b"request body over 8388608 bytes\n",
                (None, None, None, None, "error", False, None),
            ),
            (
                closing_decide(DECIDE_BODY),
                "HTTP/1.1 200 OK",
                (GOLDEN / "decide_response_01.xml").read_bytes(),
                ("joan", "records/jen", "read", "treat", "Permit", False, "Read_patient_records"),
            ),
            (
                b"GET //[x/proxy HTTP/1.1\r\n\r\n",
                "HTTP/1.1 400 Bad Request",
                b"bad request target '//[x/proxy': Invalid IPv6 URL\n",
                (None, None, None, None, "error", False, None),
            ),
        ],
        ids=[
            "proxy-dot-segment", "proxy-no-purpose", "proxy-no-object", "proxy-unknown-purpose",
            "proxy-bad-context", "proxy-bad-attribute", "proxy-transfer-encoding-no-purpose",
            "decide-missing-category", "decide-invalid-utf8", "decide-unknown-purpose", "decide-413",
            "decide-permit", "unsplittable-target",
        ],
    )
    def test_answer_and_record_of_each_refusal(self, gateway, request_bytes, status_line, body, record):
        # a refusal is recorded with the ids its request named, as received,
        # and null for the ones it named none of or could not be read for
        gw, _, stub, audit_path = gateway
        fields = [("Content-Type", "text/plain; charset=utf-8"), ("Content-Length", str(len(body))), ("Connection", "close")]
        if status_line == "HTTP/1.1 200 OK":
            fields = [("Content-Type", "application/xml"), *fields[1:], ("X-Decision", "Permit")]
        assert split_response(raw_exchange(gw.bound_port, request_bytes)) == (status_line, fields, body)
        keys = ("subject", "object", "action", "purpose", "decision", "masked", "matched_rule")
        assert [tuple(line[key] for key in keys) for line in read_audit(audit_path)] == [record]
        assert stub.hit_count == 0


class TestRequestHead:
    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
            (b"GET /healthz\r\nHost: gw\r\n\r\n", 400),
            (b"GET  /healthz HTTP/1.1\r\nHost: gw\r\n\r\n", 400),
            (b"GET /healthz HTTP/1\r\nHost: gw\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\nHost: gw\r\n\r\n", 505),
            (b"GET /healthz HTTP/3\r\nHost: gw\r\n\r\n", 505),
            (b"GET /healthz HTTP/1.1\r\nHost gw\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost: gw\r\nX-A: 1\r\n folded\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Bad : 1\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nX-Bad: a\x00b\r\n\r\n", 400),
        ],
        ids=["head-64k", "101-lines", "no-version", "two-spaces", "HTTP/1", "HTTP/2.0",
             "HTTP/3", "no-colon", "folded", "space-before-colon", "nul"],
    )
    def test_bad_head_answered_and_closed(self, gateway, request_bytes, status):
        gw, base, _, audit_path = gateway
        status_line, fields, _ = split_response(raw_exchange(gw.bound_port, request_bytes))
        assert int(status_line.split()[1]) == status
        assert ("Connection", "close") in fields
        assert read_audit(audit_path) == []  # refused before any endpoint saw it
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200

    def test_bare_lf_head_answered_at_once(self, gateway):
        # a head whose lines end in LF alone never holds CRLFCRLF: it gets
        # its 400 without waiting for the client to close
        gw, base, _, audit_path = gateway
        with socket.create_connection(("127.0.0.1", gw.bound_port), timeout=1) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\nHost: gw\n\n")
            reply = b""
            while chunk := sock.recv(65536):  # a timeout after 1 s fails the test
                reply += chunk
        status_line, fields, body = split_response(reply)
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert ("Connection", "close") in fields
        assert body == b"request head lines must end in CRLF\n"
        assert read_audit(audit_path) == []
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200

    @pytest.mark.parametrize(
        "target, audited", [("POST /pdp/decide", 1), ("PUT /admin/policy", 0)]
    )
    def test_conflicting_content_lengths_400(self, gateway, target, audited):
        gw, _, _, audit_path = gateway
        request = f"{target} HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"
        status_line, fields, body = split_response(raw_exchange(gw.bound_port, request.encode()))
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert ("Connection", "close") in fields
        assert b"conflicting Content-Length" in body
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"] * audited

    def test_truncated_body_400(self, gateway):
        gw, _, _, audit_path = gateway
        with socket.create_connection(("127.0.0.1", gw.bound_port), timeout=5) as sock:
            sock.sendall(DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY[:10])
            sock.shutdown(socket.SHUT_WR)
            reply = sock.makefile("rb").read()
        assert statuses(reply) == [400]
        assert b"body ends after 10 of" in reply
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]

    def test_pipelined_requests_answered_in_order(self, gateway):
        gw, _, _, _ = gateway
        deny = (EHEALTH / "requests" / "02_too_few_years.xml").read_bytes()
        request = (
            DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY
            + f"POST /pdp/decide HTTP/1.1\r\nContent-Length: {len(deny)}\r\n"
              "Connection: close\r\n\r\n".encode() + deny
        )
        reply = raw_exchange(gw.bound_port, request)
        assert statuses(reply) == [200, 200]
        assert re.findall(rb"X-Decision: (\w+)", reply) == [b"Permit", b"Deny"]

    def test_http10_closes_unless_kept_alive(self, gateway):
        gw, _, _, _ = gateway
        reply = raw_exchange(gw.bound_port, b"GET /healthz HTTP/1.0\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n")
        assert statuses(reply) == [200]
        assert ("Connection", "close") in split_response(reply)[1]
        kept = raw_exchange(
            gw.bound_port,
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /healthz HTTP/1.0\r\n\r\n",
        )
        assert statuses(kept) == [200, 200]

    def test_unsupported_method_501(self, gateway):
        gw, _, _, audit_path = gateway
        reply = raw_exchange(gw.bound_port, b"TRACE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert statuses(reply) == [501]
        assert read_audit(audit_path) == []


# Upstream answers framed each way, and the relayed response each must give.
UPSTREAM_FRAMINGS = [
    pytest.param(
        "GET",
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5;ext=1\r\nhello\r\n7\r\n, world\r\n0\r\nX-Sum: 1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nConnection: close\r\n"
        b"Content-Type: text/plain\r\nX-Decision: Permit\r\n\r\nhello, world",
        id="chunked",
    ),
    pytest.param(
        "GET",
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil the\r\n\r\nend",
        b"HTTP/1.1 200 OK\r\nContent-Length: 16\r\nConnection: close\r\n"
        b"Content-Type: text/plain\r\nX-Decision: Permit\r\n\r\nuntil the\r\n\r\nend",
        id="close-delimited",
    ),
    pytest.param(
        "HEAD",
        b'HTTP/1.1 204 No Content\r\nETag: "e"\r\n\r\n',
        b'HTTP/1.1 204 No Content\r\nConnection: close\r\nETag: "e"\r\n'
        b"X-Decision: Permit\r\n\r\n",
        id="head-204",
    ),
    pytest.param(
        "GET",
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n"
        b"X-Decision: Permit\r\n\r\nok",
        id="interim-100",
    ),
]

# Upstream answers the relay cannot frame: each is a 502.
MALFORMED_ANSWERS = [
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", id="chunk-size"),
    pytest.param(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloXX0\r\n\r\n", id="chunk-end"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc", id="two-lengths"),
    pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", id="short-body"),
    pytest.param(b"SPDY/3 200 OK\r\n\r\n", id="status-line"),
]


class TestRelay:
    def test_end_to_end_headers_relayed(self, gateway_for):
        upstream_headers = (
            ("Location", "/records/jen/2"), ("ETag", '"v7"'), ("Cache-Control", "no-store"),
            ("Set-Cookie", "a=1"), ("Set-Cookie", "b=2"), ("Connection", "X-Hop"),
            ("X-Hop", "1"), ("Keep-Alive", "timeout=5"), ("X-Decision", "Deny"),
        )
        gw, _, stub, _ = gateway_for(status=201, content_type=None, headers=upstream_headers)
        reply = raw_exchange(gw.bound_port, permit_request("PUT", extra="Connection: close\r\n"))
        status_line, fields, body = split_response(reply)
        assert status_line == "HTTP/1.1 201 Created"
        names = [name.lower() for name, _ in fields]
        for field in upstream_headers[:5]:
            assert field in fields
        assert [value for name, value in fields if name == "Set-Cookie"] == ["a=1", "b=2"]
        assert [name for name in ("content-type", "x-hop", "keep-alive") if name in names] == []
        assert [value for name, value in fields if name == "X-Decision"] == ["Permit"]
        assert ("Content-Length", str(len(body))) in fields
        assert json.loads(body)["upstream"] is True
        assert stub.hit_count == 1

    @pytest.mark.parametrize("method, raw, relayed", UPSTREAM_FRAMINGS)
    def test_upstream_framing_relayed_byte_exact(self, gateway_for, method, raw, relayed):
        gw, _, stub, _ = gateway_for(raw=raw)
        reply = raw_exchange(gw.bound_port, permit_request(method, extra="Connection: close\r\n"))
        assert reply == relayed
        assert stub.hit_count == 1

    @pytest.mark.parametrize("raw", MALFORMED_ANSWERS)
    def test_malformed_upstream_answer_502(self, gateway_for, raw):
        gw, _, _, audit_path = gateway_for(raw=raw)
        reply = raw_exchange(gw.bound_port, permit_request("POST", extra="Connection: close\r\n"))
        assert statuses(reply) == [502]
        assert b"upstream unreachable" in reply
        assert [record["decision"] for record in read_audit(audit_path)] == ["Permit"]

    @pytest.mark.parametrize("method, raw, relayed", UPSTREAM_FRAMINGS)
    def test_upstream_answer_in_pieces_relayed_as_whole(self, gateway_for, method, raw, relayed):
        # the relay frames the answer however the upstream's bytes are cut
        gw, _, stub, _ = gateway_for(raw=raw, split=True)
        reply = raw_exchange(gw.bound_port, permit_request(method, extra="Connection: close\r\n"))
        assert reply == relayed
        assert stub.hit_count == 1

    @pytest.mark.parametrize("raw", MALFORMED_ANSWERS)
    def test_malformed_answer_in_pieces_502(self, gateway_for, raw):
        gw, _, _, audit_path = gateway_for(raw=raw, split=True)
        reply = raw_exchange(gw.bound_port, permit_request("POST", extra="Connection: close\r\n"))
        assert statuses(reply) == [502]
        assert b"upstream unreachable" in reply
        assert [record["decision"] for record in read_audit(audit_path)] == ["Permit"]

    def test_upstream_head_over_64k_502_then_fresh_connection(self, gateway_for):
        big = b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * (service.HEAD_LIMIT + 100) + b"\r\nContent-Length: 2\r\n\r\nok"
        gw, _, stub, _ = gateway_for(first_answer=big)
        with KeepAlive(gw.bound_port) as client:
            status, _, body = client.exchange(permit_request())
            assert status == 502
            assert body.startswith(b"upstream unreachable")
            status, _, body = client.exchange(permit_request())
            assert (status, json.loads(body)["upstream"]) == (200, True)
        assert (stub.hit_count, stub.connections) == (2, 2)

    def test_upstream_timeout_502_then_fresh_connection(self, gateway_for, monkeypatch):
        monkeypatch.setattr(service, "UPSTREAM_TIMEOUT", 0.2)
        gw, _, stub, _ = gateway_for(delay=0.6)
        with KeepAlive(gw.bound_port) as client:
            status, _, body = client.exchange(permit_request())
            assert (status, body) == (502, b"upstream unreachable: no answer within 0.2 s\n")
            monkeypatch.setattr(service, "UPSTREAM_TIMEOUT", 5)
            assert client.exchange(permit_request())[0] == 200
        assert stub.connections == 2

    def test_each_exchange_gets_the_whole_timeout(self, gateway_for, monkeypatch):
        # on a kept-alive connection the timeout counts from each exchange's start
        monkeypatch.setattr(service, "UPSTREAM_TIMEOUT", 1.0)
        gw, _, stub, _ = gateway_for(delay=(0, 0.7, 1.6))
        with KeepAlive(gw.bound_port) as client:
            assert client.exchange(permit_request())[0] == 200
            time.sleep(0.5)
            assert client.exchange(permit_request())[0] == 200  # answered 1.2 s after the first began
            status, _, body = client.exchange(permit_request())
            assert (status, body) == (502, b"upstream unreachable: no answer within 1.0 s\n")
        assert (stub.hit_count, stub.connections) == (3, 1)


class TestOneLoop:
    def test_stalled_head_does_not_delay_others(self, gateway):
        gw, _, _, _ = gateway
        with socket.create_connection(("127.0.0.1", gw.bound_port), timeout=5) as stalled:
            stalled.sendall(b"POST /pdp/decide HTTP/1.1\r\nHost: gw\r\nContent-Le")
            with KeepAlive(gw.bound_port, timeout=2) as client:
                started = time.perf_counter()
                status, headers, _ = client.exchange(DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY)
                assert (status, headers["x-decision"]) == (200, "Permit")
                assert time.perf_counter() - started < 1.0

    def test_upstream_in_flight_does_not_delay_decide(self, gateway_for):
        gw, _, stub, _ = gateway_for(delay=1.0)
        with KeepAlive(gw.bound_port) as proxied, KeepAlive(gw.bound_port, timeout=2) as client:
            proxied.sock.sendall(permit_request())
            deadline = time.monotonic() + 5
            while stub.hit_count < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            started = time.perf_counter()
            assert client.exchange(DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY)[0] == 200
            assert time.perf_counter() - started < 0.5
            assert proxied.exchange(b"")[0] == 200

    def test_decides_answered_during_admin_swap(self, gateway, monkeypatch):
        gw, _, _, _ = gateway
        load = gw.admin_load
        swapping = threading.Event()

        def slow_load(slot, text):
            swapping.set()
            time.sleep(0.5)  # a large store's rebuild
            return load(slot, text)

        monkeypatch.setattr(gw, "admin_load", slow_load)
        policy = (EHEALTH / "ehealth_policy.xml").read_bytes()
        with KeepAlive(gw.bound_port) as admin, KeepAlive(gw.bound_port, timeout=2) as client:
            admin.sock.sendall(
                f"PUT /admin/policy HTTP/1.1\r\nContent-Length: {len(policy)}\r\n\r\n".encode() + policy
            )
            assert swapping.wait(timeout=5)
            round_trips = []
            while len(round_trips) < 10:
                started = time.perf_counter()
                status, headers, _ = client.exchange(DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY)
                round_trips.append(time.perf_counter() - started)
                assert (status, headers["x-decision"]) == (200, "Permit")
            assert sum(round_trips) < 0.4  # all answered while the swap still ran
            status, _, body = admin.exchange(b"")
        assert (status, json.loads(body)) == (200, {"version": 2})


class TestExits:
    @pytest.mark.parametrize(
        "broken, request_bytes, audited",
        [
            ("decide", DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY, ["error"]),
            ("decide", permit_request(), ["error"]),
            ("response_doc_for", DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY, ["Permit"]),
        ],
        ids=["decide", "proxy", "after-audit"],
    )
    def test_unexpected_error_500_audited_once(self, gateway, monkeypatch, broken, request_bytes, audited):
        # a fault after the decision was audited adds no second record
        gw, base, stub, audit_path = gateway

        def fault(*args):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(service, broken, fault)
        status_line, fields, body = split_response(raw_exchange(gw.bound_port, request_bytes))
        assert status_line == "HTTP/1.1 500 Internal Server Error"
        assert ("Connection", "close") in fields
        assert body == b"internal error\n"
        assert [record["decision"] for record in read_audit(audit_path)] == audited
        assert stub.hit_count == 0
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200

    def test_relay_fault_500_audited_once(self, gateway, monkeypatch):
        # a fault after the upstream answered leaves through the same one exit
        gw, base, stub, audit_path = gateway
        end_to_end = service._end_to_end

        def fault(headers, dropped):
            if dropped is service.NOT_RELAYED:
                raise RuntimeError("relay fault")
            return end_to_end(headers, dropped)

        monkeypatch.setattr(service, "_end_to_end", fault)
        status_line, fields, body = split_response(raw_exchange(gw.bound_port, permit_request()))
        assert status_line == "HTTP/1.1 500 Internal Server Error"
        assert ("Connection", "close") in fields
        assert body == b"internal error\n"
        assert [record["decision"] for record in read_audit(audit_path)] == ["Permit"]
        assert stub.hit_count == 1
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200

    def test_unsplittable_target_400_audited_once(self, gateway, caplog):
        # urlsplit rejects the target: the client's error, answered and audited once
        gw, base, _, audit_path = gateway
        with caplog.at_level(logging.ERROR):
            reply = raw_exchange(gw.bound_port, b"GET //[x/proxy HTTP/1.1\r\n\r\n")
        status_line, fields, body = split_response(reply)
        assert status_line == "HTTP/1.1 400 Bad Request"
        assert ("Connection", "close") in fields
        assert body.startswith(b"bad request target '//[x/proxy'")
        assert [record["decision"] for record in read_audit(audit_path)] == ["error"]
        assert [record.getMessage() for record in caplog.records if record.levelno >= logging.ERROR] == []
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200

    @pytest.mark.parametrize(
        "request_bytes",
        [
            DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY,
            permit_request(),
        ],
        ids=["decide", "proxy"],
    )
    def test_failed_audit_write_503_forwards_nothing(self, gateway, request_bytes):
        gw, base, stub, _ = gateway
        gw._audit_handle.close()
        status_line, fields, _ = split_response(raw_exchange(gw.bound_port, request_bytes))
        assert status_line == "HTTP/1.1 503 Service Unavailable"
        assert ("Connection", "close") in fields
        assert stub.hit_count == 0
        assert requests.get(f"{base}/healthz", timeout=10).status_code == 200


# A decide, a proxy Permit, a proxy refusal, a health probe, a decide that
# waits for 100 Continue, and a bad Content-Length that ends the connection.
MIXED_PIPELINE = (
    DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY
    + permit_request()
    + b"GET /proxy/records/jen?purpose=treat HTTP/1.1\r\nX-Subject: joan\r\n"
    b"X-Context: years_of_service=2; type=int\r\n\r\n"
    + b"GET /healthz HTTP/1.1\r\nHost: gw\r\n\r\n"
    + f"{DECIDE_HEAD}Expect: 100-continue\r\n\r\n".encode() + DECIDE_BODY
    + b"POST /pdp/decide HTTP/1.1\r\nHost: gw\r\nContent-Length: 1x\r\n\r\n"
)


def framed(reply: bytes) -> list[tuple[int, bytes]]:
    """Status and body of every response in a raw exchange, framed by
    Content-Length."""
    out = []
    while reply:
        head, _, reply = reply.partition(b"\r\n\r\n")
        length = re.search(rb"^Content-Length: (\d+)\r?$", head, re.M)
        body, reply = reply[: int(length[1]) if length else 0], reply[int(length[1]) if length else 0 :]
        out.append((int(head.split(b" ")[1]), body))
    return out


class TestFraming:
    UPSTREAM = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nok"

    def test_split_delivery_answers_as_whole(self, gateway_for):
        # however the bytes are cut into segments, the answers and the audit
        # records are those of the pipeline sent in one write
        gw, _, _, audit_path = gateway_for(raw=self.UPSTREAM)
        data = MIXED_PIPELINE
        rng = random.Random(16)
        runs = []
        for cuts in [[]] + [sorted(rng.sample(range(1, len(data)), rng.randint(1, 40))) for _ in range(6)]:
            with socket.create_connection(("127.0.0.1", gw.bound_port), timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for start, end in zip([0] + cuts, cuts + [len(data)]):
                    sock.sendall(data[start:end])
                    time.sleep(0.002)
                reply = sock.makefile("rb").read()
            runs.append((reply, [record["decision"] for record in read_audit(audit_path)[5 * len(runs) :]]))
        reply, decisions = runs[0]
        assert [status for status, _ in framed(reply)] == [200, 200, 403, 200, 100, 200, 400]
        assert decisions == ["Permit", "Permit", "Deny", "Permit", "error"]
        assert runs == [runs[0]] * len(runs)

    def test_2000_pipelined_decides_answered_in_order(self, gateway):
        # far more than the input and write buffers hold: reading pauses
        # until the client reads, and nothing is lost or reordered
        gw, _, _, audit_path = gateway
        bodies = [(EHEALTH / "requests" / name).read_bytes() for name in ("01_doctor_reads_record.xml", "02_too_few_years.xml")]
        data = b"".join(
            f"POST /pdp/decide HTTP/1.1\r\nContent-Length: {len(bodies[i % 2])}\r\n\r\n".encode() + bodies[i % 2]
            for i in range(2000)
        )
        with KeepAlive(gw.bound_port, timeout=20) as client:
            sender = threading.Thread(target=client.sock.sendall, args=(data,), daemon=True)
            sender.start()
            sender.join(timeout=5)  # the kernel buffers let the whole pipeline go before any read
            answers = [client.read() for _ in range(2000)]
            sender.join(timeout=5)
            assert not sender.is_alive()
        assert [status for status, _, _ in answers] == [200] * 2000
        assert [headers["x-decision"] for _, headers, _ in answers] == ["Permit", "Deny"] * 1000
        assert len(read_audit(audit_path)) == 2000

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_client_gone_during_forward_logs_nothing(self, gateway_for, caplog, reset):
        gw, base, stub, audit_path = gateway_for(delay=0.4)
        with caplog.at_level(logging.WARNING):
            sock = socket.create_connection(("127.0.0.1", gw.bound_port), timeout=5)
            sock.sendall(permit_request())
            deadline = time.monotonic() + 5
            while stub.hit_count < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            if reset:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            time.sleep(0.8)  # the forward ends meanwhile
            gc.collect()  # an unretrieved task exception is logged when the task goes
            assert requests.get(f"{base}/healthz", timeout=10).status_code == 200
        assert [record.getMessage() for record in caplog.records if record.levelno >= logging.WARNING] == []
        assert [record["decision"] for record in read_audit(audit_path)] == ["Permit"]
        assert stub.hit_count == 1


class DiscardingTransport:
    """Keeps what is written and whether reading is paused."""

    def __init__(self):
        self.written = []
        self.reading = True

    def write(self, data: bytes) -> None:
        self.written.append(data)

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def close(self) -> None:
        pass


def test_full_write_buffer_holds_requests_and_input(tmp_path):
    # while the transport's write buffer is full no request is answered, and
    # the input pauses once more than 2 x HEAD_LIMIT bytes wait in the buffer
    gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
    transport = DiscardingTransport()
    connection = ClientConnection(gw)
    connection.connection_made(transport)
    request = DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY
    connection.pause_writing()
    held = 2 * service.HEAD_LIMIT // len(request)
    try:
        for _ in range(held):
            connection.data_received(request)
        assert (transport.written, transport.reading) == ([], True)
        connection.data_received(request)
        assert (transport.written, transport.reading) == ([], False)
        connection.resume_writing()
    finally:
        gw.stop()
    assert transport.reading
    assert [statuses(data) for data in transport.written] == [[200]] * (held + 1)
    assert len(read_audit(tmp_path / "audit.jsonl")) == held + 1


def test_requests_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # every object a decide or a refusal builds is freed by reference
    # counting alone, so no request leaves work for the cyclic collector
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    pool = [item.data for item in workloads.prepare("ehealth-decide", 7, tmp_path).items]
    proxy = workloads.prepare("ehealth-proxy", 7, tmp_path)
    refusals = [
        item.data for index, item in enumerate(proxy.items) if proxy.expected(index, 0).value is not pdp.DecisionValue.PERMIT
    ]
    gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
    transport = DiscardingTransport()
    connection = ClientConnection(gw)
    connection.connection_made(transport)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for data in pool + refusals:
                connection.data_received(data)
        garbage = gc.collect()
    finally:
        gc.enable()
        gw.stop()
    assert garbage == 0
    assert [statuses(data)[0] for data in transport.written] == ([200] * len(pool) + [403] * len(refusals)) * 10


def test_permit_forwards_leave_no_cyclic_garbage(tmp_path, monkeypatch):
    # a Permit forwarded on a kept-alive upstream connection, and its relayed
    # answer, are freed by reference counting alone
    monkeypatch.syspath_prepend(str(BENCH))
    import loadgen
    import workloads

    proxy = workloads.prepare("ehealth-proxy", 7, tmp_path)
    permits = [
        item.data for index, item in enumerate(proxy.items) if proxy.expected(index, 0).value is pdp.DecisionValue.PERMIT
    ]
    # gc.collect() counts every thread's garbage: let the stub threads of
    # earlier tests, which may still be failing a write, end first
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5)
    stub = loadgen.Stub()
    gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, stub.port)))
    try:
        with KeepAlive(gw.start()) as client:
            assert client.exchange(permits[0])[0] == 200  # the upstream connection opens
            gc.collect()
            gc.disable()
            try:
                answers = [client.exchange(data)[0] for _ in range(10) for data in permits]
                garbage = gc.collect()
            finally:
                gc.enable()
    finally:
        gw.stop()
        stats = stub.stats()
        stub.stop()
    assert garbage == 0
    assert answers == [200] * 10 * len(permits)
    assert (sum(stats["hits"].values()), stats["connections"]) == (1 + 10 * len(permits), 1)


def in_process(gw) -> tuple[ClientConnection, DiscardingTransport]:
    """A client connection of ``gw`` whose transport keeps what is written."""
    transport = DiscardingTransport()
    connection = ClientConnection(gw)
    connection.connection_made(transport)
    return connection, transport


def answer_bytes(gw, pieces) -> bytes:
    """What a fresh in-process connection writes when each of ``pieces``
    arrives in its own data_received."""
    connection, transport = in_process(gw)
    for piece in pieces:
        connection.data_received(piece)
    connection.connection_lost(None)  # the gateway lets go of it and its buffer
    return b"".join(transport.written)


# A decide with its body followed by a health probe; a head whose lines end
# in LF alone; a head over 64 KiB.
HEADS = {
    "head-and-body": DECIDE_HEAD.encode() + b"\r\n" + DECIDE_BODY + b"GET /healthz HTTP/1.1\r\nHost: gw\r\n\r\n",
    "bare-lf": b"GET /healthz HTTP/1.1\nHost: gw\n\n",
    "head-over-64k": b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * service.HEAD_LIMIT + b"\r\n\r\n",
}


class TestHeadInPieces:
    @pytest.mark.parametrize(
        "name, answered",
        [("head-and-body", [200, 200]), ("bare-lf", [400]), ("head-over-64k", [431])],
    )
    def test_every_cut_answers_as_whole(self, tmp_path, name, answered):
        # a head searched only in its new bytes gives the answer of the head
        # sent whole, wherever it is cut: a CRLF or the CRLFCRLF that ends
        # the head may be split across two reads
        data = HEADS[name]
        gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
        try:
            whole = answer_bytes(gw, [data])
            view = memoryview(data)
            differ = [k for k in range(1, len(data)) if answer_bytes(gw, [view[:k], view[k:]]) != whole]
            byte_by_byte = answer_bytes(gw, [data[k : k + 1] for k in range(len(data))])
        finally:
            gw.stop()
        assert statuses(whole) == answered
        assert differ == []
        assert byte_by_byte == whole


def write_random_bundle(root: Path, rng: random.Random, count: int = 6) -> list[bytes]:
    """Writes a bundle of a randgen store to ``root``, whose registry holds
    the subject and object concepts of ``count`` random requests on it, and
    the configs ``kept.conf`` and ``fresh.conf`` of two gateways on it;
    returns the bodies of those requests."""
    store = random_store(rng)
    asks = [random_request_for(rng, store) for _ in range(count)]

    def entry(concepts) -> RegistryEntry:
        return RegistryEntry(concepts=tuple(sorted((c for c in concepts if c.id != "ghost"), key=attrgetter("id"))))

    kb = KnowledgeBase(
        subjects={f"u{k}": entry(ask.subject_concepts) for k, ask in enumerate(asks)},
        objects={f"r{k}": entry(ask.object_concepts) for k, ask in enumerate(asks)},
    )
    documents = {kind.lower(): serialize_ontology(store.graphs[kind]) for kind in ontology.ONTOLOGY_KINDS}
    documents.update(
        purposes=serialize_purposes(store.purposes), policy=serialize_policy(store.policy), registry=serialize_registry(kb)
    )
    lines = [f"trusted_soas = {' '.join(TRUSTED)}", "listen = 127.0.0.1:0", "upstream = http://127.0.0.1:9"]
    for key, text in documents.items():
        (root / f"{key}.xml").write_text(text, encoding="utf-8")
        lines.append(f"{key} = {root / key}.xml")
    for name in ("kept", "fresh"):
        (root / f"{name}.conf").write_text("\n".join(lines + [f"audit_log = {root / name}.jsonl"]) + "\n", encoding="utf-8")
    wires = [
        XacmlRequestDoc(f"u{k}", ask.presented_attributes, f"r{k}", ask.action.id, ask.purpose, ask.context)
        for k, ask in enumerate(asks)
    ]
    return [serialize_xacml_request(wire).encode("utf-8") for wire in wires]


def decide_request(body: bytes) -> bytes:
    return b"POST /pdp/decide HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def without_time(records: list[dict]) -> list[dict]:
    return [{key: value for key, value in record.items() if key not in ("ts", "latency_ms")} for record in records]


FLIPPED_POLICY = (
    (EHEALTH / "ehealth_policy.xml")
    .read_text(encoding="utf-8")
    .replace('Priority="9" Public="false"', 'Priority="9" Public="true"')
    .replace('reference="3"', 'reference="9"')
)


class TestAnswerMap:
    """A /pdp/decide answer is kept for its byte-identical body while the
    store that made it is active."""

    @pytest.mark.parametrize(
        "slot, document, decision",
        [
            ("policy", FLIPPED_POLICY, "Deny"),  # joan's 5 years no longer reach 9
            ("registry", (EHEALTH / "ehealth_registry.xml").read_text(encoding="utf-8").replace(
                '<subject id="joan">', '<subject id="joan_old">'
            ), "NotApplicable"),
            ("purposes", (EHEALTH / "ehealth_purposes.xml").read_text(encoding="utf-8"), "Permit"),
            ("ontology/SO", (EHEALTH / "ehealth_so.xml").read_text(encoding="utf-8"), "Permit"),
            ("ontology/OO", (EHEALTH / "ehealth_oo.xml").read_text(encoding="utf-8"), "Permit"),
            ("ontology/AO", (EHEALTH / "ehealth_ao.xml").read_text(encoding="utf-8"), "Permit"),
            ("ontology/AtO", (EHEALTH / "ehealth_ato.xml").read_text(encoding="utf-8"), "Permit"),
        ],
        ids=["policy", "registry", "purposes", "SO", "OO", "AO", "AtO"],
    )
    def test_no_answer_outlives_its_store(self, gateway, slot, document, decision):
        # whichever slot a 200 swaps, the next answer to the same body is
        # decided by the new store: its decision and its store version say so
        gw, _, _, _ = gateway
        request = decide_request(DECIDE_BODY)
        upload = document.encode()
        with KeepAlive(gw.bound_port) as client:
            first = client.exchange(request)
            assert client.exchange(request) == first
            assert first[1]["x-decision"] == "Permit"
            assert parse_xacml_response(first[2]).trace[0] == "store version 1"
            put = f"PUT /admin/{slot} HTTP/1.1\r\nHost: gw\r\nContent-Length: {len(upload)}\r\n\r\n".encode()
            status, _, body = client.exchange(put + upload)
            assert (status, json.loads(body)) == (200, {"version": 2})
            swapped = client.exchange(request)
            assert client.exchange(request) == swapped
        doc = parse_xacml_response(swapped[2])
        assert (swapped[1]["x-decision"], doc.decision, doc.trace[0]) == (decision, decision, "store version 2")

    def test_each_repeat_is_audited_with_its_own_time(self, gateway):
        gw, _, _, audit_path = gateway
        request = decide_request(DECIDE_BODY)
        answers = []
        with KeepAlive(gw.bound_port) as client:
            for count in range(1, 6):
                answers.append(client.exchange(request))
                assert len(read_audit(audit_path)) == count  # flushed before the answer
                time.sleep(0.003)  # past the millisecond the record's ts counts in
        assert answers == [answers[0]] * 5
        records = read_audit(audit_path)
        stamps = [record["ts"] for record in records]
        assert stamps == sorted(set(stamps))
        assert all(record["latency_ms"] >= 0 for record in records)
        assert without_time(records) == [
            {"action": "read", "decision": "Permit", "masked": False, "matched_rule": "Read_patient_records",
             "object": "records/jen", "purpose": "treat", "subject": "joan"}
        ] * 5

    @pytest.mark.parametrize(
        "request_bytes, status, message",
        [
            (decide_request(b"<request><broken"), 400, None),
            (decide_request(DECIDE_BODY.replace(b'"joan"', b'"jo\xffan"')), 400, b"not valid UTF-8"),
            (decide_request(DECIDE_BODY.replace(b"<environment>", b"<environment><x/>")), 400, b"unexpected element <x>"),
            (decide_request(DECIDE_BODY.replace(b'"treat"', b'"bake"')), 400, b"unknown purpose 'bake'"),
            (DECIDE_HEAD.encode() + b"Content-Length: 1\r\n\r\n" + DECIDE_BODY, 400, b"conflicting Content-Length"),
        ],
        ids=["malformed", "not-utf8", "invalid", "unknown-purpose", "framing"],
    )
    def test_refusals_are_never_kept(self, tmp_path, request_bytes, status, message):
        # each repeat is refused and audited as error again
        gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
        try:
            replies = [answer_bytes(gw, [request_bytes]) for _ in range(3)]
            kept = dict(gw._state[2])
        finally:
            gw.stop()
        assert replies == [replies[0]] * 3
        assert statuses(replies[0]) == [status]
        assert message is None or message in replies[0]
        assert kept == {}
        assert [record["decision"] for record in read_audit(tmp_path / "audit.jsonl")] == ["error"] * 3

    def test_kept_answer_skips_every_stage_and_proxy_never_uses_it(self, tmp_path, monkeypatch):
        calls = collections.Counter()
        stages = ("parse_xacml_request", "build_access_request", "decide", "response_doc_for", "serialize_xacml_response")

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)

            return call

        for name in stages:
            monkeypatch.setattr(service, name, counted(name, getattr(service, name)))
        refused = (
            b"GET /proxy/records/jen?purpose=treat HTTP/1.1\r\nX-Subject: joan\r\n"
            b"X-Context: years_of_service=2; type=int\r\n\r\n"
        )
        gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
        try:
            answers = [answer_bytes(gw, [decide_request(DECIDE_BODY)]) for _ in range(4)]
            decided = dict(calls)
            proxied = [statuses(answer_bytes(gw, [refused])) for _ in range(3)]
            kept = list(gw._state[2])
        finally:
            gw.stop()
        assert answers == [answers[0]] * 4
        assert decided == dict.fromkeys(stages, 1)
        assert proxied == [[403]] * 3
        assert (calls["build_access_request"], calls["decide"]) == (4, 4)
        assert kept == [DECIDE_BODY]

    def test_map_holds_at_most_its_bound(self, tmp_path):
        golden = (GOLDEN / "decide_response_01.xml").read_bytes()
        gw = Gateway(load_gateway_config(write_gateway_conf(tmp_path, 9)))
        lengths = []
        try:
            connection, transport = in_process(gw)
            for k in range(60):  # distinct bodies of about 40 KB: about 25 fit
                padding = b"<!-- %d %s -->\n" % (k, b"x" * 40_000)
                connection.data_received(decide_request(DECIDE_BODY.replace(b"<request>", padding + b"<request>")))
                answers = gw._state[2]
                assert answers.size == sum(len(body) + len(kept[1]) for body, kept in answers.items())
                assert answers.size <= service.ANSWER_BYTES
                lengths.append(len(answers))
            before = dict(answers)
            over = DECIDE_BODY.replace(b"<request>", b"<!-- %s -->\n<request>" % (b"x" * service.ANSWER_BYTES))
            connection.data_received(decide_request(over))
            after = dict(gw._state[2])
        finally:
            gw.stop()
        assert 20 < max(lengths) < 30 and lengths.count(1) >= 2  # emptied when full, then filled again
        assert after == before  # a pair over the bound is not kept, and empties nothing
        assert [split_response(data)[2] for data in transport.written] == [golden] * 61

    def test_insert_that_would_pass_the_bound_empties_the_map(self):
        outcome = service.Outcome("joan", "records/jen", "read", "treat", "Permit", False, "r", ())
        answers = service.AnswerMap()
        answers.keep(b"a" * (service.ANSWER_BYTES - 10), outcome, b"r" * 10)
        assert (len(answers), answers.size) == (1, service.ANSWER_BYTES)  # the bound is reached, not passed
        answers.keep(b"b", outcome, b"")
        assert (dict(answers), answers.size) == ({b"b": (outcome, b"")}, 1)
        answers.keep(b"c" * service.ANSWER_BYTES, outcome, b"r")
        assert (dict(answers), answers.size) == ({b"b": (outcome, b"")}, 1)


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=25, deadline=None)
def test_kept_answer_equals_a_fresh_gateways(seed):
    # on random stores, the answer kept for a body is the answer a gateway
    # that never saw the body gives, and its repeat is audited alike
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        bodies = write_random_bundle(root, random.Random(seed))
        kept_gw = Gateway(load_gateway_config(root / "kept.conf"))
        fresh_gw = Gateway(load_gateway_config(root / "fresh.conf"))
        try:
            for body in bodies:
                first = answer_bytes(kept_gw, [decide_request(body)])
                again = answer_bytes(kept_gw, [decide_request(body)])
                assert again == first == answer_bytes(fresh_gw, [decide_request(body)])
            kept = set(kept_gw._state[2])
        finally:
            kept_gw.stop()
            fresh_gw.stop()
        records = read_audit(root / "kept.jsonl")
    assert kept == {body for body, record in zip(bodies, records[::2]) if record["decision"] != "error"}
    assert without_time(records[::2]) == without_time(records[1::2])
