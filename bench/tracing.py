"""The traced run: per-layer timings and counts, taken from outside the program.

Each request of the workload's pool goes once over HTTP on one keep-alive
connection (the root span, ``client.http``).  Afterwards the benchmark
replays it in this process through the public functions the gateway's
handler calls, in the handler's order, one child span per call, under the
root's request id.  Spans stay in memory and are written to
``.bench_run/trace-<workload>-s<seed>.jsonl`` when the run ends.

Counts inside ``decide`` (rules evaluated, ontology queries) come from a
second, hooked pass over each distinct request: the hooks wrap the engine's
per-rule step and the three ontology queries it imports.  The hooked pass's
extra time over the plain pass is reported as the tracing overhead.  The
ontology queries are counted and timed in aggregate per decide, not given a
span each: a synthetic decide makes thousands of them.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import requests

import synth
import workloads
from loadgen import Connection, write_gateway_conf
from sacpdp import pdp
from sacpdp.bundle import build_store, load_bundle
from sacpdp.pdp import DecisionValue, decide, explain
from sacpdp.registry import build_access_request
from sacpdp.service import Gateway, load_gateway_config
from sacpdp.xmlio import parse_xacml_request, response_doc_for, serialize_xacml_response

SWEEP = ((200, 100), (1000, 500), (2000, 1000))
SWEEP_POOL = 32
REPEATS = 3  # build_store timings per bundle
ADMIN_LOADS = 4  # policy swaps timed per store
COUNTED = 32  # distinct requests in the counting passes
OVERHEAD_PASS_S = 0.5  # least time for each of the plain and hooked passes
ONTOLOGY_QUERIES = ("subsumption_path", "inherited_rights_roles", "equivalent_attributes")
# the engine's per-rule step; a count only, absent engines report -1
RULE_STEP = "_evaluate_rule_traced"


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, request id, name, start, end, attrs]

    @contextmanager
    def span(self, name: str, rid: int, parent: int | None = None, **attrs):
        record = [len(self.spans), parent, rid, name, time.perf_counter(), None, attrs]
        self.spans.append(record)
        try:
            yield record
        finally:
            record[5] = time.perf_counter()

    def durations_us(self, name: str) -> list:
        return [(s[5] - s[4]) * 1e6 for s in self.spans if s[3] == name]

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, rid, name, start, end, attrs in self.spans:
                row = {"id": sid, "parent": parent, "rid": rid, "name": name, "start_us": round(start * 1e6, 1), "end_us": round(end * 1e6, 1)}
                out.write(json.dumps({**row, **attrs}) + "\n")


class DecideHooks:
    """Counting wrappers around the engine's per-rule step and ontology queries."""

    def __init__(self):
        self.rules = self.applicable = self.queries = 0
        self.query_s = 0.0
        self._saved = {}

    def __enter__(self):
        for name in ONTOLOGY_QUERIES:
            self._wrap(name, self._query)
        if hasattr(pdp, RULE_STEP):
            self._wrap(RULE_STEP, self._rule)
        return self

    def __exit__(self, *exc):
        for name, original in self._saved.items():
            setattr(pdp, name, original)
        self._saved.clear()

    def _wrap(self, name, make):
        self._saved[name] = original = getattr(pdp, name)
        setattr(pdp, name, make(original))

    def _query(self, fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.query_s += time.perf_counter() - started
                self.queries += 1

        return timed

    def _rule(self, fn):
        def counted(*args, **kwargs):
            value, trace = fn(*args, **kwargs)
            self.rules += 1
            self.applicable += value is not DecisionValue.NOT_APPLICABLE
            return value, trace

        return counted


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _build_store_ms(conf: Path) -> float:
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        build_store(load_bundle(conf))
        times.append((time.perf_counter() - started) * 1000)
    return statistics.median(times)


def _admin_load_ms(gateway, texts: tuple) -> float:
    """Median of ``Gateway.admin_load`` swapping in each policy text in turn."""
    times = []
    for k in range(1, ADMIN_LOADS + 1):
        started = time.perf_counter()
        gateway.admin_load("policy", texts[k % len(texts)])
        times.append((time.perf_counter() - started) * 1000)
    return statistics.median(times)


def size_sweep(seed: int, run_dir: Path) -> dict:
    """decide, build_store and a policy swap at each synthetic size,
    suffixed by size."""
    out = {}
    for nodes, rules in SWEEP:
        synthetic = synth.make_store(nodes, rules)
        conf = synthetic.write(run_dir / f"sweep{nodes}")
        suffix = f"s{nodes}x{rules}"
        out[f"bundle.build_store_ms.{suffix}"] = (_build_store_ms(conf), "ms")
        gateway_conf, _ = write_gateway_conf(run_dir, conf, 9, run_dir / f"sweep{nodes}-audit.jsonl", f"sweep{nodes}")
        gateway = Gateway(load_gateway_config(gateway_conf))
        try:
            out[f"service.admin_load_ms.{suffix}"] = (_admin_load_ms(gateway, synthetic.policy_texts()), "ms")
        finally:
            gateway.stop()
        store, kb = build_store(load_bundle(conf))
        times = []
        for text in synthetic.requests(seed, SWEEP_POOL)[0]:
            request, _ = build_access_request(parse_xacml_request(text), kb, store)
            started = time.perf_counter()
            decide(store, request)
            times.append((time.perf_counter() - started) * 1e6)
        out[f"pdp.decide_us.{suffix}"] = (statistics.median(times), "us")
    return out


def _timed_pass(store, requests_: list, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        for request in requests_:
            decide(store, request)
    return time.perf_counter() - started


def _audit_record(request, decision, started) -> dict:
    # the same fields the gateway writes for a decision
    return {
        "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
        "subject": request.subject_id,
        "object": request.object_id,
        "action": request.action.id,
        "purpose": request.purpose,
        "decision": decision.value.value,
        "masked": decision.masked,
        "matched_rule": None if decision.masked else decision.matched_rule,
        "latency_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def _replay(tracer, rid, root, plan, item, gateway, upstream) -> tuple:
    """The handler's calls for one request, one span each; returns the
    decision and the size of the response document."""
    started = time.perf_counter()
    store, kb = gateway.snapshot()
    wire = item.wire
    if not plan.proxy:
        with tracer.span("xmlio.parse_request", rid, root):
            wire = parse_xacml_request(item.wire_text)
    with tracer.span("registry.build_request", rid, root):
        request, _ = build_access_request(wire, kb, store)
    with tracer.span("pdp.decide", rid, root):
        decision = decide(store, request)
    with tracer.span("service.audit", rid, root):
        gateway.audit(_audit_record(request, decision, started))
    size = 0
    if not plan.proxy:
        with tracer.span("xmlio.serialize_response", rid, root):
            size = len(serialize_xacml_response(response_doc_for(decision)).encode("utf-8"))
    elif decision.value is DecisionValue.PERMIT:
        # as the gateway forwards: one session-less call per Permit
        with tracer.span("service.upstream", rid, root):
            requests.request(
                item.method,
                f"{upstream}/{wire.resource_id}",
                data=workloads.PROXY_BODY if item.method == "POST" else None,
                headers=dict(item.headers),
                timeout=10,
            )
    else:
        with tracer.span("pdp.explain", rid, root):
            explain(decision)
    return decision, size


def traced_run(plan, process, stub, audit_path: Path, args, run_dir: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    problems = []

    # 1. every request over HTTP, one at a time, on one keep-alive connection
    before = stub.stats() if stub else None
    sent = []  # (request id, root span id, pool index, response)
    conn = Connection(process.port)
    deadline = time.perf_counter() + args.seconds
    try:
        while time.perf_counter() < deadline:
            rid = len(sent)
            index = rid % len(plan.items)
            with tracer.span("client.http", rid, pool_index=index) as root:
                response = conn.exchange(plan.items[index].data)
            sent.append((rid, root[0], index, response))
    finally:
        conn.close()
    forwards = conns = 0
    if stub:
        after = stub.stats()
        forwards = sum(after["hits"].values()) - sum(before["hits"].values())
        conns = after["connections"] - before["connections"]

    decisions = []
    for _rid, _root, index, response in sent:
        problem, matched = workloads.check_response(plan, index, {0}, response)
        if problem:
            problems.append(f"request {index}: {problem}")
        else:
            decisions.append(matched)
    audit = workloads.read_audit(audit_path)
    if len(audit) != len(sent):
        problems.append(f"audit log has {len(audit)} line(s) for {len(sent)} request(s)")
    permits = sum(1 for d in decisions if d.value is DecisionValue.PERMIT)
    if stub and forwards != permits:
        problems.append(f"stub saw {forwards} forward(s) for {permits} Permit(s)")

    # 2. replay each request in-process under its root span
    conf, _ = write_gateway_conf(run_dir, plan.bundle, stub.port if stub else 9, run_dir / "replay-audit.jsonl", "replay")
    gateway = Gateway(load_gateway_config(conf))
    upstream = f"http://127.0.0.1:{stub.port}" if stub else ""
    sizes, seen = [], set()
    try:
        for rid, root, index, response in sent:
            decision, size = _replay(tracer, rid, root, plan, plan.items[index], gateway, upstream)
            sizes.append(size)
            seen.add(index)
            if decision.value.value != response.headers.get("x-decision"):
                problems.append(f"request {index}: replay decided {decision.value.value}")

        # 3. counts inside decide, over distinct requests: a plain pass,
        # then the same pass hooked; the difference is the hooks' overhead
        store, kb = gateway.snapshot()
        distinct = [build_access_request(plan.items[i].wire, kb, store)[0] for i in sorted(seen)[:COUNTED]]
        repeats = 1
        plain_s = _timed_pass(store, distinct, repeats)
        if plain_s < OVERHEAD_PASS_S:
            repeats = math.ceil(OVERHEAD_PASS_S / plain_s)
            plain_s = _timed_pass(store, distinct, repeats)
        with DecideHooks() as hooks:
            hooked_s = _timed_pass(store, distinct, repeats)
        n = max(1, len(distinct) * repeats)
        has_rules = hasattr(pdp, RULE_STEP)

        # 4. set-up and reload costs in-process
        build_ms = _build_store_ms(plan.bundle)
        load_ms = _admin_load_ms(gateway, plan.policy_texts)
    finally:
        gateway.stop()

    client_us = _median(tracer.durations_us("client.http"))
    handler_ms = _median([r["latency_ms"] for r in audit])
    values = {
        "xmlio.parse_request_us": (_median(tracer.durations_us("xmlio.parse_request")), "us"),
        "xmlio.serialize_response_us": (_median(tracer.durations_us("xmlio.serialize_response")), "us"),
        "xmlio.response_bytes": (_median(sizes), "bytes"),
        "registry.build_request_us": (_median(tracer.durations_us("registry.build_request")), "us"),
        "pdp.decide_us": (_median(tracer.durations_us("pdp.decide")), "us"),
        "pdp.rules_evaluated": (hooks.rules / n if has_rules else -1, "count"),
        "pdp.applicable_ratio": (hooks.applicable / max(1, hooks.rules) if has_rules else -1, "ratio"),
        "ontology.queries_per_decide": (hooks.queries / n, "count"),
        "ontology.query_us": (hooks.query_s * 1e6 / max(1, hooks.queries), "us"),
        "pdp.explain_us": (_median(tracer.durations_us("pdp.explain")), "us"),
        "bundle.build_store_ms": (build_ms, "ms"),
        "service.admin_load_ms": (load_ms, "ms"),
        "service.audit_us": (_median(tracer.durations_us("service.audit")), "us"),
        "service.upstream_us": (_median(tracer.durations_us("service.upstream")), "us"),
        "service.upstream_conns_per_forward": (conns / forwards if forwards else 0, "ratio"),
        "service.handler_ms_p50": (handler_ms, "ms"),
        "service.unaccounted_us": (client_us - handler_ms * 1000, "us"),
        "client.http_p50_us": (client_us, "us"),
        "trace.overhead_pct": (100 * (hooked_s / plain_s - 1), "%"),
    }
    values.update(size_sweep(args.seed, run_dir))
    tracer.write(run_dir.parent / f"trace-{plan.name}-s{args.seed}.jsonl")

    summary = {
        "attempted": len(sent),
        "failed": len(problems),
        "problems": problems[:20],
        "samples": len(sent),
        "decision_mix": workloads.decision_mix(decisions),
        "forwards": forwards,
        "spans": len(tracer.spans),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return summary, metrics
