"""The three workloads: request pools, expected answers, and the checks.

Each workload is a pool of wire requests the client cycles through, the
bundle the gateway serves, and its policy texts; the synthetic workload PUTs
them to /admin/policy in turn under load.  Expected answers come from outside the gateway: the reference oracle
on e-health, an in-process ``pdp.decide`` on the synthetic store (the
oracle's per-request Floyd-Warshall is far too slow at 2000 nodes).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import sacpdp
import synth
from loadgen import http_request
from sacpdp.bundle import build_store, load_bundle
from sacpdp.oracle import oracle_decide
from sacpdp.pdp import DecisionValue, activate_store, decide
from sacpdp.registry import build_access_request
from sacpdp.service import METHOD_ACTIONS
from sacpdp.xmlio import XacmlRequestDoc, parse_policy, parse_xacml_request, parse_xacml_response, response_doc_for, serialize_xacml_request

EHEALTH = Path(sacpdp.__file__).parent / "fixtures" / "ehealth"
WORKLOADS = ("ehealth-decide", "ehealth-proxy", "synthetic-2000x1000")
POOL = 64
SYNTHETIC_POOL = 128
UNKNOWN_SUBJECT_SHARE = 0.15
PROXY_METHODS = ("GET", "POST", "DELETE")
PROXY_BODY = b'{"note": "benchmark"}'
SYNTHETIC_RELOAD_EVERY = 1.0  # seconds between policy swaps under load


@dataclass
class Item:
    """One pool request: what is sent and what the gateway decides from it."""

    data: bytes  # the whole HTTP request, sent in one write
    wire: XacmlRequestDoc
    wire_text: str = ""  # request document, for /pdp/decide
    method: str = "POST"
    forward: str = ""  # ``METHOD /object`` the stub sees on Permit
    headers: tuple = ()


@dataclass
class Plan:
    name: str
    bundle: Path  # bundle.conf the gateway serves
    items: list
    policy_texts: tuple  # slot 0 is the policy the bundle ships
    proxy: bool
    reload_cycle: tuple = ()  # slots PUT in turn under load, one per reload
    reload_every: float = SYNTHETIC_RELOAD_EVERY
    reference: object = oracle_decide  # computes the expected decision
    notes: dict = field(default_factory=dict)
    stores: list = field(default_factory=list)  # in-process store per policy slot
    kb: object = None
    _expected: dict = field(default_factory=dict, repr=False)

    @property
    def reload_bodies(self) -> tuple:
        return tuple(self.policy_texts[s].encode("utf-8") for s in self.reload_cycle)

    def slot_after(self, reloads: int) -> int:
        return 0 if reloads == 0 else self.reload_cycle[(reloads - 1) % len(self.reload_cycle)]

    def expected(self, index: int, slot: int):
        key = (index, slot)
        if key not in self._expected:
            store = self.stores[slot]
            request, _ = build_access_request(self.items[index].wire, self.kb, store)
            self._expected[key] = self.reference(store, request)
        return self._expected[key]


def _decide_item(wire: XacmlRequestDoc, text: str | None = None) -> Item:
    text = text if text is not None else serialize_xacml_request(wire)
    body = text.encode("utf-8")
    data = http_request("POST", "/pdp/decide", body, (("Content-Type", "application/xml"),))
    return Item(data=data, wire=wire, wire_text=text)


def _context_header(key: str, value) -> str:
    return f"{key}={value}; type=int" if isinstance(value, int) else f"{key}={value}"


def _proxy_item(method, subject, obj, purpose, environment) -> Item:
    headers = [("X-Subject", subject), ("X-Purpose", purpose)]
    headers += [("X-Context", _context_header(k, v)) for k, v in sorted(environment.items())]
    body = PROXY_BODY if method == "POST" else b""
    if body:
        headers.append(("Content-Type", "application/json"))
    wire = XacmlRequestDoc(subject, (), obj, METHOD_ACTIONS[method], purpose, dict(environment))
    data = http_request(method, f"/proxy/{obj}", body, tuple(headers))
    return Item(data=data, wire=wire, method=method, forward=f"{method} /{obj}", headers=tuple(headers))


def _ehealth_draw(rng, store, kb):
    """Subject, object, purpose and context drawn from the registry and tree;
    some subjects are unknown to the registry.  No certificates on the wire."""
    if rng.random() < UNKNOWN_SUBJECT_SHARE:
        subject = f"visitor{rng.randrange(100)}"
    else:
        subject = rng.choice(sorted(kb.subjects))
    environment = {}
    for spec in kb.context_specs:
        if rng.random() < 0.7:
            environment[spec.attribute_id] = (
                rng.randint(spec.low, spec.high) if spec.kind == "int" else rng.choice(spec.values)
            )
    return subject, rng.choice(sorted(kb.objects)), rng.choice(store.purposes.ids()), environment


def prepare(name: str, seed: int, run_dir: Path) -> Plan:
    rng = random.Random(f"{name}/{seed}")
    if name == "synthetic-2000x1000":
        synthetic = synth.make_store(2000, 1000)
        conf = synthetic.write(run_dir / "bundle")
        texts, targeted = synthetic.requests(seed, SYNTHETIC_POOL)
        items = [_decide_item(parse_xacml_request(text), text) for text in texts]
        plan = Plan(name, conf, items, synthetic.policy_texts(), proxy=False, reload_cycle=(1, 0), reference=decide)
        plan.notes["targeted_share"] = round(targeted / len(items), 3)
        store, plan.kb = build_store(load_bundle(conf))
        other = activate_store(
            parse_policy(plan.policy_texts[1]), store.graphs, store.purposes, store.trusted_soas, version=2
        )
        plan.stores = [store, other]
        return plan

    ehealth = load_bundle(EHEALTH)
    store, kb = build_store(ehealth)
    policy = ehealth.documents["policy"].read_text(encoding="utf-8")
    if name == "ehealth-decide":
        canned = [p.read_text(encoding="utf-8") for p in ehealth.request_paths()]
        items = [_decide_item(parse_xacml_request(text), text) for text in canned]
        ao = sorted(store.graphs["AO"].node_kinds)
        while len(items) < POOL:
            subject, obj, purpose, environment = _ehealth_draw(rng, store, kb)
            items.append(_decide_item(XacmlRequestDoc(subject, (), obj, rng.choice(ao), purpose, environment)))
        plan = Plan(name, EHEALTH / "bundle.conf", items, (policy,), proxy=False)
    elif name == "ehealth-proxy":
        # half Permits (forwarded), a quarter each masked and open refusals
        quota = {"permit": POOL // 2, "masked": POOL // 4, "open": POOL - POOL // 2 - POOL // 4}
        items = []
        while any(quota.values()):
            item = _proxy_item(rng.choice(PROXY_METHODS), *_ehealth_draw(rng, store, kb))
            request, _ = build_access_request(item.wire, kb, store)
            verdict = oracle_decide(store, request)
            kind = "permit" if verdict.value is DecisionValue.PERMIT else "masked" if verdict.masked else "open"
            if quota[kind]:
                quota[kind] -= 1
                items.append(item)
        plan = Plan(name, EHEALTH / "bundle.conf", items, (policy,), proxy=True)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    plan.stores, plan.kb = [store], kb
    return plan


# --- checks -----------------------------------------------------------------


def check_response(plan: Plan, index: int, slots, response) -> tuple[str | None, object]:
    """(problem or None, the expected decision it matched)."""
    problem = "no response"
    for slot in sorted(slots):
        expected = plan.expected(index, slot)
        problem = (_check_proxy if plan.proxy else _check_decide)(plan, index, expected, response)
        if problem is None:
            return None, expected
    return problem, None


def _check_decide(plan, index, expected, response) -> str | None:
    if response.status != 200:
        return f"status {response.status}"
    value = expected.value.value
    if response.headers.get("x-decision") != value:
        return f"X-Decision {response.headers.get('x-decision')!r}, expected {value}"
    got = parse_xacml_response(response.body)
    want = response_doc_for(expected)
    if (got.decision, got.status, got.right, got.rule) != (want.decision, want.status, want.right, want.rule):
        return f"body {got.decision}/{got.status}/{got.right}/{got.rule}, expected {want.decision}/{want.status}/{want.right}/{want.rule}"
    # the engine-side expectation also pins the trace, all but its store version line
    if plan.reference is decide and got.trace[1:] != want.trace[1:]:
        return "trace differs"
    return None


def _check_proxy(plan, index, expected, response) -> str | None:
    value = expected.value.value
    if response.headers.get("x-decision") != value:
        return f"X-Decision {response.headers.get('x-decision')!r}, expected {value}"
    if expected.value is DecisionValue.PERMIT:
        if response.status != 200:
            return f"status {response.status} on Permit"
        path = "/" + plan.items[index].wire.resource_id
        if json.loads(response.body).get("path") != path:
            return f"upstream answered for another path than {path}"
        return None
    if response.status != 403:
        return f"status {response.status} on {value}"
    text = response.body.decode("utf-8")
    if expected.masked:
        return None if text == "access denied" else "masked refusal leaks detail"
    if not text.startswith(f"decision: {value}\n"):
        return "refusal explanation has the wrong decision line"
    if expected.matched_rule and expected.matched_rule not in text:
        return "refusal explanation does not name the matched rule"
    return None


def read_audit(path: Path) -> list:
    """The gateway's audit records, one per line."""
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def decision_mix(decisions) -> dict:
    mix = Counter(d.value.value for d in decisions)
    total = max(1, sum(mix.values()))
    out = {v.value: mix.get(v.value, 0) for v in DecisionValue}
    out["masked_share"] = round(sum(1 for d in decisions if d.masked) / total, 3)
    return out
