"""Equivalence gates: each lean request-path step against the generic
construction it replaced, which is kept here and nowhere else.

* the response template against ``render_xml`` of the response tree;
* the request parse, whose fast pass takes no tree, against ``parse_root``
  plus a walk of the tree, document and error alike; each refusal of the fast
  pass is pinned, and a valid request never takes the slow path;
* the compiled rule scan against the clause-by-clause traced walk, rule by
  rule, and ``decide`` against evaluating every rule with that walk;
* a store over graphs kept from an earlier store against one over graphs
  built afresh from their documents;
* the audit-line template against ``json.dumps(record, sort_keys=True)``,
  whatever the order of the record's keys, and its timestamp against
  ``datetime.isoformat``.
"""

import calendar
import json
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EHEALTH
from randgen import random_request_for, random_store
from sacpdp import ontology, xmlio
from sacpdp.ontology import AttributeDescriptor, load_ontology, serialize_ontology
from sacpdp.service import _audit_line, _timestamp
from sacpdp.errors import DocumentError, MissingCategoryError, UnknownElementError
from sacpdp.pdp import (
    _COMBINE_PRECEDENCE,
    Decision,
    DecisionValue,
    _evaluate_rule_traced,
    _RequestSets,
    _trace_rule,
    activate_store,
    decide,
)
from sacpdp.policy import PolicyDocument
from sacpdp.xmlbase import elem, parse_root, render_xml, unexpected
from sacpdp.xmlio import (
    XacmlRequestDoc,
    XacmlResponseDoc,
    parse_scalar,
    parse_wire_attribute,
    parse_xacml_request,
    required_attr,
    serialize_xacml_request,
    serialize_xacml_response,
)

# --- response template ------------------------------------------------------

MARKUP = st.text(alphabet=st.sampled_from(list('ab &<>"\n\t\r\'é')), max_size=12)
TEXT = st.one_of(MARKUP, st.text(max_size=12))


def response_tree_text(doc: XacmlResponseDoc) -> str:
    children = [elem("decision", text=doc.decision), elem("status", text=doc.status)]
    if doc.right:
        children.append(elem("right", {"id": doc.right}))
    if doc.rule:
        children.append(elem("rule", {"name": doc.rule}))
    if doc.trace:
        children.append(elem("trace", {}, *[elem("entry", text=e) for e in doc.trace]))
    return render_xml(elem("response", {}, *children))


@given(
    decision=TEXT,
    status=TEXT,
    right=st.one_of(st.none(), TEXT),
    rule=st.one_of(st.none(), TEXT),
    trace=st.lists(TEXT, max_size=4).map(tuple),
)
@settings(max_examples=300, deadline=None)
def test_response_template_matches_tree(decision, status, right, rule, trace):
    doc = XacmlResponseDoc(decision=decision, status=status, right=right, rule=rule, trace=trace)
    assert serialize_xacml_response(doc) == response_tree_text(doc)


# --- request parse ----------------------------------------------------------

_CATEGORIES = ("subject", "resource", "action", "environment", "purpose")


def tree_parse_request(text) -> XacmlRequestDoc:
    """A request by the tree walk, with every category once and no child
    under resource, action or purpose."""
    root = parse_root(text, "request")
    seen = set()
    for child in root.children:
        if child.tag not in _CATEGORIES:
            raise unexpected(child, "in <request>")
        if child.tag in seen:
            raise UnknownElementError(
                f"<request> has more than one <{child.tag}>", child.line, child.column
            )
        seen.add(child.tag)
        if child.tag not in ("subject", "environment") and child.children:
            raise unexpected(child.children[0], f"in <{child.tag}>")
    for category in ("subject", "resource", "action", "environment", "purpose"):
        if root.find(category) is None:
            raise MissingCategoryError(
                f"request is missing the {category} category", root.line, root.column
            )
    subject = root.find("subject")
    attributes = []
    for child in subject.children:
        if child.tag != "attribute":
            raise unexpected(child, "in <subject>")
        attributes.append(parse_wire_attribute(child))
    environment = {}
    for child in root.find("environment").children:
        if child.tag != "attribute":
            raise unexpected(child, "in <environment>")
        name = required_attr(child, "name")
        environment[name] = parse_scalar(child.get("type", "string"), required_attr(child, "value"), child)
    return XacmlRequestDoc(
        subject_id=required_attr(subject, "id"),
        subject_attributes=tuple(attributes),
        resource_id=required_attr(root.find("resource"), "id"),
        action_id=required_attr(root.find("action"), "id"),
        purpose_id=required_attr(root.find("purpose"), "id"),
        environment=environment,
    )


def outcome(parse, text):
    try:
        return parse(text)
    except DocumentError as exc:
        return type(exc), str(exc), exc.line, exc.column


def rarely(draw, odds: int = 12) -> bool:
    # True last: Hypothesis favours the first choice and shrinks towards it
    return draw(st.sampled_from([False] * (odds - 1) + [True]))


IDS = st.sampled_from(["joan", "records/jen", "read", "a&b", "x y"])
VALUES = st.sampled_from(["5", "-2", "2.5", "true", "x<y"])


@st.composite
def wire_attribute(draw):
    attrs = {"name": draw(st.sampled_from(["doctor", "medic", "years"]))}
    for key, values in (
        ("soa", st.sampled_from(["hospital_ADMIN", ""])),
        ("e", st.sampled_from(["Enabled", "no"])),
        ("value", VALUES),
        ("type", st.sampled_from(["string", "int", "decimal", "bool"])),
        ("attribute_id", st.sampled_from(["c1", ""])),
    ):
        if draw(st.booleans()):
            attrs[key] = draw(values)
    if rarely(draw):
        attrs[draw(st.sampled_from(["name", "value", "type"]))] = draw(st.sampled_from(["", "no", "date"]))
    # a grandchild of a category is not checked, by either parser
    return ("attribute", attrs, [("x", {}, [])] if rarely(draw, 20) else [])


@st.composite
def wire_request(draw):
    """A request element tree, mostly well formed, with rare mutations:
    dropped, repeated, reordered or unknown categories, stray children and
    grandchildren, missing or empty ids, bad values and types."""
    def category(tag):
        attrs = {} if tag == "environment" else {"id": draw(IDS)}
        if rarely(draw, 20):
            attrs["id"] = ""
        if rarely(draw, 20):
            attrs.pop("id", None)
        children = []
        if tag in ("subject", "environment"):
            children = draw(st.lists(wire_attribute(), max_size=3))
        if rarely(draw, 25):
            children.insert(draw(st.integers(0, len(children))), (draw(st.sampled_from(["role", "x"])), {}, []))
        return (tag, attrs, children)

    tags = list(_CATEGORIES)
    if rarely(draw, 4):
        tags = list(draw(st.permutations(tags)))
    if rarely(draw):
        tags.remove(draw(st.sampled_from(_CATEGORIES)))
    if rarely(draw):
        tags.insert(draw(st.integers(0, len(tags))), draw(st.sampled_from(_CATEGORIES)))
    if rarely(draw):
        tags.insert(draw(st.integers(0, len(tags))), "bogus")
    children = [category(tag) if tag != "bogus" else ("bogus", {}, []) for tag in tags]
    return ("req" if rarely(draw, 20) else "request", {}, children)


def render(node, indent, depth=0) -> str:
    tag, attrs, children = node
    pad = indent * depth
    attr_text = "".join(f' {k}="{escape(v)}"' for k, v in attrs.items())
    if not children:
        return f"{pad}<{tag}{attr_text}/>"
    inner = "\n".join(render(c, indent, depth + 1) for c in children)
    return f"{pad}<{tag}{attr_text}>\n{inner}\n{pad}</{tag}>"


def escape(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


@given(
    tree=wire_request(),
    indent=st.sampled_from(["", "  ", "\t"]),
    declaration=st.booleans(),
    cut=st.one_of(st.none(), st.none(), st.none(), st.floats(0, 1)),
    as_bytes=st.booleans(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_request_parse_matches_tree_walk(tree, indent, declaration, cut, as_bytes):
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n' if declaration else "") + render(tree, indent)
    if cut is not None:  # truncated XML
        text = text[: int(len(text) * cut)]
    data = text.encode("utf-8") if as_bytes else text
    assert outcome(parse_xacml_request, data) == outcome(tree_parse_request, data)


def test_request_parse_matches_tree_walk_on_invalid_utf8():
    data = b'<request><subject id="jo\xffan"/></request>'
    assert outcome(parse_xacml_request, data) == outcome(tree_parse_request, data)


# Each reason the fast pass hands a request to the walk, pinned: cases the
# generator reaches rarely or never (its stray children carry no attributes).
_SKELETON = (
    '<{root}>\n<subject id="{subject}">{subject_children}</subject>\n'
    '<resource id="records/jen">{resource_children}</resource>\n'
    '{action}<purpose id="treat"/>\n'
    "<environment>{environment_children}</environment>{extra}\n</{root}>"
)
_PARTS = dict(
    root="request", subject="joan", subject_children="", resource_children="",
    action='<action id="read"/>\n', environment_children="", extra="",
)
_HANDED_TO_THE_WALK = {
    "req-root": dict(root="req"),
    "repeated-category": dict(extra='\n<action id="write"/>'),
    "unknown-category": dict(extra='\n<context id="ward"/>'),
    "missing-category": dict(action=""),
    "child-of-resource": dict(resource_children='\n<attribute name="doctor"/>'),
    "named-non-attribute-in-subject": dict(subject_children='\n<cert name="doctor"/>'),
    "named-non-attribute-in-environment": dict(environment_children='\n<cert name="age" value="5"/>'),
    "empty-id": dict(subject=""),
    "attribute-without-name": dict(subject_children='\n<attribute soa="hospital_ADMIN"/>'),
    "environment-without-value": dict(environment_children='\n<attribute name="age"/>'),
    "bad-subject-value": dict(subject_children='\n<attribute name="years" type="int" value="five"/>'),
    "bad-environment-value": dict(environment_children='\n<attribute name="age" type="bool" value="yes"/>'),
}


@pytest.mark.parametrize("case", _HANDED_TO_THE_WALK)
def test_each_refusal_of_the_fast_pass_matches_tree_walk(case):
    text = _SKELETON.format(**{**_PARTS, **_HANDED_TO_THE_WALK[case]})
    got = outcome(parse_xacml_request, text)
    assert isinstance(got, tuple)  # refused, with the walk's error and position
    assert got == outcome(tree_parse_request, text)


def random_request_doc(rng: random.Random) -> XacmlRequestDoc:
    """A valid request document, with markup characters in its ids and
    typed values on either side."""
    ids = ["joan", "records/jen", "read", "treat", "a&b", "x<y", 'say "hi"', "é"]
    values = [5, -2, 2.5, True, False, "day", "a&b"]
    attributes = tuple(
        AttributeDescriptor(
            attribute_id=rng.choice(["c1", name]),
            name=name,
            soa_id=rng.choice(["hospital_ADMIN", ""]),
            equivalence_enabled=rng.random() < 0.5,
            value=rng.choice([None, *values]),
        )
        for name in rng.sample(["doctor", "medic", "years"], rng.randint(0, 3))
    )
    return XacmlRequestDoc(
        subject_id=rng.choice(ids),
        subject_attributes=attributes,
        resource_id=rng.choice(ids),
        action_id=rng.choice(ids),
        purpose_id=rng.choice(ids),
        environment={name: rng.choice(values) for name in rng.sample(["age", "consent", "shift"], rng.randint(0, 3))},
    )


def test_valid_requests_never_take_the_walk(monkeypatch):
    def walk(root):
        raise AssertionError("a valid request was walked")

    monkeypatch.setattr(xmlio, "_walk_request", walk)
    for path in sorted((EHEALTH / "requests").glob("*.xml")):
        parse_xacml_request(path.read_bytes())
    rng = random.Random(23)
    for _ in range(200):
        doc = random_request_doc(rng)
        assert parse_xacml_request(serialize_xacml_request(doc)) == doc


# --- rule scan --------------------------------------------------------------


def traced_decide(store, req) -> Decision:
    """Every rule walked clause by clause, then combined."""
    version_entry = f"store version {store.version}"
    evaluated = []
    for index, rule in enumerate(store.policy.rules):
        value, trace = _trace_rule(rule, req, store)
        evaluated.append((index, rule, value, trace))
    applicable = [e for e in evaluated if e[2] is not DecisionValue.NOT_APPLICABLE]
    if not applicable:
        explanation = (
            version_entry,
            f"no applicable rules: none of the {len(evaluated)} rule(s) matched the request",
        )
        return Decision(DecisionValue.NOT_APPLICABLE, None, None, explanation, False)
    top = max(e[1].priority for e in applicable)
    pool = [e for e in applicable if e[1].priority == top]
    index, rule, value, trace = min(pool, key=lambda e: (_COMBINE_PRECEDENCE.index(e[2]), e[0]))
    explanation = (
        version_entry,
        f"combining: {len(applicable)} applicable rule(s), highest priority {top}",
        *trace,
        f"selected rule {rule.name}: {value.value}",
    )
    return Decision(
        value=value,
        granted_right=rule.right if value is DecisionValue.PERMIT else None,
        matched_rule=rule.name,
        explanation=explanation,
        masked=(not rule.public) and value is not DecisionValue.PERMIT,
    )


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=400, deadline=None)
def test_scan_value_matches_traced_walk_for_every_rule(seed):
    # random stores; requests with ghost concepts, ghost actions, unknown
    # purposes, untrusted issuers and wrong-kind context values
    rng = random.Random(seed)
    store = random_store(rng)
    for _ in range(4):
        request = random_request_for(rng, store)
        facts = _RequestSets(store, request)
        for compiled in store.compiled.rules:
            scanned, trace = _evaluate_rule_traced(compiled, facts)
            assert trace == ()
            assert scanned is _trace_rule(compiled.rule, request, store)[0], compiled.rule.name
        assert decide(store, request) == traced_decide(store, request)


# --- graph sets kept across a policy swap -----------------------------------


def rebuilt(graph):
    """The same graph parsed afresh from its document, sets and all."""
    return load_ontology(serialize_ontology(graph))


@given(seed=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=200, deadline=None)
def test_reused_graph_sets_decide_as_fresh_ones(seed):
    # a new policy over the very same graphs keeps their ancestor, rights and
    # component sets, and decides exactly as a store over graphs built afresh
    rng = random.Random(seed)
    store = random_store(rng)
    rules = list(store.policy.rules)
    rng.shuffle(rules)
    policy = PolicyDocument(rules=tuple(rules[: rng.randint(0, len(rules))]))
    reused = activate_store(policy, store.graphs, store.purposes, store.trusted_soas, version=2)
    fresh_graphs = {kind: rebuilt(graph) for kind, graph in store.graphs.items()}
    fresh = activate_store(policy, fresh_graphs, store.purposes, store.trusted_soas, version=2)
    for kind, graph in store.graphs.items():
        kept, new = reused.graphs[kind], fresh.graphs[kind]
        assert kept is graph
        assert (kept.ancestors, kept.rights, kept.components) == (new.ancestors, new.rights, new.components)
    for _ in range(4):
        request = random_request_for(rng, store)
        assert decide(reused, request) == decide(fresh, request)


def test_new_graphs_are_compiled_afresh(monkeypatch):
    # a new graph's sets are built when the graph is, and activating a store
    # over it builds no graph set
    rng = random.Random(5)
    store = random_store(rng)
    other = random_store(rng)
    built = []
    derived_sets = ontology._derived_sets
    monkeypatch.setattr(ontology, "_derived_sets", lambda kind, *args: built.append(kind) or derived_sets(kind, *args))
    oo = rebuilt(other.graphs["OO"])
    assert built == ["OO"]
    graphs = {**store.graphs, "OO": oo}
    activated = activate_store(PolicyDocument(rules=()), graphs, store.purposes, store.trusted_soas)
    assert built == ["OO"]
    assert activated.graphs["OO"] is oo
    assert oo.ancestors == other.graphs["OO"].ancestors
    assert oo.ancestors is not store.graphs["OO"].ancestors


# --- audit line ---------------------------------------------------------------

# every kind of character json.dumps escapes, and lone surrogates besides
NASTY = st.text(alphabet=st.sampled_from(list('a "\\/\x00\x07\x1f\x7f\n\t\r\b\féд\u2028\U0001f600\ud800\udfff')), max_size=12)
ANY_TEXT = st.one_of(NASTY, st.text(alphabet=st.characters(exclude_categories=()), max_size=12))
FIELD = st.one_of(st.none(), ANY_TEXT)


# the key orders of the records that ClientConnection._audit and the
# benchmark's traced replay (bench/tracing.py, ts first) build
GATEWAY_ORDER = (
    "subject", "object", "action", "purpose", "decision", "masked", "matched_rule", "conflicts", "latency_ms", "ts",
)
BENCH_ORDER = (
    "ts", "subject", "object", "action", "purpose", "decision", "masked", "matched_rule", "latency_ms", "conflicts",
)


@given(
    action=FIELD,
    conflicts=st.lists(ANY_TEXT, max_size=3),
    decision=st.one_of(st.sampled_from(["Permit", "Deny", "Indeterminate", "NotApplicable", "error"]), ANY_TEXT),
    latency_ms=st.one_of(
        st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0, max_value=1e4).map(lambda x: round(x, 3)),
    ),
    masked=st.booleans(),
    matched_rule=FIELD,
    obj=FIELD,
    purpose=FIELD,
    subject=FIELD,
    ts=ANY_TEXT,
)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_audit_template_matches_json_dumps(
    action, conflicts, decision, latency_ms, masked, matched_rule, obj, purpose, subject, ts
):
    record = dict(
        action=action, decision=decision, latency_ms=latency_ms, masked=masked, matched_rule=matched_rule,
        object=obj, purpose=purpose, subject=subject, ts=ts,
    )
    if conflicts:
        record["conflicts"] = conflicts
    expected = json.dumps(record, sort_keys=True) + "\n"
    for order in (GATEWAY_ORDER, GATEWAY_ORDER[::-1], BENCH_ORDER):
        assert _audit_line(**{key: record[key] for key in order if key in record}) == expected


FIXED_INSTANTS = [
    datetime(1970, 1, 1, tzinfo=timezone.utc),
    datetime(1999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
    datetime(2000, 2, 29, 12, 0, 0, 1000, tzinfo=timezone.utc),
    datetime(2026, 10, 19, 15, 31, 32, 123456, tzinfo=timezone.utc),
    datetime(2038, 1, 19, 3, 14, 8, 999, tzinfo=timezone.utc),
    datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=timezone.utc),
]


@given(
    instant=st.one_of(
        st.sampled_from(FIXED_INSTANTS),
        st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(9999, 12, 31), timezones=st.just(timezone.utc)),
    ),
    extra_ns=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_timestamp_matches_isoformat(instant, extra_ns):
    # the nanoseconds below the microsecond never round the milliseconds up
    ns = calendar.timegm(instant.utctimetuple()) * 10**9 + instant.microsecond * 1000 + extra_ns
    assert _timestamp(ns) == instant.isoformat(timespec="milliseconds")
