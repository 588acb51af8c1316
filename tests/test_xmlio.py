"""Document I/O: parsing, canonical serialization, golden files, error positions."""

import gc
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EHEALTH, GOLDEN
from randgen import random_store
from sacpdp.bundle import SLOTS, parse_document
from sacpdp.errors import (
    DocumentError,
    DuplicateIdError,
    DuplicateRuleNameError,
    MalformedXmlError,
    MissingCategoryError,
    SacError,
    UnknownConditionTypeError,
    UnknownElementError,
    UnknownOntologyRefError,
)
from sacpdp.ontology import load_ontology
from sacpdp.policy import ANY_PURPOSE, Atom, Empty, Op
from sacpdp.registry import parse_registry
from sacpdp.xmlbase import elem, parse_xml, render_xml
from sacpdp.xmlio import (
    MAX_CONDITION_DEPTH,
    XacmlRequestDoc,
    XacmlResponseDoc,
    flag_enabled,
    parse_policy,
    parse_purposes,
    parse_rule,
    parse_xacml_request,
    parse_xacml_response,
    serialize_policy,
    serialize_purposes,
    serialize_rule,
    serialize_xacml_request,
    serialize_xacml_response,
)


class TestFlagTable:
    def test_enabling_spellings(self):
        assert flag_enabled("Enabled") is True
        assert flag_enabled("Enable") is True

    @pytest.mark.parametrize(
        "raw", ["enabled", "ENABLED", "true", "True", "1", "yes", "Disabled", "", None]
    )
    def test_everything_else_disables(self, raw):
        assert flag_enabled(raw) is False


def test_markup_characters_escaped():
    raw = '& < > " \n \t \r'
    text = render_xml(elem("root", {"a": raw}, elem("leaf", text=raw), elem("empty", {"b": raw})))
    attr = '"&amp; &lt; &gt; &quot; &#10; &#9; &#13;"'
    assert text == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f"<root a={attr}>\n"
        f'  <leaf>&amp; &lt; &gt; " \n \t \r</leaf>\n'
        f"  <empty b={attr}/>\n"
        "</root>\n"
    )
    tree = parse_xml(text)
    assert (tree.get("a"), tree.find("empty").get("b")) == (raw, raw)


class TestGoldenFixtures:
    def test_one_rule_certified_attribute_policy(self):
        text = (GOLDEN / "certificate_gate_policy.xml").read_text(encoding="utf-8")
        doc = parse_policy(text)
        assert len(doc.rules) == 1
        rule = doc.rules[0]
        assert rule.name == "Auth_doctors"
        assert rule.public is False
        assert len(rule.required_attributes) == 1
        attr = rule.required_attributes[0]
        assert attr.name == "doctor"
        assert attr.soa_id == "hospital_ADMIN"
        assert attr.equivalence_enabled is True
        # defaulted target means wildcards everywhere
        assert rule.subject.id == "*"
        assert rule.object.id == "*"
        assert rule.action.id == "*"
        assert rule.purpose == ANY_PURPOSE
        assert isinstance(rule.condition, Empty)

    def test_widened_target_rule(self):
        text = (GOLDEN / "treatment_records_rule.xml").read_text(encoding="utf-8")
        rule = parse_rule(text)
        assert rule.subject.ontology == "SO" and rule.subject.id == "Anyperson"
        assert [v.name for v in rule.subject_attr_vars] == ["doctors"]
        assert rule.object.ontology == "OO" and rule.object.id == "Anyperson"
        assert [v.name for v in rule.object_attr_vars] == ["patients"]
        assert rule.action.ontology == "AO" and rule.action.id == "read"
        assert rule.right == "modification"
        assert rule.purpose == "treat"
        assert rule.condition == Atom("work_history", Op.EQUALS, "work more than three years")

    @pytest.mark.parametrize("name", ["certificate_gate_policy.xml", "treatment_records_rule.xml"])
    def test_byte_exact_round_trip(self, name):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        if "policy" in name:
            assert serialize_policy(parse_policy(text)) == text
        else:
            assert serialize_rule(parse_rule(text)) == text


class TestPolicyDocuments:
    def test_fixture_parses_to_four_rules(self):
        text = (EHEALTH / "ehealth_policy.xml").read_text(encoding="utf-8")
        doc = parse_policy(text)
        assert [r.name for r in doc.rules] == [
            "Read_patient_records",
            "Consulting_email_access",
            "Partner_research_access",
            "Auth_doctors",
        ]
        assert [r.priority for r in doc.rules] == [9, 5, 5, 2]
        assert [r.public for r in doc.rules] == [False, True, True, False]

    def test_canonical_omissions(self):
        text = (EHEALTH / "ehealth_policy.xml").read_text(encoding="utf-8")
        # defaults are dropped: read_only right, any-purpose, string valueType
        assert "<Right" not in text
        assert "n/a" not in text
        assert 'valueType="string"' not in text
        assert 'valueType="int"' in text

    def test_empty_policy(self):
        doc = parse_policy("<spl:policy><spl:access_Rules/></spl:policy>")
        assert doc.rules == ()
        reparsed = parse_policy(serialize_policy(doc))
        assert reparsed.rules == ()

    def test_duplicate_rule_name_with_position(self):
        text = (
            "<spl:policy><spl:access_Rules>"
            '<spl:access_Rule Name="a"/>\n'
            '<spl:access_Rule Name="a"/>'
            "</spl:access_Rules></spl:policy>"
        )
        with pytest.raises(DuplicateRuleNameError) as err:
            parse_policy(text)
        assert "a" in str(err.value)
        assert err.value.line == 2

    def test_default_rule_names_by_position(self):
        text = (
            "<spl:policy><spl:access_Rules>"
            "<spl:access_Rule/><spl:access_Rule/>"
            "</spl:access_Rules></spl:policy>"
        )
        doc = parse_policy(text)
        assert [r.name for r in doc.rules] == ["rule_0", "rule_1"]

    def test_malformed_xml_position(self):
        with pytest.raises(MalformedXmlError) as err:
            parse_policy("<spl:policy>\n  <oops\n</spl:policy>")
        assert err.value.line >= 2

    def test_unknown_element_rejected(self):
        with pytest.raises(UnknownElementError):
            parse_policy(
                "<spl:policy><spl:access_Rules><quack/></spl:access_Rules></spl:policy>"
            )

    def test_unknown_ontology_ref(self):
        with pytest.raises(UnknownOntologyRefError):
            parse_rule('<rule><Target><Subject name="x" ontologyRef="XX"/></Target></rule>')

    def test_unknown_condition_type(self):
        with pytest.raises(UnknownConditionTypeError):
            parse_rule('<rule><Condition attribute="a" reference="1" type="Sorta"/></rule>')

    def test_rule_default_name(self):
        rule = parse_rule("<rule/>")
        assert rule.name == "rule"
        assert rule.subject.id == "*"

    def test_prefix_accepted_literally(self):
        # the scaffolding prefix is part of the tag names, no namespace machinery
        text = (EHEALTH / "ehealth_policy.xml").read_text(encoding="utf-8")
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<spl:policy')
        parse_policy(text)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_policies(self, seed):
        rng = random.Random(seed)
        store = random_store(rng, max_rules=6)
        text = serialize_policy(store.policy)
        reparsed = parse_policy(text)
        assert reparsed.rules == store.policy.rules
        # canonical output is a fixed point
        assert serialize_policy(reparsed) == text

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_rules(self, seed):
        rng = random.Random(seed)
        store = random_store(rng, max_rules=3)
        for rule in store.policy.rules:
            assert parse_rule(serialize_rule(rule)) == rule


class TestPurposeDocuments:
    def test_fixture_round_trip(self):
        text = (EHEALTH / "ehealth_purposes.xml").read_text(encoding="utf-8")
        tree = parse_purposes(text)
        assert tree.root == "general"
        assert tree.parent["surgery"] == "treat"
        assert serialize_purposes(tree) == text

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            parse_purposes(
                '<purposes><purpose id="a"/><purpose id="a"/></purposes>'
            )

    def test_two_roots_rejected(self):
        with pytest.raises(DocumentError):
            parse_purposes('<purposes><purpose id="a"/><purpose id="b"/></purposes>')

    def test_dangling_parent(self):
        with pytest.raises(DocumentError):
            parse_purposes('<purposes><purpose id="a" parent="zzz"/></purposes>')


class TestRequestDocuments:
    def test_fixture_parses(self):
        text = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_text(encoding="utf-8")
        doc = parse_xacml_request(text)
        assert doc.subject_id == "joan"
        assert doc.resource_id == "records/jen"
        assert doc.action_id == "read"
        assert doc.purpose_id == "treat"
        assert doc.environment == {"years_of_service": 5}
        assert serialize_xacml_request(doc) == text

    def test_typed_environment_round_trip(self):
        doc = XacmlRequestDoc(
            subject_id="s",
            subject_attributes=(),
            resource_id="r",
            action_id="read",
            purpose_id="treat",
            environment={"i": 3, "f": 2.5, "b": True, "s": "text"},
        )
        reparsed = parse_xacml_request(serialize_xacml_request(doc))
        assert reparsed.environment == {"i": 3, "f": 2.5, "b": True, "s": "text"}
        assert isinstance(reparsed.environment["i"], int)
        assert isinstance(reparsed.environment["f"], float)
        assert isinstance(reparsed.environment["b"], bool)

    @pytest.mark.parametrize("missing", ["subject", "resource", "action", "purpose", "environment"])
    def test_missing_category(self, missing):
        parts = {
            "subject": '<subject id="s"/>',
            "resource": '<resource id="r"/>',
            "action": '<action id="a"/>',
            "purpose": '<purpose id="p"/>',
            "environment": "<environment/>",
        }
        body = "".join(v for k, v in parts.items() if k != missing)
        with pytest.raises(MissingCategoryError):
            parse_xacml_request(f"<request>{body}</request>")

    def test_wire_subject_attributes(self):
        text = (
            "<request>"
            '<subject id="joan">'
            '<attribute name="doctor" soa="hospital_ADMIN" e="Enabled"/>'
            '<attribute name="years_of_service" value="5" type="int"/>'
            "</subject>"
            '<resource id="jen_record"/><action id="read"/><purpose id="treat"/>'
            "<environment/>"
            "</request>"
        )
        doc = parse_xacml_request(text)
        assert len(doc.subject_attributes) == 2
        assert doc.subject_attributes[0].soa_id == "hospital_ADMIN"
        assert doc.subject_attributes[0].equivalence_enabled is True
        assert doc.subject_attributes[1].value == 5


class TestRequestShape:
    """Every category appears once, and only subject and environment have
    children."""

    def test_repeated_category_is_rejected(self):
        text = (
            '<request>\n<subject id="joan"/>\n<subject id="mallory"><bogus/></subject>\n'
            '<resource id="r"/><action id="a"/><purpose id="p"/><environment/>\n</request>'
        )
        with pytest.raises(UnknownElementError) as err:
            parse_xacml_request(text)
        assert str(err.value) == "<request> has more than one <subject> (line 3, column 0)"

    @pytest.mark.parametrize("category", ["resource", "action", "purpose"])
    def test_child_of_an_id_only_category_is_rejected(self, category):
        parts = {c: f'<{c} id="x"/>' for c in ("subject", "resource", "action", "purpose")}
        parts[category] = f'<{category} id="x">\n  <x/>\n</{category}>'
        text = "<request>" + "".join(parts.values()) + "<environment/></request>"
        with pytest.raises(UnknownElementError) as err:
            parse_xacml_request(text)
        assert str(err.value) == f"unexpected element <x> in <{category}> (line 2, column 2)"

    def test_malformed_xml_still_wins(self):
        text = '<request><subject id="a"/><subject id="b"/><resource id="r">'
        with pytest.raises(MalformedXmlError):
            parse_xacml_request(text)

    def test_request_children_are_checked_before_missing_categories(self):
        with pytest.raises(UnknownElementError):
            parse_xacml_request('<request><resource id="r"><x/></resource></request>')


def test_parses_leave_no_cyclic_garbage():
    request = (EHEALTH / "requests" / "01_doctor_reads_record.xml").read_bytes()
    policy = (EHEALTH / "ehealth_policy.xml").read_bytes()
    ontology = (EHEALTH / "ehealth_so.xml").read_bytes()
    gc.collect()
    gc.disable()
    try:
        parse_xacml_request(request)
        parse_policy(policy)
        load_ontology(ontology)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestResponseDocuments:
    def test_not_applicable_is_bare(self):
        doc = XacmlResponseDoc(decision="NotApplicable", status="not applicable")
        text = serialize_xacml_response(doc)
        assert text.count("NotApplicable") == 1
        assert "<trace" not in text
        assert "<rule" not in text

    def test_full_round_trip(self):
        doc = XacmlResponseDoc(
            decision="Permit",
            status="ok",
            right="read_only",
            rule="some_rule",
            trace=("store version 1", "selected rule some_rule: Permit"),
        )
        assert parse_xacml_response(serialize_xacml_response(doc)) == doc

    def test_masked_round_trip(self):
        doc = XacmlResponseDoc(decision="Deny", status="access denied")
        reparsed = parse_xacml_response(serialize_xacml_response(doc))
        assert reparsed.rule is None
        assert reparsed.trace == ()


# Every wrong-root and unexpected-child error of every document dialect, with
# its exact message and position; the request cases share one skeleton.
_REQUEST = (
    '<request>\n<subject id="s">{subject}</subject>\n'
    '<resource id="r"/><action id="a"/><purpose id="p"/>\n'
    "<environment>{environment}</environment>\n</request>"
)
_DOCUMENT_ERRORS = [
    (parse_policy, '<?xml version="1.0"?>\n<policy/>',
     "expected <spl:policy> root, found <policy> (line 2, column 0)", 2),
    (parse_policy, "<spl:policy>\n  <spl:rules/>\n</spl:policy>",
     "unexpected element <spl:rules> in <spl:policy> (line 2, column 2)", 2),
    (parse_policy, "<spl:policy>\n  <spl:access_Rules>\n    <rule/>\n  </spl:access_Rules>\n</spl:policy>",
     "unexpected element <rule> in <spl:access_Rules> (line 3, column 4)", 3),
    (parse_rule, "\n<spl:access_Rule/>",
     "expected <rule> root, found <spl:access_Rule> (line 2, column 0)", 2),
    (parse_rule, "<rule>\n  <Effect/>\n</rule>",
     "unexpected element <Effect> in <rule> (line 2, column 2)", 2),
    (parse_rule, '<rule>\n  <Target>\n    <Resource name="x"/>\n  </Target>\n</rule>',
     "unexpected element <Resource> in <Target> (line 3, column 4)", 3),
    (parse_rule, "<rule>\n  <spl:attribute_Set>\n    <attribute/>\n  </spl:attribute_Set>\n</rule>",
     "unexpected element <attribute> in <spl:attribute_Set> (line 3, column 4)", 3),
    (parse_rule,
     "<rule><spl:attribute_Set>\n  <spl:attribute>\n    <spl:attribute_Name>a</spl:attribute_Name>\n"
     "    <spl:Issuer/>\n  </spl:attribute>\n</spl:attribute_Set></rule>",
     "unexpected element <spl:Issuer> in <spl:attribute> (line 4, column 4)", 4),
    (parse_rule, '<rule>\n  <Condition type="And">\n    <Not/>\n  </Condition>\n</rule>',
     "unexpected element <Not> inside <Condition type='And'> (line 3, column 4)", 3),
    (parse_rule, '<rule>\n  <Condition type="In" attribute="a">\n    <item>x</item>\n  </Condition>\n</rule>',
     'unexpected element <item> inside <Condition type="In"> (line 3, column 4)', 3),
    (parse_purposes, '\n\n<purpose id="x"/>',
     "expected <purposes> root, found <purpose> (line 3, column 0)", 3),
    (parse_purposes, '<purposes>\n  <purpose id="a"/>\n  <goal id="b"/>\n</purposes>',
     "unexpected element <goal> in <purposes> (line 3, column 2)", 3),
    (parse_xacml_request, "<req/>",
     "expected <request> root, found <req> (line 1, column 0)", 1),
    (parse_xacml_request, "<request>\n  <subjects/>\n</request>",
     "unexpected element <subjects> in <request> (line 2, column 2)", 2),
    (parse_xacml_request, _REQUEST.format(subject='\n<role id="x"/>', environment=""),
     "unexpected element <role> in <subject> (line 3, column 0)", 3),
    (parse_xacml_request, _REQUEST.format(subject="", environment='\n<value name="x"/>'),
     "unexpected element <value> in <environment> (line 5, column 0)", 5),
    (parse_xacml_response, "\n<decision>Permit</decision>",
     "expected <response> root, found <decision> (line 2, column 0)", 2),
    (load_ontology, '<graph kind="SO"/>',
     "expected <ontology> root, found <graph> (line 1, column 0)", 1),
    (load_ontology, '<ontology kind="SO">\n  <concept id="a"/>\n  <node id="b"/>\n</ontology>',
     "unexpected element <node> in ontology document (line 3, column 2)", 3),
    (parse_registry, "\n<knowledge/>",
     "expected <registry> root, found <knowledge> (line 2, column 0)", 2),
    (parse_registry, '<registry>\n  <user id="x"/>\n</registry>',
     "unexpected element <user> in <registry> (line 2, column 2)", 2),
    (parse_registry, '<registry>\n  <subject id="x">\n    <role id="y"/>\n  </subject>\n</registry>',
     "unexpected element <role> in <subject> (line 3, column 4)", 3),
    (parse_registry,
     '<registry>\n  <object id="x">\n    <concept id="y"/>\n    <owner/>\n  </object>\n</registry>',
     "unexpected element <owner> in <object> (line 4, column 4)", 4),
    # a stray child after <spl:access_Rules>, with and without a faulty rule
    # before it: every child of the root is checked before any rule is read
    (parse_policy, "<spl:policy>\n  <spl:access_Rules/>\n  <spl:rules/>\n</spl:policy>",
     "unexpected element <spl:rules> in <spl:policy> (line 3, column 2)", 3),
    (parse_policy, "<spl:policy>\n  <spl:access_Rules><rule/></spl:access_Rules>\n  <spl:rules/>\n</spl:policy>",
     "unexpected element <spl:rules> in <spl:policy> (line 3, column 2)", 3),
    (parse_policy, "<spl:policy>\n  <spl:access_Rules/>\n  <spl:access_Rules/>\n</spl:policy>",
     "<spl:policy> has more than one <spl:access_Rules> (line 3, column 2)", 3),
    (parse_policy,
     '<spl:policy><spl:access_Rules>\n  <spl:access_Rule>\n    <Right type="a"/>\n    <Right type="b"/>\n'
     "  </spl:access_Rule>\n</spl:access_Rules></spl:policy>",
     "<spl:access_Rule> has more than one <Right> (line 4, column 4)", 4),
    (parse_rule, "<rule>\n  <Target/>\n  <Target/>\n</rule>",
     "<rule> has more than one <Target> (line 3, column 2)", 3),
    (parse_rule, '<rule>\n  <Target>\n    <Subject name="a"/>\n    <Subject name="b"/>\n  </Target>\n</rule>',
     "<Target> has more than one <Subject> (line 4, column 4)", 4),
    # an <spl:attribute> with its name or its issuer twice
    (parse_rule,
     "<rule><spl:attribute_Set>\n  <spl:attribute>\n    <spl:attribute_Name>a</spl:attribute_Name>\n"
     "    <spl:attribute_Name>b</spl:attribute_Name>\n  </spl:attribute>\n</spl:attribute_Set></rule>",
     "<spl:attribute> has more than one <spl:attribute_Name> (line 4, column 4)", 4),
    (parse_rule,
     "<rule><spl:attribute_Set>\n  <spl:attribute>\n    <spl:attribute_Name>a</spl:attribute_Name>\n"
     "    <spl:SOA_ID>x</spl:SOA_ID>\n    <spl:SOA_ID>y</spl:SOA_ID>\n  </spl:attribute>\n</spl:attribute_Set></rule>",
     "<spl:attribute> has more than one <spl:SOA_ID> (line 5, column 4)", 5),
    (parse_xacml_request,
     '<request>\n<subject id="joan"/>\n<subject id="mallory"/>\n'
     '<resource id="r"/><action id="a"/><purpose id="p"/><environment/>\n</request>',
     "<request> has more than one <subject> (line 3, column 0)", 3),
    (parse_xacml_request,
     '<request>\n<subject id="s"/>\n<resource id="r"/><action id="a"/><purpose id="p">\n<x/></purpose>\n'
     "<environment/>\n</request>",
     "unexpected element <x> in <purpose> (line 4, column 0)", 4),
    (parse_xacml_response,
     "<response>\n  <decision>Permit</decision>\n  <decision>Deny</decision>\n  <status>ok</status>\n</response>",
     "<response> has more than one <decision> (line 3, column 2)", 3),
    (parse_xacml_response,
     "<response>\n  <decision>Permit</decision>\n  <status>ok</status>\n  <bogus/>\n</response>",
     "unexpected element <bogus> in <response> (line 4, column 2)", 4),
    (parse_xacml_response,
     "<response>\n  <decision>Permit</decision>\n  <status>ok</status>\n  <trace>\n"
     "    <entry>x</entry>\n    <note>y</note>\n  </trace>\n</response>",
     "unexpected element <note> in <trace> (line 6, column 4)", 6),
]


@pytest.mark.parametrize(
    "parse, text, message, line",
    _DOCUMENT_ERRORS,
    ids=[f"{case[0].__name__}-{index}" for index, case in enumerate(_DOCUMENT_ERRORS)],
)
def test_document_error_messages_pinned(parse, text, message, line):
    with pytest.raises(UnknownElementError) as err:
        parse(text)
    assert type(err.value) is UnknownElementError
    assert str(err.value) == message
    assert err.value.line == line


# Values a document's author or an admin upload might put in any attribute:
# empty, not a number, negative, out of float range, NaN, two tokens, the
# wildcard, and the flag spelling of a different attribute.
HOSTILE_VALUES = ["", "ten", "-1", "1e400", "nan", "x y", "*", "Enabled"]
_READERS = [
    *((EHEALTH / f"ehealth_{key}.xml", partial(parse_document, slot)) for slot, (key, _) in SLOTS.items()),
    *((path, parse_xacml_request) for path in sorted((EHEALTH / "requests").glob("*.xml"))),
]


@pytest.mark.parametrize("path, parse", _READERS, ids=[path.name for path, _ in _READERS])
def test_hostile_attribute_values_raise_only_sac_errors(path, parse):
    # each attribute value of the document in turn, replaced by each hostile
    # value: the reader returns, or raises the SacError its callers expect
    text = path.read_text(encoding="utf-8")
    escaped = []
    for match in re.finditer(r'="[^"]*"', text):
        for value in HOSTILE_VALUES:
            try:
                parse(f'{text[:match.start()]}="{value}"{text[match.end():]}')
            except SacError:
                pass
            except Exception as exc:  # every escape is collected and reported
                line = text.count("\n", 0, match.start()) + 1
                escaped.append(f"line {line} {match.group()} -> {value!r}: {exc!r}")
    assert escaped == []


# Each reader's own document, with a chain of elements nested 5000 deep as
# its root's first child: the reader returns, or raises a SacError; the tree
# build and the schema walk overflow no stack.
_DEEP_READERS = [
    *((EHEALTH / f"ehealth_{key}.xml", partial(parse_document, slot)) for slot, (key, _) in SLOTS.items()),
    (EHEALTH / "requests" / "01_doctor_reads_record.xml", parse_xacml_request),
    (GOLDEN / "treatment_records_rule.xml", parse_rule),
    (GOLDEN / "decide_response_01.xml", parse_xacml_response),
]


@pytest.mark.parametrize("path, parse", _DEEP_READERS, ids=[path.name for path, _ in _DEEP_READERS])
def test_deeply_nested_documents_raise_only_sac_errors(path, parse):
    text = path.read_text(encoding="utf-8")
    root = re.search(r"<[^?][^>]*>", text).end()
    try:
        parse(text[:root] + "<x>" * 5000 + "</x>" * 5000 + text[root:])
    except SacError:
        pass


def _condition_chain(depth: int) -> str:
    # depth - 1 nested <Condition type="And"> around one atom, one per line
    atom = '<Condition attribute="a" reference="1" type="Equals"/>\n'
    return '<Condition type="And">\n' * (depth - 1) + atom + "</Condition>\n" * (depth - 1)


def test_condition_nesting_is_bounded():
    parse_rule(f"<rule>\n{_condition_chain(MAX_CONDITION_DEPTH)}</rule>")
    for depth in (MAX_CONDITION_DEPTH + 1, 600):
        with pytest.raises(DocumentError) as err:
            parse_rule(f"<rule>\n{_condition_chain(depth)}</rule>")
        assert type(err.value) is DocumentError
        # the first <Condition> too deep, on the line after its 32 parents
        assert str(err.value) == (
            f"<Condition> is nested deeper than {MAX_CONDITION_DEPTH} levels "
            f"(line {MAX_CONDITION_DEPTH + 2}, column 0)"
        )
