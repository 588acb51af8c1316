"""Document dialects: policy, standalone rule, purpose tree, request, response.

The policy dialect keeps its historical ``spl:`` element prefix as a literal
tag prefix (no namespace URI is declared anywhere, so none is resolved).
Policy scaffolding elements carry the prefix; rule internals (Target, Right,
Purpose, Condition) are bare names.

Enable flags accept exactly "Enabled" or "Enable" as true; every other value
(including absence) is false.  Serializers write "Enabled" or omit the flag.

All serializers emit the canonical form of xmlbase.render_xml, with defaulted
components omitted: an all-wildcard Target, an empty attribute_Set, the
default right, the any-purpose marker "n/a", and the empty condition produce
no element at all.  parse(serialize(x)) is structurally equal to x, and
serializing twice is byte-identical.

Every reader takes an element's children through xmlbase.each_child, which
holds the one child rule: the tags a reader names, each once or many times,
and nothing else.  The readers keep only the field extraction.

The two documents of every decision request take no tree.  A response is
written from one template that yields the bytes render_xml would write for
its tree, with the escapes xmlbase uses.  A request is read by a fast pass:
expat handlers that fill its fields while it is well formed.  At anything
else the fast pass only notes the failure, and the request is parsed again
into a tree that one walk checks, raising the first finding.  So the order
of a request's findings is defined once, by the walk, and only refused
requests pay for the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import xmlbase
from .errors import (
    DanglingReferenceError,
    DocumentError,
    DuplicateIdError,
    DuplicateRuleNameError,
    MissingCategoryError,
    UnknownConditionTypeError,
    UnknownOntologyRefError,
)
from .ontology import ONTOLOGY_KINDS, AttributeDescriptor, ConceptRef, WILDCARD_ID
from .policy import (
    ANY_PURPOSE,
    AccessRule,
    And,
    Atom,
    AttributeVariable,
    ConditionExpr,
    EMPTY,
    Empty,
    Op,
    Or,
    PolicyDocument,
    PurposeTree,
    Scalar,
)
from .xmlbase import XmlNode, elem, required_attr

ANY_PURPOSE_MARKER = "n/a"
DEFAULT_RIGHT = "read_only"

_TRUE_FLAGS = ("Enabled", "Enable")


def flag_enabled(raw: str | None) -> bool:
    return raw in _TRUE_FLAGS


def _parse_bool_attr(node: XmlNode, name: str, default: bool) -> bool:
    raw = node.get(name)
    if raw is None:
        return default
    if raw not in ("true", "false"):
        raise DocumentError(
            f"<{node.tag}> attribute {name!r} must be true or false, got {raw!r}",
            node.line,
            node.column,
        )
    return raw == "true"


# --- typed scalars ----------------------------------------------------------

_VALUE_TYPES = ("string", "int", "bool", "decimal")


def parse_scalar(value_type: str, text: str, node: XmlNode | None = None) -> Scalar:
    """A typed value from its text; ``node`` (when the text came from a
    document) gives DocumentError its position."""
    line, column = (node.line, node.column) if node is not None else (0, 0)
    if value_type == "string":
        return text
    if value_type == "int":
        try:
            return int(text)
        except ValueError:
            raise DocumentError(f"not an int: {text!r}", line, column) from None
    if value_type == "decimal":
        try:
            return float(text)
        except ValueError:
            raise DocumentError(f"not a decimal: {text!r}", line, column) from None
    if value_type == "bool":
        if text not in ("true", "false"):
            raise DocumentError(f"not a bool: {text!r}", line, column)
        return text == "true"
    raise DocumentError(f"unknown valueType {value_type!r}", line, column)


def _value_type_of(node: XmlNode) -> str:
    vt = node.get("valueType", "string")
    if vt not in _VALUE_TYPES:
        raise DocumentError(f"unknown valueType {vt!r}", node.line, node.column)
    return vt


def _scalar_wire(value: Scalar) -> tuple[str, str]:
    """(valueType, text) for a scalar; floats use repr for exact round-trips."""
    if isinstance(value, bool):
        return "bool", ("true" if value else "false")
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "decimal", repr(value)
    return "string", value


# --- conditions -------------------------------------------------------------

_OPS_BY_NAME = {op.value: op for op in Op}
_CONNECTIVES = ("And", "Or")

#: The deepest ``<Condition>`` nesting a rule may have; the recursive
#: evaluators run out of stack far beyond it (near 490 levels).
MAX_CONDITION_DEPTH = 32


def _parse_condition(node: XmlNode, depth: int = 1) -> ConditionExpr:
    if depth > MAX_CONDITION_DEPTH:
        raise DocumentError(
            f"<Condition> is nested deeper than {MAX_CONDITION_DEPTH} levels",
            node.line,
            node.column,
        )
    kind = required_attr(node, "type")
    if kind in _CONNECTIVES:
        where = f"inside <Condition type={kind!r}>"
        children = [
            _parse_condition(child, depth + 1)
            for child in xmlbase.each_child(node, many=("Condition",), where=where)
        ]
        if not children:
            raise DocumentError(
                f"<Condition type={kind!r}> needs at least one child condition",
                node.line,
                node.column,
            )
        return And(tuple(children)) if kind == "And" else Or(tuple(children))
    op = _OPS_BY_NAME.get(kind)
    if op is None:
        raise UnknownConditionTypeError(
            f"unknown condition type {kind!r}", node.line, node.column
        )
    attribute = required_attr(node, "attribute")
    value_type = _value_type_of(node)
    if op is Op.IN:
        members = [
            parse_scalar(value_type, child.text, child)
            for child in xmlbase.each_child(node, many=("value",), where='inside <Condition type="In">')
        ]
        if not members:
            raise DocumentError(
                "<Condition type=\"In\"> needs at least one <value>", node.line, node.column
            )
        return Atom(attribute, op, tuple(members))
    reference = node.get("reference")
    if reference is None:
        raise DocumentError(
            f"<Condition type={kind!r}> is missing attribute 'reference'",
            node.line,
            node.column,
        )
    return Atom(attribute, op, parse_scalar(value_type, reference, node))


def _condition_node(expr: ConditionExpr) -> XmlNode:
    if isinstance(expr, (And, Or)):
        kind = "And" if isinstance(expr, And) else "Or"
        return elem("Condition", {"type": kind}, *[_condition_node(c) for c in expr.children])
    assert isinstance(expr, Atom)
    if expr.op is Op.IN:
        vt, _ = _scalar_wire(expr.reference[0])
        attrs = {"attribute": expr.attribute, "type": expr.op.value}
        if vt != "string":
            attrs["valueType"] = vt
        values = [elem("value", text=_scalar_wire(v)[1]) for v in expr.reference]
        return elem("Condition", attrs, *values)
    vt, text = _scalar_wire(expr.reference)
    attrs = {"attribute": expr.attribute, "reference": text, "type": expr.op.value}
    if vt != "string":
        attrs["valueType"] = vt
    return elem("Condition", attrs)


# --- rule target ------------------------------------------------------------

_TARGET_KINDS = {"Subject": "SO", "Object": "OO", "Action": "AO"}


def _check_ontology_ref(node: XmlNode, expected: str) -> None:
    ref = node.get("ontologyRef")
    if ref is None:
        return
    if ref not in ONTOLOGY_KINDS:
        raise UnknownOntologyRefError(
            f"<{node.tag}> names unknown ontology {ref!r}", node.line, node.column
        )
    if ref != expected:
        raise UnknownOntologyRefError(
            f"<{node.tag}> must reference {expected}, not {ref}", node.line, node.column
        )


def _parse_target(node: XmlNode):
    refs = {
        "Subject": ConceptRef("SO", WILDCARD_ID),
        "Object": ConceptRef("OO", WILDCARD_ID),
        "Action": ConceptRef("AO", WILDCARD_ID),
    }
    subject_vars: list[AttributeVariable] = []
    object_vars: list[AttributeVariable] = []
    for child in xmlbase.each_child(node, once=_TARGET_KINDS, many=("AttributeVariable",)):
        if child.tag in _TARGET_KINDS:
            kind = _TARGET_KINDS[child.tag]
            _check_ontology_ref(child, kind)
            refs[child.tag] = ConceptRef(kind, required_attr(child, "name"))
        else:
            _check_ontology_ref(child, "AtO")
            side = required_attr(child, "type")
            if side not in ("subject", "object"):
                raise DocumentError(
                    f"AttributeVariable type must be subject or object, got {side!r}",
                    child.line,
                    child.column,
                )
            var = AttributeVariable(required_attr(child, "name"), side)
            (subject_vars if side == "subject" else object_vars).append(var)
    return refs["Subject"], refs["Object"], refs["Action"], tuple(subject_vars), tuple(object_vars)


def _parse_attribute_set(node: XmlNode) -> tuple:
    required = []
    for child in xmlbase.each_child(node, many=("spl:attribute",)):
        parts = {
            sub.tag: sub.text
            for sub in xmlbase.each_child(child, once=("spl:attribute_Name", "spl:SOA_ID"))
        }
        name = parts.get("spl:attribute_Name")
        if not name:
            raise DocumentError(
                "<spl:attribute> needs a <spl:attribute_Name>", child.line, child.column
            )
        required.append(
            AttributeDescriptor(
                attribute_id=child.get("attributeID") or name,
                name=name,
                soa_id=parts.get("spl:SOA_ID", ""),
                equivalence_enabled=flag_enabled(child.get("e")),
            )
        )
    return tuple(required)


_RULE_CHILD_TAGS = ("spl:attribute_Set", "Target", "Right", "Purpose", "Condition")


def _parse_rule_element(node: XmlNode, default_name: str) -> AccessRule:
    name = node.get("Name") or default_name
    public = _parse_bool_attr(node, "Public", True)
    raw_priority = node.get("Priority", "0")
    try:
        priority = int(raw_priority)
    except ValueError:
        raise DocumentError(
            f"Priority must be an integer, got {raw_priority!r}", node.line, node.column
        ) from None
    if priority < 0:
        raise DocumentError(
            f"Priority must be >= 0, got {priority}", node.line, node.column
        )

    subject = ConceptRef("SO", WILDCARD_ID)
    obj = ConceptRef("OO", WILDCARD_ID)
    action = ConceptRef("AO", WILDCARD_ID)
    subject_vars: tuple = ()
    object_vars: tuple = ()
    required: tuple = ()
    purpose = ANY_PURPOSE
    condition: ConditionExpr = EMPTY
    right = DEFAULT_RIGHT
    for child in xmlbase.each_child(node, once=_RULE_CHILD_TAGS):
        if child.tag == "spl:attribute_Set":
            required = _parse_attribute_set(child)
        elif child.tag == "Target":
            subject, obj, action, subject_vars, object_vars = _parse_target(child)
        elif child.tag == "Right":
            right = required_attr(child, "type")
        elif child.tag == "Purpose":
            marker = required_attr(child, "type")
            purpose = ANY_PURPOSE if marker == ANY_PURPOSE_MARKER else marker
        elif child.tag == "Condition":
            condition = _parse_condition(child)
    return AccessRule(
        name=name,
        subject=subject,
        object=obj,
        action=action,
        purpose=purpose,
        condition=condition,
        right=right,
        subject_attr_vars=subject_vars,
        object_attr_vars=object_vars,
        required_attributes=required,
        public=public,
        priority=priority,
    )


def _rule_children(rule: AccessRule) -> list[XmlNode]:
    children: list[XmlNode] = []
    if rule.required_attributes:
        attr_nodes = []
        for attr in rule.required_attributes:
            attrs = {"attributeID": attr.attribute_id}
            if attr.equivalence_enabled:
                attrs["e"] = "Enabled"
            parts = [elem("spl:attribute_Name", text=attr.name)]
            if attr.soa_id:
                parts.append(elem("spl:SOA_ID", text=attr.soa_id))
            attr_nodes.append(elem("spl:attribute", attrs, *parts))
        children.append(elem("spl:attribute_Set", {}, *attr_nodes))
    targeted = (
        rule.subject.id != WILDCARD_ID
        or rule.object.id != WILDCARD_ID
        or rule.action.id != WILDCARD_ID
        or rule.subject_attr_vars
        or rule.object_attr_vars
    )
    if targeted:
        parts = []
        if rule.subject.id != WILDCARD_ID:
            parts.append(elem("Subject", {"name": rule.subject.id, "ontologyRef": "SO"}))
        for var in rule.subject_attr_vars:
            parts.append(
                elem("AttributeVariable", {"name": var.name, "ontologyRef": "AtO", "type": "subject"})
            )
        if rule.object.id != WILDCARD_ID:
            parts.append(elem("Object", {"name": rule.object.id, "ontologyRef": "OO"}))
        for var in rule.object_attr_vars:
            parts.append(
                elem("AttributeVariable", {"name": var.name, "ontologyRef": "AtO", "type": "object"})
            )
        if rule.action.id != WILDCARD_ID:
            parts.append(elem("Action", {"name": rule.action.id, "ontologyRef": "AO"}))
        children.append(elem("Target", {}, *parts))
    if rule.right != DEFAULT_RIGHT:
        children.append(elem("Right", {"type": rule.right}))
    if rule.purpose != ANY_PURPOSE:
        children.append(elem("Purpose", {"type": rule.purpose}))
    if not isinstance(rule.condition, Empty):
        children.append(_condition_node(rule.condition))
    return children


def _rule_attrs(rule: AccessRule) -> dict[str, str]:
    return {
        "Name": rule.name,
        "Priority": str(rule.priority),
        "Public": "true" if rule.public else "false",
    }


# --- policy documents -------------------------------------------------------


def parse_policy(text: str | bytes, source: str = "") -> PolicyDocument:
    root = xmlbase.parse_root(text, "spl:policy")
    version = root.get("version", "1")
    # the root's children are all checked before any rule is read
    found = list(xmlbase.each_child(root, once=("spl:access_Rules",)))
    if not found:
        raise DocumentError("<spl:policy> has no <spl:access_Rules>", root.line, root.column)
    rules = []
    names: set[str] = set()
    for index, child in enumerate(xmlbase.each_child(found[0], many=("spl:access_Rule",))):
        rule = _parse_rule_element(child, default_name=f"rule_{index}")
        if rule.name in names:
            raise DuplicateRuleNameError(
                f"rule name {rule.name!r} is declared twice", child.line, child.column
            )
        names.add(rule.name)
        rules.append(rule)
    return PolicyDocument(rules=tuple(rules), source=source, format_version=version)


def serialize_policy(doc: PolicyDocument) -> str:
    rule_nodes = [
        elem("spl:access_Rule", _rule_attrs(rule), *_rule_children(rule))
        for rule in doc.rules
    ]
    root = elem(
        "spl:policy",
        {"version": doc.format_version},
        elem("spl:access_Rules", {}, *rule_nodes),
    )
    return xmlbase.render_xml(root)


def parse_rule(text: str | bytes) -> AccessRule:
    """Parse a standalone rule document (root element ``<rule>``)."""
    root = xmlbase.parse_root(text, "rule")
    return _parse_rule_element(root, default_name="rule")


def serialize_rule(rule: AccessRule) -> str:
    return xmlbase.render_xml(elem("rule", _rule_attrs(rule), *_rule_children(rule)))


# --- purpose tree -----------------------------------------------------------


def parse_purposes(text: str | bytes) -> PurposeTree:
    root = xmlbase.parse_root(text, "purposes")
    parents: dict[str, str | None] = {}
    for child in xmlbase.each_child(root, many=("purpose",)):
        pid = required_attr(child, "id")
        if pid in parents:
            raise DuplicateIdError(f"purpose {pid!r} declared twice")
        parents[pid] = child.get("parent")
    roots = sorted(pid for pid, parent in parents.items() if parent is None)
    if len(roots) != 1:
        raise DocumentError(
            f"purpose tree must have exactly one root, found {len(roots)} ({roots})",
            root.line,
            root.column,
        )
    for pid, parent in parents.items():
        if parent is not None and parent not in parents:
            raise DanglingReferenceError(f"purpose {pid!r} names unknown parent {parent!r}")
    tree = PurposeTree(
        root=roots[0],
        parent={pid: parent for pid, parent in parents.items() if parent is not None},
    )
    # reject cycles disconnected from the root (they cannot reach it)
    for pid in parents:
        seen: set[str] = set()
        node = pid
        while node != tree.root:
            if node in seen:
                raise DocumentError(f"purpose {pid!r} is trapped in a parent cycle")
            seen.add(node)
            node = tree.parent[node]
    return tree


def serialize_purposes(tree: PurposeTree) -> str:
    nodes = []
    for pid in tree.ids():
        attrs = {"id": pid}
        if pid != tree.root:
            attrs["parent"] = tree.parent[pid]
        nodes.append(elem("purpose", attrs))
    return xmlbase.render_xml(elem("purposes", {}, *nodes))


# --- requests ---------------------------------------------------------------


@dataclass(slots=True)
class XacmlRequestDoc:
    """Parsed request wire document; ids are still unresolved strings."""

    subject_id: str
    subject_attributes: tuple
    resource_id: str
    action_id: str
    purpose_id: str
    environment: Mapping[str, Scalar] = field(default_factory=dict)


def parse_wire_attribute(node: XmlNode) -> AttributeDescriptor:
    """One certificate ``<attribute>`` element: a request's subject attribute or
    a registry entry's standing attribute (the two share this form)."""
    name = required_attr(node, "name")
    raw_value = node.get("value")
    value: Scalar | None = None
    if raw_value is not None:
        value = parse_scalar(node.get("type", "string"), raw_value, node)
    return AttributeDescriptor(
        attribute_id=node.get("attribute_id") or name,
        name=name,
        soa_id=node.get("soa", ""),
        equivalence_enabled=flag_enabled(node.get("e")),
        value=value,
    )


_CATEGORIES = ("subject", "resource", "action", "environment", "purpose")


class _RequestReader:
    """expat handlers that fill a well-formed request's fields as its
    elements arrive.

    Every category appears once and only subject and environment have
    children, so each element has exactly one place.  At anything else the
    reader only sets ``failed``, and the request is read again by
    :func:`_walk_request`, which raises its first finding.
    """

    def __init__(self) -> None:
        self.starts = 0
        # end events only need counting, so their handler is this list's
        # append, which runs no Python code: depth = starts - len(ends)
        self.ends: list[str] = []
        self.category = ""  # the latest depth-2 element
        self.ids: dict[str, str] = {}  # category -> id, for every category seen
        self.attributes: list[AttributeDescriptor] = []
        self.environment: dict[str, Scalar] = {}
        self.failed = False

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        self.starts += 1
        depth = self.starts - len(self.ends)
        if depth == 2:
            self.category = tag
            cid = attrs.get("id", "")
            if tag in self.ids or tag not in _CATEGORIES or not (cid or tag == "environment"):
                self.failed = True
            self.ids[tag] = cid
        elif depth == 3:
            try:
                if tag != "attribute":
                    self.failed = True
                elif self.category == "subject":
                    self.attributes.append(parse_wire_attribute(XmlNode(tag, attrs)))
                elif self.category == "environment" and attrs.get("name") and attrs.get("value"):
                    self.environment[attrs["name"]] = parse_scalar(attrs.get("type", "string"), attrs["value"])
                else:
                    self.failed = True
            except DocumentError:
                self.failed = True
        elif depth == 1 and tag != "request":
            self.failed = True


def _walk_request(root: XmlNode) -> XacmlRequestDoc:
    """A request from its tree.  Raises the first schema finding, checking
    the request's children, then that no category is missing, then the
    subject's and environment's children, then the ids."""
    found = {}
    for child in xmlbase.each_child(root, once=_CATEGORIES):
        found[child.tag] = child
        if child.tag not in ("subject", "environment"):
            next(xmlbase.each_child(child), None)  # any child at all is refused
    for category in _CATEGORIES:
        if category not in found:
            raise MissingCategoryError(
                f"request is missing the {category} category", root.line, root.column
            )
    subject = found["subject"]
    attributes = [parse_wire_attribute(child) for child in xmlbase.each_child(subject, many=("attribute",))]
    environment = {}
    for child in xmlbase.each_child(found["environment"], many=("attribute",)):
        name = required_attr(child, "name")
        environment[name] = parse_scalar(child.get("type", "string"), required_attr(child, "value"), child)
    return XacmlRequestDoc(
        subject_id=required_attr(subject, "id"),
        subject_attributes=tuple(attributes),
        resource_id=required_attr(found["resource"], "id"),
        action_id=required_attr(found["action"], "id"),
        purpose_id=required_attr(found["purpose"], "id"),
        environment=environment,
    )


def parse_xacml_request(text: str | bytes) -> XacmlRequestDoc:
    """A request from its wire document.  A well-formed request is read in
    one pass with no tree; any other is read again as a tree and walked.
    The first pass parses the whole document, so malformed XML is reported
    before any schema finding."""
    reader = _RequestReader()
    xmlbase.parse_events(text, reader.start, reader.ends.append)
    ids = reader.ids
    if reader.failed or len(ids) < len(_CATEGORIES):
        return _walk_request(xmlbase.parse_root(text, "request"))
    return XacmlRequestDoc(
        subject_id=ids["subject"],
        subject_attributes=tuple(reader.attributes),
        resource_id=ids["resource"],
        action_id=ids["action"],
        purpose_id=ids["purpose"],
        environment=reader.environment,
    )


def wire_attribute_node(attr: AttributeDescriptor) -> XmlNode:
    """The canonical ``<attribute>`` element; inverse of parse_wire_attribute."""
    attrs: dict[str, str] = {"name": attr.name}
    if attr.attribute_id != attr.name:
        attrs["attribute_id"] = attr.attribute_id
    if attr.soa_id:
        attrs["soa"] = attr.soa_id
    if attr.equivalence_enabled:
        attrs["e"] = "Enabled"
    if attr.value is not None:
        vt, text = _scalar_wire(attr.value)
        attrs["value"] = text
        if vt != "string":
            attrs["type"] = vt
    return elem("attribute", attrs)


def serialize_xacml_request(doc: XacmlRequestDoc) -> str:
    env_nodes = []
    for name in sorted(doc.environment):
        vt, text = _scalar_wire(doc.environment[name])
        attrs = {"name": name, "value": text}
        if vt != "string":
            attrs["type"] = vt
        env_nodes.append(elem("attribute", attrs))
    root = elem(
        "request",
        {},
        elem("subject", {"id": doc.subject_id}, *[wire_attribute_node(a) for a in doc.subject_attributes]),
        elem("resource", {"id": doc.resource_id}),
        elem("action", {"id": doc.action_id}),
        elem("purpose", {"id": doc.purpose_id}),
        elem("environment", {}, *env_nodes),
    )
    return xmlbase.render_xml(root)


# --- responses --------------------------------------------------------------


@dataclass(slots=True)
class XacmlResponseDoc:
    decision: str
    status: str
    right: str | None = None
    rule: str | None = None
    trace: tuple = ()


_STATUS_TEXT = {
    "Permit": "ok",
    "Deny": "access denied",
    "Indeterminate": "indeterminate",
    "NotApplicable": "not applicable",
}


def response_doc_for(decision) -> XacmlResponseDoc:
    """Build the wire view of a Decision; masking strips rule identity."""
    value = decision.value.value
    if decision.masked:
        return XacmlResponseDoc(decision=value, status="access denied")
    return XacmlResponseDoc(
        decision=value,
        status=_STATUS_TEXT[value],
        right=decision.granted_right,
        rule=decision.matched_rule,
        trace=tuple(decision.explanation),
    )


def serialize_xacml_response(doc: XacmlResponseDoc) -> str:
    """The canonical response, written from one template with no tree."""
    lines = [
        xmlbase.XML_DECL,
        "<response>",
        _leaf("  ", "decision", doc.decision),
        _leaf("  ", "status", doc.status),
    ]
    if doc.right:
        lines.append(f'  <right id="{xmlbase.escape_attr(doc.right)}"/>')
    if doc.rule:
        lines.append(f'  <rule name="{xmlbase.escape_attr(doc.rule)}"/>')
    if doc.trace:
        lines.append("  <trace>")
        lines += [_leaf("    ", "entry", entry) for entry in doc.trace]
        lines.append("  </trace>")
    lines.append("</response>\n")
    return "\n".join(lines)


def _leaf(pad: str, tag: str, text: str) -> str:
    # a text-only element as render_xml writes it; empty text self-closes
    if not text:
        return f"{pad}<{tag}/>"
    return f"{pad}<{tag}>{xmlbase.escape_text(text)}</{tag}>"


def parse_xacml_response(text: str | bytes) -> XacmlResponseDoc:
    root = xmlbase.parse_root(text, "response")
    parts = {}
    trace = ()
    for child in xmlbase.each_child(root, once=("decision", "status", "right", "rule", "trace")):
        parts[child.tag] = child
        if child.tag == "trace":
            trace = tuple(entry.text for entry in xmlbase.each_child(child, many=("entry",)))
    decision = parts.get("decision")
    status = parts.get("status")
    if decision is None or not decision.text:
        raise MissingCategoryError("response has no decision", root.line, root.column)
    if status is None:
        raise MissingCategoryError("response has no status", root.line, root.column)
    right = parts.get("right")
    rule = parts.get("rule")
    return XacmlResponseDoc(
        decision=decision.text,
        status=status.text,
        right=right.get("id") if right is not None else None,
        rule=rule.get("name") if rule is not None else None,
        trace=trace,
    )
