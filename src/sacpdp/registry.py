"""Knowledge base: registered subjects/objects and context attribute ranges.

The registry is authoritative.  Wire-declared roles never create subject
concepts; wire-presented attribute certificates are merged only when their
issuer is trusted; on a context value conflict the registry value wins and
the conflict is reported so the gateway can note it in the audit record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import xmlbase
from .errors import DocumentError, DuplicateIdError, UnknownPurposeError
from .ontology import AttributeDescriptor, ConceptRef
from .pdp import AccessRequest, PolicyStore
from .policy import Scalar
from .xmlbase import elem
from .xmlio import XacmlRequestDoc, parse_scalar, parse_wire_attribute, required_attr, wire_attribute_node


@dataclass(frozen=True)
class RegistryEntry:
    """Concepts plus stored attribute certificates for one subject or object."""

    concepts: tuple = ()
    attributes: tuple = ()


# what an unregistered id resolves to
_NO_ENTRY = RegistryEntry()


@dataclass(frozen=True)
class ContextAttributeSpec:
    """Declared value range of one context attribute, for random generation.

    ``kind`` is int or string; int ranges are [low, high] inclusive, string
    ranges enumerate the drawable values.
    """

    attribute_id: str
    kind: str
    low: int = 0
    high: int = 0
    values: tuple = ()


@dataclass(frozen=True)
class KnowledgeBase:
    subjects: Mapping[str, RegistryEntry] = field(default_factory=dict)
    objects: Mapping[str, RegistryEntry] = field(default_factory=dict)
    context_specs: tuple = ()

    def validate(self, graphs) -> list[str]:
        """Every registered concept must resolve in its graph; all findings."""
        findings = []
        for side, entries in (("subject", self.subjects), ("object", self.objects)):
            expected = "SO" if side == "subject" else "OO"
            for entry_id, entry in sorted(entries.items()):
                for ref in entry.concepts:
                    if ref.ontology != expected:
                        findings.append(
                            f"registry {side} {entry_id!r}: concept {ref.id!r} tagged "
                            f"{ref.ontology}, expected {expected}"
                        )
                    elif ref.id not in graphs[expected].node_kinds:
                        findings.append(
                            f"registry {side} {entry_id!r}: {expected} has no node {ref.id!r}"
                        )
        return findings


# --- document form ----------------------------------------------------------
#
# <registry>
#   <subject id="joan">
#     <concept id="doctor"/>
#     <attribute name="doctor" soa="hospital_ADMIN" e="Enabled"/>
#   </subject>
#   <object id="records/jen"> ... </object>
#   <context_attribute id="age" kind="int" min="10" max="90"/>
#   <context_attribute id="consent" kind="string" values="given refused"/>
# </registry>
#
# A standing <attribute> is the request's subject <attribute> element, read and
# written by xmlio's parse_wire_attribute / wire_attribute_node.


def _parse_entry(node: xmlbase.XmlNode, concept_kind: str) -> RegistryEntry:
    concepts = []
    attributes = []
    for child in xmlbase.each_child(node, many=("concept", "attribute")):
        if child.tag == "concept":
            concepts.append(ConceptRef(concept_kind, required_attr(child, "id")))
        else:
            attributes.append(parse_wire_attribute(child))
    return RegistryEntry(concepts=tuple(concepts), attributes=tuple(attributes))


def parse_registry(text: str | bytes) -> KnowledgeBase:
    root = xmlbase.parse_root(text, "registry")
    subjects: dict[str, RegistryEntry] = {}
    objects: dict[str, RegistryEntry] = {}
    specs: list[ContextAttributeSpec] = []
    for child in xmlbase.each_child(root, many=("subject", "object", "context_attribute")):
        if child.tag in ("subject", "object"):
            entries, concept_kind = (subjects, "SO") if child.tag == "subject" else (objects, "OO")
            entry_id = required_attr(child, "id")
            if entry_id in entries:
                raise DuplicateIdError(f"{child.tag} {entry_id!r} declared twice")
            entries[entry_id] = _parse_entry(child, concept_kind)
        else:
            kind = required_attr(child, "kind")
            if kind == "int":
                attribute_id = required_attr(child, "id")
                low = parse_scalar("int", required_attr(child, "min"), child)
                high = parse_scalar("int", required_attr(child, "max"), child)
                if low > high:
                    raise DocumentError(
                        f"context_attribute {attribute_id!r}: min {low} is above max {high}", child.line, child.column
                    )
                specs.append(ContextAttributeSpec(attribute_id=attribute_id, kind="int", low=low, high=high))
            elif kind == "string":
                values = tuple(required_attr(child, "values").split())
                specs.append(
                    ContextAttributeSpec(
                        attribute_id=required_attr(child, "id"), kind="string", values=values
                    )
                )
            else:
                raise DocumentError(
                    f"context_attribute kind must be int or string, got {kind!r}",
                    child.line,
                    child.column,
                )
    return KnowledgeBase(subjects=subjects, objects=objects, context_specs=tuple(specs))


def serialize_registry(kb: KnowledgeBase) -> str:
    def entry_nodes(entry: RegistryEntry) -> list:
        nodes = [elem("concept", {"id": ref.id}) for ref in entry.concepts]
        return nodes + [wire_attribute_node(attr) for attr in entry.attributes]

    root = elem("registry")
    for sid in sorted(kb.subjects):
        root.children.append(elem("subject", {"id": sid}, *entry_nodes(kb.subjects[sid])))
    for oid in sorted(kb.objects):
        root.children.append(elem("object", {"id": oid}, *entry_nodes(kb.objects[oid])))
    for spec in kb.context_specs:
        if spec.kind == "int":
            root.children.append(
                elem(
                    "context_attribute",
                    {
                        "id": spec.attribute_id,
                        "kind": "int",
                        "max": str(spec.high),
                        "min": str(spec.low),
                    },
                )
            )
        else:
            root.children.append(
                elem(
                    "context_attribute",
                    {"id": spec.attribute_id, "kind": "string", "values": " ".join(spec.values)},
                )
            )
    return xmlbase.render_xml(root)


# --- request conversion -----------------------------------------------------


def build_access_request(
    wire: XacmlRequestDoc, kb: KnowledgeBase, store: PolicyStore
) -> tuple[AccessRequest, list[str]]:
    """Resolve a wire request against the knowledge base.

    Returns the normalized request plus a list of merge-conflict notes (the
    gateway copies those into the audit record).  The requested purpose must
    resolve in the active tree; everything else stays closed-world-lenient:
    unregistered ids simply resolve to empty concept sets.
    """
    if wire.purpose_id not in store.purposes:
        raise UnknownPurposeError(f"unknown purpose {wire.purpose_id!r}")

    subject = kb.subjects.get(wire.subject_id, _NO_ENTRY)
    obj = kb.objects.get(wire.resource_id, _NO_ENTRY)

    conflicts: list[str] = []
    context: dict[str, Scalar] = dict(wire.environment)
    for attr in wire.subject_attributes:
        if attr.value is not None:
            context[attr.name] = attr.value

    presented: list[AttributeDescriptor] = []
    for attr in subject.attributes + obj.attributes:
        presented.append(attr)
        if attr.value is not None:
            if attr.name in context and context[attr.name] != attr.value:
                conflicts.append(
                    f"context {attr.name}: request said {context[attr.name]!r}, "
                    f"registry says {attr.value!r}; registry wins"
                )
            context[attr.name] = attr.value
    for attr in wire.subject_attributes:
        # wire-asserted certificates only count when the issuer is trusted
        if attr.soa_id and attr.soa_id in store.trusted_soas:
            presented.append(attr)

    request = AccessRequest(
        subject_id=wire.subject_id,
        subject_concepts=frozenset(subject.concepts),
        presented_attributes=tuple(presented),
        object_id=wire.resource_id,
        object_concepts=frozenset(obj.concepts),
        action=ConceptRef("AO", wire.action_id),
        purpose=wire.purpose_id,
        context=context,
    )
    return request, conflicts
