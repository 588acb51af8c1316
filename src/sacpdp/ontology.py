"""Domain ontologies: four directed acyclic concept graphs and their lookups.

Access decisions are grounded in four graphs, one per vocabulary:

* ``SO``  -- subjects: the roles and classes a requester can hold.
* ``OO``  -- objects: the resource classes requests are made against.
* ``AO``  -- actions: what can be done to an object.
* ``AtO`` -- attributes: certified properties, with optional equivalences.

Each graph carries ``is-a`` edges (child -> parent).  ``SO`` may additionally
carry role-inheritance edges and ``AtO`` may carry equivalence edges; those
relations are rejected anywhere else.  Nodes are either concepts or
individuals; an individual may only sit below concepts, and matching treats it
as subsumed by every concept it instantiates.

Graphs are immutable once built.  All structural validation happens in
:func:`build_graph` / :func:`load_ontology`; the query functions
(:func:`subsumes`, :func:`subsumption_path`, :func:`inherited_rights_roles`
and :func:`equivalent_attributes`) assume a validated graph and only ever
raise for unknown or mis-tagged references.

:func:`build_graph` also builds, once, the sets that follow from the graph
alone: ``ancestors`` on every graph, ``rights`` on SO and ``components`` on
AtO (see :class:`OntologyGraph`).  A graph that is kept keeps its sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import xmlbase
from .errors import (
    CycleDetectedError,
    DanglingReferenceError,
    DuplicateIdError,
    UnknownConceptError,
    WrongOntologyTagError,
)
from .xmlbase import required_attr

ONTOLOGY_KINDS = ("SO", "OO", "AO", "AtO")

CONCEPT = "concept"
INDIVIDUAL = "individual"

#: Reserved id produced by the parser for an absent target part.  Matching
#: treats it as "any concept of this ontology"; it can never be declared as a
#: real node id.
WILDCARD_ID = "*"


@dataclass(frozen=True)
class ConceptRef:
    """A node reference tagged with the ontology it must resolve in."""

    ontology: str
    id: str

    def __post_init__(self) -> None:
        if self.ontology not in ONTOLOGY_KINDS:
            raise WrongOntologyTagError(
                f"unknown ontology tag {self.ontology!r} (expected one of {ONTOLOGY_KINDS})"
            )
        if not self.id:
            raise ValueError("concept id must be non-empty")


@dataclass(frozen=True)
class AttributeDescriptor:
    """A certified attribute: either required by a rule or presented by a requester.

    ``soa_id`` names the attribute authority that issued (or must issue) the
    certificate.  ``equivalence_enabled`` controls whether AtO equivalence
    widens name matching for this descriptor.  ``value`` is an optional typed
    scalar payload (used when an attribute also carries context data).
    """

    attribute_id: str
    name: str
    soa_id: str = ""
    equivalence_enabled: bool = False
    value: str | int | float | bool | None = None


@dataclass(frozen=True)
class OntologyGraph:
    """One validated, immutable ontology.

    ``node_kinds`` maps every declared id to ``concept`` or ``individual``.
    ``isa_edges`` holds (child, parent) pairs; ``role_inherit_edges`` holds
    (junior, senior) pairs where the junior role additionally acquires every
    right of the senior role; ``equiv_edges`` holds unordered attribute pairs
    stored canonically as sorted tuples.  ``property_arcs`` are informational
    labeled arcs and never influence matching.

    ``ancestors`` maps every node to its inclusive is-a ancestors, the
    encoding of a hierarchy by its ancestor sets (Ait-Kaci et al., TOPLAS
    1989).  On SO, ``rights`` maps every node to the ancestors of every role
    whose rights it holds; on AtO, ``components`` maps every node to its
    equivalence component.  Both are empty elsewhere.
    """

    kind: str
    node_kinds: Mapping[str, str]
    isa_edges: frozenset
    role_inherit_edges: frozenset
    equiv_edges: frozenset
    property_arcs: tuple = ()
    # derived adjacency and sets, built with the graph; excluded from equality
    # so two graphs are equal iff their declared node/edge sets are equal
    _parents: Mapping[str, tuple] = field(default_factory=dict, compare=False, repr=False)
    _inherit_targets: Mapping[str, tuple] = field(default_factory=dict, compare=False, repr=False)
    ancestors: Mapping[str, frozenset] = field(default_factory=dict, compare=False, repr=False)
    rights: Mapping[str, frozenset] = field(default_factory=dict, compare=False, repr=False)
    components: Mapping[str, frozenset] = field(default_factory=dict, compare=False, repr=False)

    def require(self, ref: ConceptRef) -> str:
        """Validate a reference against this graph and return its id."""
        if ref.ontology != self.kind:
            raise WrongOntologyTagError(
                f"reference {ref.id!r} is tagged {ref.ontology} but was used against {self.kind}"
            )
        if ref.id not in self.node_kinds:
            raise UnknownConceptError(f"{self.kind} has no node {ref.id!r}")
        return ref.id


def build_graph(
    kind: str,
    nodes: Mapping[str, str],
    isa_edges: Iterable[tuple],
    role_inherit_edges: Iterable[tuple] = (),
    equiv_edges: Iterable[tuple] = (),
    property_arcs: Iterable[tuple] = (),
) -> OntologyGraph:
    """Validate raw node/edge sets and assemble an OntologyGraph.

    Raises:
        WrongOntologyTagError: unknown kind, or a relation used in the wrong
            ontology (role inheritance outside SO, equivalence outside AtO).
        DuplicateIdError: a node id declared twice (callers that parse
            documents detect this before the mapping collapses duplicates).
        DanglingReferenceError: an edge endpoint that is not a declared node.
        CycleDetectedError: is-a or role-inheritance edges form a cycle; the
            message names one concrete cycle.
    """
    if kind not in ONTOLOGY_KINDS:
        raise WrongOntologyTagError(f"unknown ontology kind {kind!r}")
    node_kinds = dict(nodes)
    for node_id, node_kind in node_kinds.items():
        if node_kind not in (CONCEPT, INDIVIDUAL):
            raise DanglingReferenceError(f"node {node_id!r} has unknown kind {node_kind!r}")
        if node_id == WILDCARD_ID:
            raise DuplicateIdError(f"node id {WILDCARD_ID!r} is reserved")

    isa = frozenset(tuple(e) for e in isa_edges)
    inherit = frozenset(tuple(e) for e in role_inherit_edges)
    equiv = frozenset(tuple(sorted(e)) for e in equiv_edges)
    arcs = tuple(tuple(a) for a in property_arcs)

    if inherit and kind != "SO":
        raise WrongOntologyTagError(f"role inheritance is only valid in SO, not {kind}")
    if equiv and kind != "AtO":
        raise WrongOntologyTagError(f"attribute equivalence is only valid in AtO, not {kind}")

    for child, parent in isa:
        for end in (child, parent):
            if end not in node_kinds:
                raise DanglingReferenceError(f"is-a edge references undeclared node {end!r}")
        if node_kinds[parent] == INDIVIDUAL:
            raise DanglingReferenceError(
                f"individual {parent!r} cannot be an is-a parent (of {child!r})"
            )
    for junior, senior in inherit:
        for end in (junior, senior):
            if end not in node_kinds:
                raise DanglingReferenceError(f"inherit edge references undeclared node {end!r}")
    for a, b in equiv:
        for end in (a, b):
            if end not in node_kinds:
                raise DanglingReferenceError(f"equiv edge references undeclared node {end!r}")
    for src, _label, dst in arcs:
        for end in (src, dst):
            if end not in node_kinds:
                raise DanglingReferenceError(f"property arc references undeclared node {end!r}")

    parents, isa_order = _topological(kind, "is-a", node_kinds, isa)
    inherit_targets, inherit_order = _topological(kind, "inherits", node_kinds, inherit)

    return OntologyGraph(
        kind=kind,
        node_kinds=node_kinds,
        isa_edges=isa,
        role_inherit_edges=inherit,
        equiv_edges=equiv,
        property_arcs=arcs,
        _parents=parents,
        _inherit_targets=inherit_targets,
        **_derived_sets(kind, (parents, isa_order), (inherit_targets, inherit_order), equiv),
    )


def _derived_sets(kind: str, isa: tuple, inherit: tuple, equiv: frozenset) -> dict:
    """The graph's ``ancestors``, ``rights`` and ``components``; ``isa`` and
    ``inherit`` are each relation's successors and topological order."""
    ancestors = _closure(*isa, {node: frozenset((node,)) for node in isa[1]})
    sets = {"ancestors": ancestors}
    if kind == "SO":
        sets["rights"] = _closure(*inherit, ancestors)
    if kind == "AtO":
        neighbors: dict[str, list] = {node: [] for node in isa[1]}
        for a, b in equiv:
            neighbors[a].append(b)
            neighbors[b].append(a)
        components: dict[str, frozenset] = {}
        for start in neighbors:
            if start not in components:
                component, queue = {start}, [start]
                while queue:
                    fresh = set(neighbors[queue.pop()]) - component
                    component |= fresh
                    queue += fresh
                components.update(dict.fromkeys(component, frozenset(component)))
        sets["components"] = components
    return sets


def _closure(successors: Mapping[str, tuple], order: list, own: Mapping[str, frozenset]) -> dict[str, frozenset]:
    """Every node's own set united with its successors' sets, each built
    once, in an ``order`` that lists every node after its successors."""
    sets: dict[str, frozenset] = {}
    for node in order:
        nexts = successors[node]
        sets[node] = own[node].union(*(sets[nxt] for nxt in nexts)) if nexts else own[node]
    return sets


def _topological(kind: str, label: str, nodes: Mapping[str, str], edges: frozenset) -> tuple[dict, list]:
    """Every node's successors over ``edges``, in sorted order, and the
    nodes in an order that lists each after its successors.  Raises
    CycleDetectedError, naming one concrete cycle, if the edges form one."""
    # iterative three-color DFS; on a back edge, reconstruct the cycle path
    succ: dict[str, list] = {n: [] for n in nodes}
    for a, b in sorted(edges):
        succ[a].append(b)
    order: list[str] = []
    state: dict[str, int] = {}
    for start in sorted(nodes):
        if state.get(start):
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CycleDetectedError(f"{kind} {label}", cycle)
                if not state.get(nxt):
                    state[nxt] = 1
                    path.append(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                path.pop()
                stack.pop()
    return {n: tuple(v) for n, v in succ.items()}, order


def subsumes(graph: OntologyGraph, ancestor: ConceptRef, descendant: ConceptRef) -> bool:
    """True iff ``descendant`` is ``ancestor`` or reaches it over is-a edges.

    Reflexive and transitive by construction.  Both references must carry the
    graph's ontology tag and resolve to declared nodes.  Answered by the same
    walk the engine runs, :func:`subsumption_path`.
    """
    return subsumption_path(graph, ancestor, descendant) is not None


def subsumption_path(graph: OntologyGraph, ancestor: ConceptRef, descendant: ConceptRef) -> list[str] | None:
    """A concrete is-a chain from descendant up to ancestor, or None.

    Used for decision traces; shortest chain, deterministic for a given graph.
    """
    top = graph.require(ancestor)
    start = graph.require(descendant)
    if top == start:
        return [start]
    prev: dict[str, str] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for parent in graph._parents[node]:
            if parent in seen:
                continue
            prev[parent] = node
            if parent == top:
                chain = [parent]
                while chain[-1] != start:
                    chain.append(prev[chain[-1]])
                chain.reverse()
                return chain
            seen.add(parent)
            queue.append(parent)
    return None


def inherited_rights_roles(graph: OntologyGraph, role: ConceptRef) -> set:
    """All roles whose rights ``role`` holds: itself plus every role reachable
    over role-inheritance edges (junior -> senior direction)."""
    start = graph.require(role)
    closure = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for senior in graph._inherit_targets[node]:
            if senior not in closure:
                closure.add(senior)
                queue.append(senior)
    return {ConceptRef(graph.kind, node) for node in closure}


def equivalent_attributes(graph: OntologyGraph, attr: AttributeDescriptor) -> frozenset:
    """The attribute-name equivalence set governing matching for ``attr``.

    With equivalence disabled this is just ``{attr.name}``; enabled, it is the
    connected component of the name under AtO equivalence edges (symmetric and
    transitive closure), as the graph holds it.
    """
    if attr.name not in graph.node_kinds:
        raise UnknownConceptError(f"{graph.kind} has no attribute node {attr.name!r}")
    if not attr.equivalence_enabled:
        return frozenset((attr.name,))
    return graph.components[attr.name]


# --- document form ---------------------------------------------------------
#
# <ontology kind="SO">
#   <concept id="doctor"/>
#   <individual id="joan"/>
#   <isa child="doctor" parent="Anyperson"/>
#   <inherits junior="expert" senior="doctor"/>   (SO only)
#   <equiv a="doctor" b="physician"/>             (AtO only)
#   <arc from="doctor" label="treats" to="patient"/>
# </ontology>

#: Each edge element's tag and the attributes that name its ends, in order.
_EDGES = {
    "isa": ("child", "parent"),
    "inherits": ("junior", "senior"),
    "equiv": ("a", "b"),
    "arc": ("from", "label", "to"),
}


def load_ontology(text: str | bytes) -> OntologyGraph:
    """Parse and validate one ontology document."""
    root = xmlbase.parse_root(text, "ontology")
    kind = root.get("kind", "")
    if kind not in ONTOLOGY_KINDS:
        raise WrongOntologyTagError(f"unknown ontology kind {kind!r}")

    nodes: dict[str, str] = {}
    edges: dict[str, list[tuple]] = {tag: [] for tag in _EDGES}
    for child in xmlbase.each_child(root, many=(CONCEPT, INDIVIDUAL, *_EDGES), where="in ontology document"):
        if child.tag in _EDGES:
            edges[child.tag].append(tuple([required_attr(child, name) for name in _EDGES[child.tag]]))
        else:
            node_id = required_attr(child, "id")
            if node_id in nodes:
                raise DuplicateIdError(f"node {node_id!r} declared twice")
            nodes[node_id] = child.tag
    return build_graph(kind, nodes, edges["isa"], edges["inherits"], edges["equiv"], edges["arc"])


def serialize_ontology(graph: OntologyGraph) -> str:
    """Canonical document form; parse(serialize(g)) equals g."""
    root = xmlbase.elem("ontology", {"kind": graph.kind})
    for node_id in sorted(graph.node_kinds):
        root.children.append(xmlbase.elem(graph.node_kinds[node_id], {"id": node_id}))
    for child, parent in sorted(graph.isa_edges):
        root.children.append(xmlbase.elem("isa", {"child": child, "parent": parent}))
    for junior, senior in sorted(graph.role_inherit_edges):
        root.children.append(xmlbase.elem("inherits", {"junior": junior, "senior": senior}))
    for a, b in sorted(graph.equiv_edges):
        root.children.append(xmlbase.elem("equiv", {"a": a, "b": b}))
    for src, label, dst in graph.property_arcs:
        root.children.append(xmlbase.elem("arc", {"from": src, "label": label, "to": dst}))
    return xmlbase.render_xml(root)
