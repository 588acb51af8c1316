"""Reference decision procedure built on fully materialized closures.

This is the differential twin of pdp.decide: same contract, deliberately
different construction.  Where the engine matches against the sets built
with each graph, the oracle first materializes, from the declared edges
alone, complete reachability relations as one bitset row per node (Warren,
CACM 1975), the full attribute equivalence partition, and every purpose's
ancestor set, then evaluates each rule by table lookup and combines by
sorting an explicit outcome table.  The tables are built once per store, on
its first decision, and kept while the store lives.

It shares only data types with the engine.  It calls nothing in pdp or
ontology, and reads neither the sets built with each graph (``ancestors``,
``rights``, ``components``) nor the engine's combining constant, so a
corrupted engine cannot drag the oracle along with it.
"""

from __future__ import annotations

import weakref
from typing import Mapping

from .ontology import OntologyGraph, WILDCARD_ID
from .pdp import AccessRequest, Decision, DecisionValue, PolicyStore
from .policy import ANY_PURPOSE, And, Atom, Empty, Op, Or

_RANK = {DecisionValue.DENY: 0, DecisionValue.PERMIT: 1, DecisionValue.INDETERMINATE: 2}

_ERROR = "error"
_MISSING = "missing"


def _reach_rows(nodes: list[str], edges) -> tuple[dict, dict]:
    """Reflexive-transitive reachability: ``b`` is reachable from ``a`` iff
    ``rows[a] >> index[b] & 1``.  Warren's algorithm ORs row ``k`` into row
    ``i`` for each set bit ``k`` of row ``i`` in ascending order, in one pass
    over the bits below the diagonal, then one over those above it."""
    index = {n: i for i, n in enumerate(nodes)}
    rows = [1 << i for i in range(len(nodes))]
    for a, b in edges:
        rows[index[a]] |= 1 << index[b]
    for below in (True, False):
        for i, row in enumerate(rows):
            side = (1 << i) - 1 if below else -1 << (i + 1)
            k = -1
            while bits := row & side & (-1 << (k + 1)):
                k = (bits & -bits).bit_length() - 1
                row |= rows[k]
            rows[i] = row
    return index, dict(zip(nodes, rows))


def _members(nodes: list[str], row: int) -> list[str]:
    """The nodes whose bits are set in ``row``, in index order."""
    members = []
    while row:
        low = row & -row
        members.append(nodes[low.bit_length() - 1])
        row ^= low
    return members


def _equiv_partition(graph: OntologyGraph) -> dict:
    """Map every AtO node to its frozen equivalence component."""
    component = {n: {n} for n in graph.node_kinds}
    for a, b in sorted(graph.equiv_edges):
        if component[a] is not component[b]:
            merged = component[a] | component[b]
            for member in merged:
                component[member] = merged
    return {n: frozenset(members) for n, members in component.items()}


class _Tables:
    def __init__(self, store: PolicyStore) -> None:
        self.kinds = {}
        self.isa = {}
        for kind, graph in store.graphs.items():
            nodes = sorted(graph.node_kinds)
            self.kinds[kind] = set(nodes)
            self.isa[kind] = _reach_rows(nodes, graph.isa_edges)
        so_nodes = sorted(store.graphs["SO"].node_kinds)
        _, closure = _reach_rows(so_nodes, store.graphs["SO"].role_inherit_edges)
        # per SO node, in sorted order, every role whose rights it holds
        self.rights = {a: _members(so_nodes, row) for a, row in closure.items()}
        self.equiv = _equiv_partition(store.graphs["AtO"])
        tree = store.purposes
        self.purpose_ancestors = {}
        for pid in tree.ids():
            chain = {pid}
            node = pid
            while node != tree.root:
                node = tree.parent[node]
                chain.add(node)
            self.purpose_ancestors[pid] = frozenset(chain)


# id(store) -> (weak reference to the store, its tables).  A store is not
# hashable, so it is keyed by identity; its entry goes when the store does,
# before its id can be reused.
_TABLES: dict[int, tuple] = {}


def _tables_for(store: PolicyStore) -> _Tables:
    """The store's tables, built on its first decision and kept while it lives."""
    key = id(store)
    entry = _TABLES.get(key)
    if entry is not None and entry[0]() is store:
        return entry[1]
    tables = _Tables(store)
    _TABLES[key] = (weakref.ref(store, lambda _ref: _TABLES.pop(key, None)), tables)
    return tables


def _clause_concepts(tables, kind, rule_ref, concepts, widen_roles):
    """Match one target clause by table lookup.

    Returns True/False, or _ERROR when the engine would have hit an unknown or
    mis-tagged reference first (same sorted iteration order as the engine).
    """
    if rule_ref.id == WILDCARD_ID:
        return True
    known = tables.kinds[kind]
    index, rows = tables.isa[kind]
    for ref in sorted(concepts, key=lambda c: (c.ontology, c.id)):
        if ref.ontology != kind or ref.id not in known:
            return _ERROR
        if rule_ref.id not in known:
            # the engine's first subsumption walk from this concept would have
            # raised on the rule's own reference; empty concept sets never get here
            return _ERROR
        if widen_roles:
            candidates = tables.rights[ref.id]
        else:
            candidates = [ref.id]
        target = index[rule_ref.id]
        for node in candidates:
            if rows[node] >> target & 1:
                return True
    return False


def _kind_of(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


def _atom_result(atom: Atom, ctx: Mapping) -> object:
    if atom.attribute not in ctx:
        return _MISSING
    value = ctx[atom.attribute]
    if atom.op is Op.IN:
        if _kind_of(value) != _kind_of(atom.reference[0]):
            return _ERROR
        return value in atom.reference
    if _kind_of(value) != _kind_of(atom.reference):
        return _ERROR
    if atom.op in (Op.EQUALS, Op.NOT_EQUALS):
        equal = value == atom.reference
        return equal if atom.op is Op.EQUALS else not equal
    if _kind_of(value) != "number":
        return _ERROR
    if atom.op is Op.GREATER_THAN:
        return value > atom.reference
    if atom.op is Op.GREATER_THAN_OR_EQUAL:
        return value >= atom.reference
    if atom.op is Op.LESS_THAN:
        return value < atom.reference
    return value <= atom.reference


def _condition_result(expr, ctx: Mapping) -> object:
    """True, False, _MISSING, or _ERROR; evaluation is eager everywhere."""
    if isinstance(expr, Empty):
        return True
    if isinstance(expr, Atom):
        return _atom_result(expr, ctx)
    results = [_condition_result(child, ctx) for child in expr.children]
    if _ERROR in results:
        return _ERROR
    if isinstance(expr, And):
        if False in results:
            return False
        if _MISSING in results:
            return _MISSING
        return True
    assert isinstance(expr, Or)
    if True in results:
        return True
    if _MISSING in results:
        return _MISSING
    return False


def _rule_outcome(tables, store, rule, req) -> DecisionValue:
    subject = _clause_concepts(tables, "SO", rule.subject, req.subject_concepts, True)
    if subject is _ERROR:
        return DecisionValue.INDETERMINATE
    if not subject:
        return DecisionValue.NOT_APPLICABLE

    obj = _clause_concepts(tables, "OO", rule.object, req.object_concepts, False)
    if obj is _ERROR:
        return DecisionValue.INDETERMINATE
    if not obj:
        return DecisionValue.NOT_APPLICABLE

    action = _clause_concepts(tables, "AO", rule.action, {req.action}, False)
    if action is _ERROR:
        return DecisionValue.INDETERMINATE
    if not action:
        return DecisionValue.NOT_APPLICABLE

    for required in rule.required_attributes:
        if required.name not in tables.kinds["AtO"]:
            return DecisionValue.INDETERMINATE
        if required.equivalence_enabled:
            names = tables.equiv[required.name]
        else:
            names = frozenset((required.name,))
        if not any(
            p.name in names and p.soa_id in store.trusted_soas
            for p in req.presented_attributes
        ):
            return DecisionValue.NOT_APPLICABLE

    presented_names = {p.name for p in req.presented_attributes}
    for var in rule.subject_attr_vars + rule.object_attr_vars:
        if var.name not in presented_names:
            return DecisionValue.NOT_APPLICABLE

    if req.purpose not in tables.purpose_ancestors:
        return DecisionValue.INDETERMINATE
    if rule.purpose == ANY_PURPOSE:
        purpose_ok = True
    elif rule.purpose not in tables.purpose_ancestors:
        return DecisionValue.INDETERMINATE
    else:
        purpose_ok = rule.purpose in tables.purpose_ancestors[req.purpose]

    cond = _condition_result(rule.condition, req.context)
    if cond is _ERROR or cond is _MISSING:
        return DecisionValue.INDETERMINATE
    if purpose_ok and cond is True:
        return DecisionValue.PERMIT
    return DecisionValue.DENY


def oracle_decide(store: PolicyStore, req: AccessRequest) -> Decision:
    """Same observable contract as pdp.decide, computed the slow sure way."""
    tables = _tables_for(store)
    table = []
    for index, rule in enumerate(store.policy.rules):
        outcome = _rule_outcome(tables, store, rule, req)
        if outcome is not DecisionValue.NOT_APPLICABLE:
            table.append((-rule.priority, _RANK[outcome], index, rule, outcome))
    version_entry = f"store version {store.version}"
    if not table:
        return Decision(
            DecisionValue.NOT_APPLICABLE,
            None,
            None,
            (version_entry, "oracle: no applicable rules"),
            False,
        )
    table.sort(key=lambda row: row[:3])
    _, _, _, rule, outcome = table[0]
    return Decision(
        value=outcome,
        granted_right=rule.right if outcome is DecisionValue.PERMIT else None,
        matched_rule=rule.name,
        explanation=(version_entry, f"oracle: selected rule {rule.name}"),
        masked=(not rule.public) and outcome is not DecisionValue.PERMIT,
    )
