"""Decision engine: requests against an activated policy snapshot.

Evaluation of a single rule is four-valued:

* the target does not match          -> NotApplicable
* purpose and condition both pass    -> Permit
* condition missing / lookup failure -> Indeterminate
* purpose or condition fails         -> Deny

Combining keeps only applicable outcomes, then at the single highest priority
present lets Deny override Permit override Indeterminate; ties fall back to
document order.  That precedence lives in one module constant so a test can
corrupt it and prove the differential oracle notices.

An evaluation never raises: ontology lookup failures and condition type
mismatches inside a matched rule fold into Indeterminate with a trace entry.

The sets that follow from one ontology alone (ancestors, SO rights, AtO
components) are built with its graph by :func:`ontology.build_graph`.
Activation compiles only the policy layer (:class:`CompiledStore`): every
rule's clauses and the AtO equivalence names of its required attributes,
and every purpose's ancestor set.  ``decide`` then scans the rules by set
membership against both, in the clause order subject, object, action,
attributes, purpose, condition, and writes no trace.  Only the rule it
selects is walked again clause by clause (shortest is-a chains, role
inheritance, certificates) to write the explanation, so the scan and the
walk must agree on every rule's value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .errors import ActivationError, OntologyError, TypeMismatchError, UnknownPurposeError
from .ontology import (
    ConceptRef,
    OntologyGraph,
    WILDCARD_ID,
    equivalent_attributes,
    inherited_rights_roles,
    subsumption_path,
)
from .policy import (
    ANY_PURPOSE,
    AccessRule,
    Empty,
    PolicyDocument,
    PurposeTree,
    Scalar,
    Tri,
    evaluate_atom,
    evaluate_condition,
    iter_atoms,
    purpose_compliant,
    validate_rule,
)


class DecisionValue(enum.Enum):
    PERMIT = "Permit"
    DENY = "Deny"
    INDETERMINATE = "Indeterminate"
    NOT_APPLICABLE = "NotApplicable"


#: Override order at the selected priority, strongest first.  Deliberately a
#: plain module constant: the oracle does NOT read it, so corrupting it makes
#: decide and oracle_decide disagree (the differential harness must catch that).
_COMBINE_PRECEDENCE = (
    DecisionValue.DENY,
    DecisionValue.PERMIT,
    DecisionValue.INDETERMINATE,
)


@dataclass(frozen=True)
class CompiledRule:
    """One rule's clauses as set-membership tests; None is a wildcard, or
    any purpose, or no condition."""

    rule: AccessRule
    subject: str | None
    object: str | None
    action: str | None
    required: tuple  # per required attribute, the frozenset of names satisfying it
    variables: frozenset  # the names its attribute variables bind
    purpose: str | None
    condition: object


@dataclass(frozen=True)
class CompiledStore:
    """What activation precomputes for the rule scan beyond the graphs' sets."""

    purposes: Mapping[str, frozenset]  # purpose -> inclusive ancestors
    rules: tuple  # one CompiledRule per policy rule, in document order


def _compile_store(
    policy: PolicyDocument, graphs: Mapping[str, OntologyGraph], purposes: PurposeTree
) -> CompiledStore:
    """Index validated rules and purposes for matching by membership."""

    def clause(ref: ConceptRef) -> str | None:
        return None if ref.id == WILDCARD_ID else ref.id

    rules = tuple(
        CompiledRule(
            rule=rule,
            subject=clause(rule.subject),
            object=clause(rule.object),
            action=clause(rule.action),
            required=tuple(equivalent_attributes(graphs["AtO"], attr) for attr in rule.required_attributes),
            variables=frozenset(var.name for var in rule.subject_attr_vars + rule.object_attr_vars),
            purpose=None if rule.purpose == ANY_PURPOSE else rule.purpose,
            condition=None if isinstance(rule.condition, Empty) else rule.condition,
        )
        for rule in policy.rules
    )
    purpose_sets = {pid: frozenset(purposes.ancestors_inclusive(pid)) for pid in purposes.ids()}
    return CompiledStore(purposes=purpose_sets, rules=rules)


@dataclass(frozen=True)
class PolicyStore:
    """One immutable, versioned snapshot of everything a decision needs."""

    policy: PolicyDocument
    graphs: Mapping[str, OntologyGraph]
    purposes: PurposeTree
    trusted_soas: frozenset
    compiled: CompiledStore = field(compare=False, repr=False)
    version: int = 1


def activate_store(
    policy: PolicyDocument,
    graphs: Mapping[str, OntologyGraph],
    purposes: PurposeTree,
    trusted_soas,
    version: int = 1,
) -> PolicyStore:
    """Validate every rule against the graphs and tree, then compile and
    freeze a store.

    Raises ActivationError carrying the full findings list if any rule fails;
    nothing is partially activated.
    """
    for kind in ("SO", "OO", "AO", "AtO"):
        if kind not in graphs:
            raise ActivationError([f"missing ontology {kind}"])
        if graphs[kind].kind != kind:
            raise ActivationError(
                [f"graph registered under {kind} is tagged {graphs[kind].kind}"]
            )
    findings: list[str] = []
    for rule in policy.rules:
        findings.extend(validate_rule(rule, graphs, purposes))
    if findings:
        raise ActivationError(findings)
    return PolicyStore(
        policy=policy,
        graphs=dict(graphs),
        purposes=purposes,
        trusted_soas=frozenset(trusted_soas),
        version=version,
        compiled=_compile_store(policy, graphs, purposes),
    )


@dataclass(slots=True)
class AccessRequest:
    """A normalized request; ids already resolved against the knowledge base."""

    subject_id: str
    subject_concepts: frozenset
    presented_attributes: tuple
    object_id: str
    object_concepts: frozenset
    action: ConceptRef
    purpose: str
    context: Mapping[str, Scalar] = field(default_factory=dict)


@dataclass(slots=True)
class Decision:
    value: DecisionValue
    granted_right: str | None = None
    matched_rule: str | None = None
    explanation: tuple = ()
    masked: bool = False


# --- target matching --------------------------------------------------------


def _sorted_concepts(concepts) -> list[ConceptRef]:
    # frozensets iterate in hash order; decisions must trace deterministically
    return sorted(concepts, key=_CONCEPT_ORDER)


_CONCEPT_ORDER = attrgetter("ontology", "id")


def _match_target_traced(rule, req, store) -> tuple[bool, list[str]]:
    """Clause-by-clause target check; raises on ontology lookup failures."""
    trace: list[str] = []

    # (a) subject, widened by role inheritance
    if rule.subject.id == WILDCARD_ID:
        trace.append("subject: matches by wildcard")
    else:
        so = store.graphs["SO"]
        hit = None
        for concept in _sorted_concepts(req.subject_concepts):
            for role in _sorted_concepts(inherited_rights_roles(so, concept)):
                chain = subsumption_path(so, rule.subject, role)
                if chain is not None:
                    hit = (concept, role, chain)
                    break
            if hit:
                break
        if hit is None:
            return False, trace
        concept, role, chain = hit
        via = "" if concept == role else f" holding rights of {role.id},"
        trace.append(f"subject: {concept.id}{via} is-a {' -> '.join(chain)}")

    # (b) object, plain subsumption
    if rule.object.id == WILDCARD_ID:
        trace.append("object: matches by wildcard")
    else:
        oo = store.graphs["OO"]
        chain = None
        for concept in _sorted_concepts(req.object_concepts):
            chain = subsumption_path(oo, rule.object, concept)
            if chain is not None:
                trace.append(f"object: {concept.id} is-a {' -> '.join(chain)}")
                break
        if chain is None:
            return False, trace

    # (c) action
    if rule.action.id == WILDCARD_ID:
        trace.append("action: matches by wildcard")
    else:
        chain = subsumption_path(store.graphs["AO"], rule.action, req.action)
        if chain is None:
            return False, trace
        trace.append(f"action: {req.action.id} is-a {' -> '.join(chain)}")

    # (d) required certified attributes, widened by AtO equivalence, issuer trusted
    ato = store.graphs["AtO"]
    for required in rule.required_attributes:
        names = equivalent_attributes(ato, required)
        satisfier = None
        for presented in req.presented_attributes:
            if presented.name in names and presented.soa_id in store.trusted_soas:
                satisfier = presented
                break
        if satisfier is None:
            return False, trace
        trace.append(
            f"required attribute {required.name}: satisfied by {satisfier.name} "
            f"issued by {satisfier.soa_id}"
        )

    # (e) attribute variables bind by exact name
    for var in rule.subject_attr_vars + rule.object_attr_vars:
        binder = None
        for presented in req.presented_attributes:
            if presented.name == var.name:
                binder = presented
                break
        if binder is None:
            return False, trace
        trace.append(f"variable {var.name} ({var.binds}): bound by {binder.name}")

    return True, trace


# --- rule evaluation --------------------------------------------------------


def _trace_rule(rule, req, store) -> tuple[DecisionValue, list[str]]:
    """One rule's value and its explanation, walked clause by clause."""
    trace: list[str] = [f"rule {rule.name} (priority {rule.priority}):"]
    try:
        matched, target_trace = _match_target_traced(rule, req, store)
    except (OntologyError, UnknownPurposeError, TypeMismatchError) as exc:
        trace.append(f"error during target match: {exc}")
        return DecisionValue.INDETERMINATE, trace
    trace.extend(target_trace)
    if not matched:
        return DecisionValue.NOT_APPLICABLE, trace

    try:
        purpose_ok = purpose_compliant(req.purpose, rule.purpose, store.purposes)
        if rule.purpose == ANY_PURPOSE:
            trace.append(f"purpose: {req.purpose} allowed (rule accepts any purpose)")
        else:
            trace.append(
                f"purpose: {req.purpose} {'within' if purpose_ok else 'outside'} {rule.purpose}"
            )
    except UnknownPurposeError as exc:
        trace.append(f"error during purpose check: {exc}")
        return DecisionValue.INDETERMINATE, trace

    if isinstance(rule.condition, Empty):
        trace.append("condition: none (applies in all circumstances)")
        cond = None
    else:
        try:
            cond = evaluate_condition(rule.condition, req.context)
        except TypeMismatchError as exc:
            trace.append(f"error during condition evaluation: {exc}")
            return DecisionValue.INDETERMINATE, trace
        for atom in iter_atoms(rule.condition):
            result = evaluate_atom(atom, req.context)  # pure; cannot raise here
            ref = list(atom.reference) if isinstance(atom.reference, tuple) else atom.reference
            trace.append(
                f"condition: {atom.attribute} {atom.op.value} {ref!r} -> {result.state.value}"
            )
        if cond.state is Tri.MISSING:
            trace.append(f"condition outcome: missing attribute {cond.missing_attribute}")
            return DecisionValue.INDETERMINATE, trace

    if purpose_ok and (cond is None or cond.state is Tri.TRUE):
        return DecisionValue.PERMIT, trace
    return DecisionValue.DENY, trace


def _reach(concepts, kind: str, sets: Mapping[str, frozenset]) -> tuple[frozenset, DecisionValue]:
    """The union of the concepts' sets, taken in the walk's sorted order up
    to the first concept ``kind`` does not know; and the value of a rule
    clause that misses it: Indeterminate if such a concept was met, since
    the walk raises there, and NotApplicable otherwise."""
    known = [sets.get(concept.id) if concept.ontology == kind else None for concept in concepts]
    if None not in known:  # the order only matters up to an unknown concept
        return frozenset().union(*known), DecisionValue.NOT_APPLICABLE
    reach = frozenset()
    for concept in _sorted_concepts(concepts):
        known = sets.get(concept.id) if concept.ontology == kind else None
        if known is None:
            return reach, DecisionValue.INDETERMINATE
        reach |= known
    return reach, DecisionValue.NOT_APPLICABLE


class _RequestSets:
    """A request as the sets the rule scan tests, built once per decide."""

    __slots__ = (
        "subjects", "subject_miss", "objects", "object_miss", "actions", "action_miss",
        "trusted_names", "names", "purposes", "context",
    )

    def __init__(self, store: PolicyStore, req: AccessRequest):
        graphs = store.graphs
        self.subjects, self.subject_miss = _reach(req.subject_concepts, "SO", graphs["SO"].rights)
        self.objects, self.object_miss = _reach(req.object_concepts, "OO", graphs["OO"].ancestors)
        self.actions, self.action_miss = _reach((req.action,), "AO", graphs["AO"].ancestors)
        presented = req.presented_attributes
        self.trusted_names = frozenset([p.name for p in presented if p.soa_id in store.trusted_soas])
        self.names = frozenset([p.name for p in presented])
        self.purposes = store.compiled.purposes.get(req.purpose)  # None: not in the tree
        self.context = req.context


def _evaluate_rule_traced(rule: CompiledRule, facts: _RequestSets) -> tuple[DecisionValue, tuple]:
    """One rule's value by set membership, raising nothing and writing no
    trace (the second item is always empty).  The benchmark's traced run
    counts calls of this name as rules evaluated."""
    if rule.subject is not None and rule.subject not in facts.subjects:
        return facts.subject_miss, ()
    if rule.object is not None and rule.object not in facts.objects:
        return facts.object_miss, ()
    if rule.action is not None and rule.action not in facts.actions:
        return facts.action_miss, ()
    for names in rule.required:
        if names.isdisjoint(facts.trusted_names):
            return DecisionValue.NOT_APPLICABLE, ()
    if not rule.variables <= facts.names:
        return DecisionValue.NOT_APPLICABLE, ()
    if facts.purposes is None:
        return DecisionValue.INDETERMINATE, ()
    if rule.condition is not None:
        try:
            state = evaluate_condition(rule.condition, facts.context).state
        except TypeMismatchError:
            return DecisionValue.INDETERMINATE, ()
        if state is Tri.MISSING:
            return DecisionValue.INDETERMINATE, ()
        if state is Tri.FALSE:
            return DecisionValue.DENY, ()
    if rule.purpose is None or rule.purpose in facts.purposes:
        return DecisionValue.PERMIT, ()
    return DecisionValue.DENY, ()


# --- combining --------------------------------------------------------------


def decide(store: PolicyStore, req: AccessRequest) -> Decision:
    """Scan every rule and combine; trace only the selected rule.  Total:
    never raises on any input."""
    version_entry = f"store version {store.version}"
    facts = _RequestSets(store, req)
    applicable = []
    for index, compiled in enumerate(store.compiled.rules):
        value, _ = _evaluate_rule_traced(compiled, facts)
        if value is not DecisionValue.NOT_APPLICABLE:
            applicable.append((index, compiled.rule, value))

    if not applicable:
        explanation = (
            version_entry,
            f"no applicable rules: none of the {len(store.policy.rules)} rule(s) matched the request",
        )
        return Decision(DecisionValue.NOT_APPLICABLE, None, None, explanation, False)

    top = max(e[1].priority for e in applicable)
    pool = [e for e in applicable if e[1].priority == top]
    index, rule, value = min(pool, key=lambda e: (_COMBINE_PRECEDENCE.index(e[2]), e[0]))
    _, trace = _trace_rule(rule, req, store)
    masked = (not rule.public) and value is not DecisionValue.PERMIT
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
        masked=masked,
    )


MASKED_EXPLANATION = "access denied"


def explain(decision: Decision) -> str:
    """Human-readable account; for masked decisions, exactly the fixed string
    with no rule identity, concept names, or condition details."""
    if decision.masked:
        return MASKED_EXPLANATION
    lines = [f"decision: {decision.value.value}"]
    if decision.granted_right:
        lines.append(f"granted right: {decision.granted_right}")
    lines.extend(decision.explanation)
    return "\n".join(lines)
