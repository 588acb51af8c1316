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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
class PolicyStore:
    """One immutable, versioned snapshot of everything a decision needs."""

    policy: PolicyDocument
    graphs: Mapping[str, OntologyGraph]
    purposes: PurposeTree
    trusted_soas: frozenset
    version: int = 1


def activate_store(
    policy: PolicyDocument,
    graphs: Mapping[str, OntologyGraph],
    purposes: PurposeTree,
    trusted_soas,
    version: int = 1,
) -> PolicyStore:
    """Validate every rule against the graphs and tree, then freeze a store.

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
    )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Decision:
    value: DecisionValue
    granted_right: str | None = None
    matched_rule: str | None = None
    explanation: tuple = ()
    masked: bool = False


# --- target matching --------------------------------------------------------


def _sorted_concepts(concepts) -> list[ConceptRef]:
    # frozensets iterate in hash order; decisions must trace deterministically
    return sorted(concepts, key=lambda c: (c.ontology, c.id))


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


def _evaluate_rule_traced(rule, req, store) -> tuple[DecisionValue, list[str]]:
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


# --- combining --------------------------------------------------------------


def decide(store: PolicyStore, req: AccessRequest) -> Decision:
    """Evaluate every rule and combine.  Total: never raises on any input."""
    version_entry = f"store version {store.version}"
    evaluated = []
    for index, rule in enumerate(store.policy.rules):
        value, trace = _evaluate_rule_traced(rule, req, store)
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
    index, rule, value, trace = min(
        pool, key=lambda e: (_COMBINE_PRECEDENCE.index(e[2]), e[0])
    )
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
