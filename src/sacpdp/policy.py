"""Policy model: rules as 6-tuples, three-valued conditions, purpose tree.

A rule grants one right to subjects matching its target under a purpose and a
condition.  Rules never deny by themselves; a Deny decision arises when a rule
matches but its purpose or condition check fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from .errors import TypeMismatchError, UnknownPurposeError
from .ontology import ConceptRef, OntologyGraph, WILDCARD_ID

#: Sentinel purpose meaning "compliant with any requested purpose".
ANY_PURPOSE = "*"

Scalar = str | int | float | bool


class Op(enum.Enum):
    """Condition operators. Ordering operators apply to numbers only."""

    EQUALS = "Equals"
    NOT_EQUALS = "NotEquals"
    GREATER_THAN = "GreaterThan"
    GREATER_THAN_OR_EQUAL = "GreaterThanOrEqual"
    LESS_THAN = "LessThan"
    LESS_THAN_OR_EQUAL = "LessThanOrEqual"
    IN = "In"


_ORDERING_OPS = (Op.GREATER_THAN, Op.GREATER_THAN_OR_EQUAL, Op.LESS_THAN, Op.LESS_THAN_OR_EQUAL)


def scalar_kind(value: Scalar) -> str:
    # bool first: it is an int subclass but never compares with numbers here
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    raise TypeMismatchError(f"unsupported scalar type {type(value).__name__}")


@dataclass(frozen=True)
class Empty:
    """The always-true condition."""


@dataclass(frozen=True)
class Atom:
    """One comparison of a context attribute against a typed reference.

    For Op.IN, ``reference`` is a non-empty tuple of same-kind scalars; for
    every other operator it is a single scalar.
    """

    attribute: str
    op: Op
    reference: Scalar | tuple

    def __post_init__(self) -> None:
        if self.op is Op.IN:
            if not isinstance(self.reference, tuple) or not self.reference:
                raise ValueError("In requires a non-empty value tuple")
            kinds = {scalar_kind(v) for v in self.reference}
            if len(kinds) > 1:
                raise ValueError(f"In list mixes value kinds: {sorted(kinds)}")
        else:
            if isinstance(self.reference, tuple):
                raise ValueError(f"{self.op.value} takes a single reference value")
            scalar_kind(self.reference)


@dataclass(frozen=True)
class And:
    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("And requires at least one child")


@dataclass(frozen=True)
class Or:
    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("Or requires at least one child")


ConditionExpr = Empty | Atom | And | Or

EMPTY = Empty()


class Tri(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    MISSING = "missing"


@dataclass(frozen=True)
class CondResult:
    """Three-valued condition outcome; MISSING names the first absent attribute."""

    state: Tri
    missing_attribute: str | None = None


TRUE_RESULT = CondResult(Tri.TRUE)
FALSE_RESULT = CondResult(Tri.FALSE)


def _compare(op: Op, left: Scalar, right: Scalar) -> bool:
    lk, rk = scalar_kind(left), scalar_kind(right)
    if lk != rk:
        raise TypeMismatchError(
            f"cannot compare {lk} {left!r} with {rk} {right!r}; values are never coerced"
        )
    if op in _ORDERING_OPS and lk != "number":
        raise TypeMismatchError(f"{op.value} requires numeric operands, got {lk}")
    if op is Op.EQUALS:
        return left == right
    if op is Op.NOT_EQUALS:
        return left != right
    if op is Op.GREATER_THAN:
        return left > right
    if op is Op.GREATER_THAN_OR_EQUAL:
        return left >= right
    if op is Op.LESS_THAN:
        return left < right
    return left <= right


def evaluate_atom(atom: Atom, ctx: Mapping[str, Scalar]) -> CondResult:
    if atom.attribute not in ctx:
        return CondResult(Tri.MISSING, atom.attribute)
    value = ctx[atom.attribute]
    if atom.op is Op.IN:
        hit = False
        for member in atom.reference:
            if _compare(Op.EQUALS, value, member):
                hit = True
        return TRUE_RESULT if hit else FALSE_RESULT
    return TRUE_RESULT if _compare(atom.op, value, atom.reference) else FALSE_RESULT


def evaluate_condition(expr: ConditionExpr, ctx: Mapping[str, Scalar]) -> CondResult:
    """Three-valued, short-circuit-free evaluation.

    Empty is true.  And is false if any child is false, missing if no child is
    false and one is missing, else true; Or dually.  Every child is always
    evaluated, so a TypeMismatchError surfaces no matter what its siblings
    evaluate to.  A missing context attribute is a result, not an error.
    """
    if isinstance(expr, Empty):
        return TRUE_RESULT
    if isinstance(expr, Atom):
        return evaluate_atom(expr, ctx)
    results = [evaluate_condition(child, ctx) for child in expr.children]
    if isinstance(expr, And):
        decided, absorbing = Tri.FALSE, FALSE_RESULT
    else:
        decided, absorbing = Tri.TRUE, TRUE_RESULT
    if any(r.state is decided for r in results):
        return absorbing
    for r in results:
        if r.state is Tri.MISSING:
            return r
    return TRUE_RESULT if isinstance(expr, And) else FALSE_RESULT


def iter_atoms(expr: ConditionExpr):
    """Yield every Atom in document order (used for decision traces)."""
    if isinstance(expr, Atom):
        yield expr
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from iter_atoms(child)


# --- purposes ---------------------------------------------------------------


@dataclass(frozen=True)
class PurposeTree:
    """Single-rooted purpose hierarchy; ``parent`` maps every non-root node."""

    root: str
    parent: Mapping[str, str] = field(default_factory=dict)

    def __contains__(self, purpose_id: str) -> bool:
        return purpose_id == self.root or purpose_id in self.parent

    def ancestors_inclusive(self, purpose_id: str) -> list[str]:
        if purpose_id not in self:
            raise UnknownPurposeError(f"purpose {purpose_id!r} is not in the tree")
        chain = [purpose_id]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        return chain

    def ids(self) -> list[str]:
        return sorted([self.root, *self.parent])


def purpose_compliant(requested: str, allowed: str, tree: PurposeTree) -> bool:
    """True iff ``allowed`` is ANY, or ``requested`` sits at or below it."""
    if requested not in tree:
        raise UnknownPurposeError(f"requested purpose {requested!r} is not in the tree")
    if allowed == ANY_PURPOSE:
        return True
    if allowed not in tree:
        raise UnknownPurposeError(f"allowed purpose {allowed!r} is not in the tree")
    return allowed in tree.ancestors_inclusive(requested)


# --- rules ------------------------------------------------------------------

SUBJECT_SIDE = "subject"
OBJECT_SIDE = "object"


@dataclass(frozen=True)
class AttributeVariable:
    """A named attribute slot a request must bind; ``binds`` names the target
    element (subject or object) the variable annotates."""

    name: str
    binds: str

    def __post_init__(self) -> None:
        if self.binds not in (SUBJECT_SIDE, OBJECT_SIDE):
            raise ValueError(f"binds must be subject or object, got {self.binds!r}")


@dataclass(frozen=True)
class AccessRule:
    """One policy rule: who (subject + variables) may do what (action) to what
    (object + variables), for which purpose, under which condition, granting
    which right.  ``public=False`` masks rule identity on non-Permit outcomes.
    """

    name: str
    subject: ConceptRef
    object: ConceptRef
    action: ConceptRef
    purpose: str = ANY_PURPOSE
    condition: ConditionExpr = EMPTY
    right: str = "read_only"
    subject_attr_vars: tuple = ()
    object_attr_vars: tuple = ()
    required_attributes: tuple = ()
    public: bool = True
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule name must be non-empty")
        if self.priority < 0:
            raise ValueError(f"priority must be >= 0, got {self.priority}")
        if self.subject.ontology != "SO":
            raise ValueError("rule subject must be an SO reference")
        if self.object.ontology != "OO":
            raise ValueError("rule object must be an OO reference")
        if self.action.ontology != "AO":
            raise ValueError("rule action must be an AO reference")
        for var in self.subject_attr_vars:
            if var.binds != SUBJECT_SIDE:
                raise ValueError(f"variable {var.name!r} on subject side binds {var.binds}")
        for var in self.object_attr_vars:
            if var.binds != OBJECT_SIDE:
                raise ValueError(f"variable {var.name!r} on object side binds {var.binds}")


@dataclass(frozen=True)
class PolicyDocument:
    """An ordered rule list; order is the combining tie-breaker."""

    rules: tuple
    source: str = ""
    format_version: str = "1"

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)


def validate_rule(
    rule: AccessRule,
    graphs: Mapping[str, OntologyGraph],
    tree: PurposeTree,
) -> list[str]:
    """Collect every resolution problem in one pass; empty list means valid.

    Findings are strings with an XML-path-like prefix locating the element.
    Right ids are opaque and unchecked.
    """
    findings: list[str] = []
    prefix = f"access_Rule[{rule.name}]"
    ato = graphs["AtO"]

    def check_ref(path: str, ref: ConceptRef) -> None:
        if ref.id == WILDCARD_ID:
            return
        graph = graphs[ref.ontology]
        if ref.id not in graph.node_kinds:
            findings.append(f"{prefix}/{path}: {ref.ontology} has no node {ref.id!r}")

    check_ref("Target/Subject", rule.subject)
    check_ref("Target/Object", rule.object)
    check_ref("Target/Action", rule.action)
    for i, var in enumerate(rule.subject_attr_vars + rule.object_attr_vars):
        if var.name not in ato.node_kinds:
            findings.append(
                f"{prefix}/Target/AttributeVariable[{i}]: AtO has no node {var.name!r}"
            )
    for i, attr in enumerate(rule.required_attributes):
        if attr.name not in ato.node_kinds:
            findings.append(
                f"{prefix}/attribute_Set/attribute[{i}]: AtO has no node {attr.name!r}"
            )
    if rule.purpose != ANY_PURPOSE and rule.purpose not in tree:
        findings.append(f"{prefix}/Purpose: unknown purpose {rule.purpose!r}")
    for i, atom in enumerate(iter_atoms(rule.condition)):
        if atom.attribute not in ato.node_kinds:
            findings.append(
                f"{prefix}/Condition[{i}]: AtO has no attribute node {atom.attribute!r}"
            )
    return findings
