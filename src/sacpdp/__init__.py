"""Semantic access control: ontology-aware policies, a decision engine, and
an enforcement gateway.

The usual entry points:

- :func:`load_bundle` / :func:`build_store` to assemble a deployment,
- :func:`decide` for the engine, :func:`oracle_decide` for the independent
  reference model,
- :class:`Gateway` for the HTTP front end.

Each public name is imported from its module on first use (PEP 562), so
importing one module, such as ``sacpdp.cli`` to serve, imports only what it
needs.
"""

import importlib

__version__ = "0.1.0"

# The module each public name comes from.
_SOURCES = {
    "bundle": ("Bundle", "build_store", "load_bundle", "validate_bundle"),
    "errors": (
        "ActivationError",
        "ConfigError",
        "CycleDetectedError",
        "DocumentError",
        "MalformedXmlError",
        "OntologyError",
        "SacError",
        "TypeMismatchError",
        "UnknownConceptError",
        "UnknownPurposeError",
    ),
    "ontology": (
        "ONTOLOGY_KINDS",
        "WILDCARD_ID",
        "AttributeDescriptor",
        "ConceptRef",
        "OntologyGraph",
        "build_graph",
        "equivalent_attributes",
        "inherited_rights_roles",
        "load_ontology",
        "serialize_ontology",
        "subsumes",
    ),
    "oracle": ("oracle_decide",),
    "pdp": ("AccessRequest", "Decision", "DecisionValue", "PolicyStore", "activate_store", "decide", "explain"),
    "policy": (
        "ANY_PURPOSE",
        "AccessRule",
        "Atom",
        "And",
        "Empty",
        "Op",
        "Or",
        "PolicyDocument",
        "PurposeTree",
        "Tri",
        "evaluate_condition",
        "purpose_compliant",
    ),
    "registry": ("KnowledgeBase", "RegistryEntry", "build_access_request", "parse_registry"),
    "service": ("Gateway", "GatewayConfig", "load_gateway_config"),
    "xmlio": (
        "parse_policy",
        "parse_purposes",
        "parse_rule",
        "parse_xacml_request",
        "parse_xacml_response",
        "serialize_policy",
        "serialize_purposes",
        "serialize_rule",
        "serialize_xacml_request",
        "serialize_xacml_response",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if (module := _MODULE_OF.get(name)) is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
