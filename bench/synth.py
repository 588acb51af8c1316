"""Synthetic bundles for the benchmark: a store of a given size, and seeded
request pools against it.

SO and OO are shallow taxonomies: node i gets one or two parents among the
later nodes, so every walk up the hierarchy is short but a node can sit under
many concepts.  AO, AtO, the purpose tree and rule conditions come from the
property-test generators in ``tests/randgen.py``.  Documents are written with
the package's public serializers, so the gateway reads them exactly as it
would read a hand-written bundle.  A second policy of the same size keeps
the first one's rule targets and redraws the rest; the benchmark swaps
between the two under load.

The store of each size is drawn from one fixed seed, like a dataset; the run
seed draws only the requests.  Random DAGs of 2000 nodes differ by about 10%
from seed to seed in their mean ancestor count, which ``decide`` time
follows, and that would hide the changes the benchmark is meant to show.

Certificates live only in the registry: generated requests carry no
wire-asserted attributes, so every Permit that needs a certificate is backed
by one the registry holds.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path

# run.py puts src/ and tests/ on sys.path before importing this module
from randgen import TRUSTED, UNTRUSTED, random_condition, random_dag_edges, random_graph, random_purposes
from sacpdp.ontology import WILDCARD_ID, AttributeDescriptor, ConceptRef, build_graph, serialize_ontology
from sacpdp.policy import ANY_PURPOSE, EMPTY, AccessRule, AttributeVariable, PolicyDocument, iter_atoms
from sacpdp.registry import ContextAttributeSpec, KnowledgeBase, RegistryEntry, serialize_registry
from sacpdp.xmlio import XacmlRequestDoc, serialize_policy, serialize_purposes, serialize_xacml_request

#: Share of generated requests aimed at one rule's target (registered subject
#: and object under the rule's concepts, action and purpose inside the rule's).
#: The rest are uniform draws, which almost never match at 2000 nodes.
TARGET_SHARE = 0.5
STORE_SEED = 0
REGISTRY_SIZE = 128
# expected number of role-inheritance edges in SO, whatever its size
INHERIT_EDGES = 20
_STRINGS = ("alpha", "beta", "gamma", "delta")


def taxonomy_edges(rng: random.Random, ids: list) -> list:
    """(child, parent) pairs: each node but the last gets 1-2 later parents."""
    edges = []
    n = len(ids)
    for i in range(n - 1):
        picks = {rng.randrange(i + 1, n) for _ in range(rng.randint(1, 2))}
        edges.extend((ids[i], ids[j]) for j in sorted(picks))
    return edges


def _closure_up(parents: dict, start: str) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


def _parent_map(graph) -> dict:
    parents: dict = {}
    for child, parent in graph.isa_edges:
        parents.setdefault(child, []).append(parent)
    return parents


def _descendants(graph, top: str) -> list:
    """Sorted ids at or below ``top`` (the whole graph for the wildcard)."""
    if top == WILDCARD_ID:
        return sorted(graph.node_kinds)
    parents = _parent_map(graph)
    return sorted(n for n in graph.node_kinds if top in _closure_up(parents, n))


def _random_rule(rng, name, so, oo, ao, ato, purposes) -> AccessRule:
    required = ()
    if rng.random() < 0.2:
        required = (
            AttributeDescriptor(
                attribute_id=f"req_{name}",
                name=rng.choice(ato),
                soa_id=rng.choice(TRUSTED) if rng.random() < 0.9 else UNTRUSTED,
                equivalence_enabled=rng.random() < 0.5,
            ),
        )
    subject_vars = (AttributeVariable(rng.choice(ato), "subject"),) if rng.random() < 0.1 else ()
    object_vars = (AttributeVariable(rng.choice(ato), "object"),) if rng.random() < 0.1 else ()
    action = WILDCARD_ID if rng.random() < 0.2 else rng.choice(ao)
    return AccessRule(
        name=name,
        subject=ConceptRef("SO", rng.choice(so)),
        object=ConceptRef("OO", rng.choice(oo)),
        action=ConceptRef("AO", action),
        purpose=ANY_PURPOSE if rng.random() < 0.3 else rng.choice(purposes),
        condition=EMPTY if rng.random() < 0.3 else random_condition(rng, ato),
        right=rng.choice(("read_only", "modification", "full_control")),
        subject_attr_vars=subject_vars,
        object_attr_vars=object_vars,
        required_attributes=required,
        public=rng.random() < 0.5,
        priority=rng.randint(0, 9),
    )


def _registry_certificates(rng, ato) -> tuple:
    return tuple(
        AttributeDescriptor(
            attribute_id=name,
            name=name,
            soa_id=rng.choice(TRUSTED) if rng.random() < 0.9 else UNTRUSTED,
            equivalence_enabled=rng.random() < 0.5,
        )
        for name in sorted(set(rng.sample(ato, k=rng.randint(0, min(3, len(ato))))))
    )


@dataclass
class SyntheticStore:
    graphs: dict
    tree: object
    policies: tuple  # (A, B): the bundle ships A; B is the reload swap
    kb: KnowledgeBase

    def policy_texts(self) -> tuple:
        return tuple(serialize_policy(p) for p in self.policies)

    def write(self, root: Path) -> Path:
        """Write the bundle (with policy A) under ``root``; returns its config."""
        root.mkdir(parents=True, exist_ok=True)
        documents = {
            "so": serialize_ontology(self.graphs["SO"]),
            "oo": serialize_ontology(self.graphs["OO"]),
            "ao": serialize_ontology(self.graphs["AO"]),
            "ato": serialize_ontology(self.graphs["AtO"]),
            "purposes": serialize_purposes(self.tree),
            "policy": serialize_policy(self.policies[0]),
            "registry": serialize_registry(self.kb),
        }
        lines = [f"trusted_soas = {' '.join(TRUSTED)}"]
        for key, text in documents.items():
            (root / f"{key}.xml").write_text(text, encoding="utf-8")
            lines.append(f"{key} = {key}.xml")
        conf = root / "bundle.conf"
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return conf

    def requests(self, seed: int, count: int) -> tuple[list, int]:
        """``count`` wire request documents and how many aim at a rule.

        Subjects go round the registry in a seeded order, so every pool of
        the same size asks for the same subjects; an aimed request then picks
        a rule over that subject and fills in the rest to fit it.
        """
        rng = random.Random(f"requests/{seed}")
        under = self._registered_under()
        so_parents = _parent_map(self.graphs["SO"])
        rules_at: dict = {}
        for rule in self.policies[0].rules:
            if ("OO", rule.object.id) in under:
                rules_at.setdefault(rule.subject.id, []).append(rule)
        ao = sorted(self.graphs["AO"].node_kinds)
        ato = sorted(self.graphs["AtO"].node_kinds)
        purposes = self.tree.ids()
        subjects = sorted(self.kb.subjects)
        rng.shuffle(subjects)
        requests, targeted = [], 0
        for k in range(count):
            subject = subjects[k % len(subjects)]
            reach = set()
            for ref in self.kb.subjects[subject].concepts:
                reach |= _closure_up(so_parents, ref.id)
            candidates = [rule for concept in sorted(reach) for rule in rules_at.get(concept, ())]
            atoms = []
            if candidates and rng.random() < TARGET_SHARE:
                targeted += 1
                rule = rng.choice(candidates)
                obj = rng.choice(under[("OO", rule.object.id)])
                action = rng.choice(_descendants(self.graphs["AO"], rule.action.id))
                inside = [p for p in purposes if rule.purpose in (ANY_PURPOSE, *self.tree.ancestors_inclusive(p))]
                purpose = rng.choice(inside)
                atoms = list(iter_atoms(rule.condition))
            else:
                obj, action, purpose = rng.choice(sorted(self.kb.objects)), rng.choice(ao), rng.choice(purposes)
            # an aimed request carries the values its rule's condition names
            environment = {}
            for atom in atoms:
                ref = atom.reference
                environment[atom.attribute] = rng.choice(ref) if isinstance(ref, tuple) else ref
            for attribute in ato:
                if attribute not in environment and rng.random() < 0.3:
                    environment[attribute] = rng.randint(0, 9) if rng.random() < 0.7 else rng.choice(_STRINGS)
            wire = XacmlRequestDoc(subject, (), obj, action, purpose, environment)
            requests.append(serialize_xacml_request(wire))
        return requests, targeted

    def _registered_under(self) -> dict:
        """(kind, concept) -> registry ids whose concepts sit at or below it."""
        under: dict = {}
        for kind, entries in (("SO", self.kb.subjects), ("OO", self.kb.objects)):
            parents = _parent_map(self.graphs[kind])
            for entry_id in sorted(entries):
                reach = set()
                for ref in entries[entry_id].concepts:
                    reach |= _closure_up(parents, ref.id)
                for concept in reach:
                    under.setdefault((kind, concept), []).append(entry_id)
        return under


def make_store(nodes: int, rules: int) -> SyntheticStore:
    """The store of ``nodes`` SO and OO concepts and ``rules`` rules."""
    rng = random.Random(f"synthetic/{nodes}x{rules}/{STORE_SEED}")
    so_ids = [f"s{i}" for i in range(nodes)]
    oo_ids = [f"o{i}" for i in range(nodes)]
    # random_dag_edges draws ~n^2/2 coins; p keeps the expected count fixed
    inherit_p = INHERIT_EDGES / max(1, nodes * (nodes - 1) // 2)
    graphs = {
        "SO": build_graph(
            "SO",
            {i: "concept" for i in so_ids},
            taxonomy_edges(rng, so_ids),
            role_inherit_edges=random_dag_edges(rng, so_ids, inherit_p),
        ),
        "OO": build_graph("OO", {i: "concept" for i in oo_ids}, taxonomy_edges(rng, oo_ids)),
        "AO": random_graph(rng, "AO", "a"),
        "AtO": random_graph(rng, "AtO", "t"),
    }
    tree = random_purposes(rng)
    ao = sorted(graphs["AO"].node_kinds)
    ato = sorted(graphs["AtO"].node_kinds)
    purposes = tree.ids()

    rules_a = [_random_rule(rng, f"rule_a{i}", so_ids, oo_ids, ao, ato, purposes) for i in range(rules)]
    # B keeps A's targets, so aimed requests hit under either policy, and
    # redraws everything that decides among the rules a request hits
    rules_b = [
        dataclasses.replace(
            _random_rule(rng, f"rule_b{i}", so_ids, oo_ids, ao, ato, purposes),
            subject=rule.subject,
            object=rule.object,
            action=rule.action,
            subject_attr_vars=rule.subject_attr_vars,
            object_attr_vars=rule.object_attr_vars,
            required_attributes=rule.required_attributes,
        )
        for i, rule in enumerate(rules_a)
    ]

    def entries(prefix: str, kind: str, ids: list) -> dict:
        return {
            f"{prefix}{i}": RegistryEntry(
                concepts=tuple(ConceptRef(kind, c) for c in sorted(set(rng.sample(ids, rng.randint(1, 2))))),
                attributes=_registry_certificates(rng, ato),
            )
            for i in range(REGISTRY_SIZE)
        }

    kb = KnowledgeBase(
        subjects=entries("user", "SO", so_ids),
        objects=entries("doc", "OO", oo_ids),
        context_specs=tuple(ContextAttributeSpec(a, "int", 0, 9) for a in ato),
    )
    policies = tuple(PolicyDocument(rules=tuple(r), source="synthetic") for r in (rules_a, rules_b))
    return SyntheticStore(graphs=graphs, tree=tree, policies=policies, kb=kb)
