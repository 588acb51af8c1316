"""Ontology graphs: validation, subsumption, role inheritance, equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fixpoint_reachability, union_find_classes
from randgen import random_graph
from sacpdp.errors import (
    CycleDetectedError,
    DanglingReferenceError,
    DocumentError,
    DuplicateIdError,
    UnknownConceptError,
    UnknownElementError,
    WrongOntologyTagError,
)
from sacpdp.ontology import (
    AttributeDescriptor,
    ConceptRef,
    build_graph,
    equivalent_attributes,
    inherited_rights_roles,
    load_ontology,
    serialize_ontology,
    subsumes,
    subsumption_path,
)


def ref(kind, cid):
    return ConceptRef(kind, cid)


class TestSubsumption:
    def test_reflexive(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        assert subsumes(so, ref("SO", "doctor"), ref("SO", "doctor"))

    def test_direct_edge(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        assert subsumes(so, ref("SO", "Anyperson"), ref("SO", "doctor"))
        assert not subsumes(so, ref("SO", "doctor"), ref("SO", "Anyperson"))

    def test_transitive_chain(self, ehealth):
        store, _ = ehealth
        ao = store.graphs["AO"]
        assert subsumes(ao, ref("AO", "act"), ref("AO", "read"))
        assert subsumption_path(ao, ref("AO", "act"), ref("AO", "read")) == [
            "read",
            "query",
            "act",
        ]

    def test_siblings_unrelated(self, ehealth):
        store, _ = ehealth
        ao = store.graphs["AO"]
        assert not subsumes(ao, ref("AO", "read"), ref("AO", "write"))
        assert subsumption_path(ao, ref("AO", "read"), ref("AO", "write")) is None

    def test_unknown_concept_raises(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        with pytest.raises(UnknownConceptError):
            subsumes(so, ref("SO", "Anyperson"), ref("SO", "ghost"))

    def test_wrong_tag_raises(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        with pytest.raises(WrongOntologyTagError):
            subsumes(so, ref("OO", "Anyperson"), ref("OO", "patient_record"))


class TestRoleInheritance:
    def test_expert_holds_doctor_rights(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        got = {r.id for r in inherited_rights_roles(so, ref("SO", "expert"))}
        assert got == {"expert", "doctor"}

    def test_senior_does_not_gain_junior(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        got = {r.id for r in inherited_rights_roles(so, ref("SO", "doctor"))}
        assert got == {"doctor"}

    def test_plain_role_is_singleton(self, ehealth):
        store, _ = ehealth
        so = store.graphs["SO"]
        got = {r.id for r in inherited_rights_roles(so, ref("SO", "nurse"))}
        assert got == {"nurse"}

    def test_chain_closure(self):
        g = build_graph(
            "SO",
            {n: "concept" for n in ("a", "b", "c")},
            [],
            role_inherit_edges=[("a", "b"), ("b", "c")],
        )
        got = {r.id for r in inherited_rights_roles(g, ref("SO", "a"))}
        assert got == {"a", "b", "c"}


class TestEquivalence:
    def test_component_when_enabled(self, ehealth):
        store, _ = ehealth
        ato = store.graphs["AtO"]
        attr = AttributeDescriptor("x", "doctor", equivalence_enabled=True)
        assert equivalent_attributes(ato, attr) == {"doctor", "physician", "medic"}

    def test_singleton_when_disabled(self, ehealth):
        store, _ = ehealth
        ato = store.graphs["AtO"]
        attr = AttributeDescriptor("x", "doctor", equivalence_enabled=False)
        assert equivalent_attributes(ato, attr) == {"doctor"}

    def test_isolated_node_is_its_own_component(self, ehealth):
        store, _ = ehealth
        ato = store.graphs["AtO"]
        attr = AttributeDescriptor("x", "patients", equivalence_enabled=True)
        assert equivalent_attributes(ato, attr) == {"patients"}

    def test_unknown_name_raises(self, ehealth):
        store, _ = ehealth
        ato = store.graphs["AtO"]
        with pytest.raises(UnknownConceptError):
            equivalent_attributes(ato, AttributeDescriptor("x", "ghost"))


class TestBuildValidation:
    def test_dangling_isa(self):
        with pytest.raises(DanglingReferenceError):
            build_graph("SO", {"a": "concept"}, [("a", "zzz")])

    def test_isa_cycle_names_the_cycle(self):
        with pytest.raises(CycleDetectedError) as err:
            build_graph("SO", {"a": "concept", "b": "concept"}, [("a", "b"), ("b", "a")])
        message = str(err.value)
        assert "cycle in" in message
        assert "a" in message and "b" in message

    def test_inherit_cycle_detected(self):
        with pytest.raises(CycleDetectedError):
            build_graph(
                "SO",
                {"a": "concept", "b": "concept"},
                [],
                role_inherit_edges=[("a", "b"), ("b", "a")],
            )

    def test_inherit_outside_so(self):
        with pytest.raises(WrongOntologyTagError):
            build_graph(
                "OO", {"a": "concept", "b": "concept"}, [], role_inherit_edges=[("a", "b")]
            )

    def test_equiv_outside_ato(self):
        with pytest.raises(WrongOntologyTagError):
            build_graph("SO", {"a": "concept", "b": "concept"}, [], equiv_edges=[("a", "b")])

    def test_individual_cannot_be_parent(self):
        with pytest.raises(DanglingReferenceError):
            build_graph("SO", {"a": "concept", "j": "individual"}, [("a", "j")])

    def test_individual_can_be_child(self):
        g = build_graph("SO", {"a": "concept", "j": "individual"}, [("j", "a")])
        assert subsumes(g, ref("SO", "a"), ref("SO", "j"))

    def test_reserved_wildcard_id(self):
        with pytest.raises(DuplicateIdError):
            build_graph("SO", {"*": "concept"}, [])

    def test_unknown_kind(self):
        with pytest.raises(WrongOntologyTagError):
            build_graph("XX", {"a": "concept"}, [])


class TestDocumentForm:
    def test_round_trip(self, ehealth):
        store, _ = ehealth
        for kind in ("SO", "OO", "AO", "AtO"):
            text = serialize_ontology(store.graphs[kind])
            assert load_ontology(text) == store.graphs[kind]
            # canonical output is a fixed point
            assert serialize_ontology(load_ontology(text)) == text

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateIdError):
            load_ontology(
                '<ontology kind="SO"><concept id="a"/><concept id="a"/></ontology>'
            )

    def test_unknown_element_has_position(self):
        with pytest.raises(UnknownElementError) as err:
            load_ontology('<ontology kind="SO">\n  <banana id="a"/>\n</ontology>')
        assert err.value.line == 2

    def test_missing_attribute_rejected(self):
        with pytest.raises(DocumentError) as err:
            load_ontology('<ontology kind="SO">\n  <concept/>\n</ontology>')
        assert type(err.value) is DocumentError
        assert err.value.args == ("<concept> is missing required attribute 'id'",)
        assert (err.value.line, err.value.column) == (2, 2)


class TestSubsumptionAgainstOracle:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_fixpoint_closure(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, "SO", "n")
        nodes = sorted(graph.node_kinds)
        reach = fixpoint_reachability(nodes, graph.isa_edges)
        for child in nodes:
            assert graph.ancestors[child] == reach[child], child
            for parent in nodes:
                expected = parent in reach[child]
                got = subsumes(graph, ref("SO", parent), ref("SO", child))
                assert got == expected, f"{child} -> {parent}"

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rights_closure_matches_fixpoint(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, "SO", "n")
        nodes = sorted(graph.node_kinds)
        reach = fixpoint_reachability(nodes, graph.role_inherit_edges)
        isa = fixpoint_reachability(nodes, graph.isa_edges)
        for node in nodes:
            got = {r.id for r in inherited_rights_roles(graph, ref("SO", node))}
            assert got == reach[node]
            # the rights set: every is-a ancestor of every role it holds
            assert graph.rights[node] == set().union(*(isa[role] for role in reach[node])), node

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_matches_union_find(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, "AtO", "t")
        nodes = sorted(graph.node_kinds)
        uf = union_find_classes(nodes, graph.equiv_edges)
        for node in nodes:
            attr = AttributeDescriptor("x", node, equivalence_enabled=True)
            assert equivalent_attributes(graph, attr) == uf.component(node)
            assert graph.components[node] == uf.component(node)
