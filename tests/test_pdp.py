"""Decision engine: matching, rule evaluation, combining, masking, totality."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgen import random_request_for, random_store
from sacpdp.errors import ActivationError
from sacpdp.ontology import WILDCARD_ID, AttributeDescriptor, ConceptRef
from sacpdp.pdp import (
    AccessRequest,
    DecisionValue,
    activate_store,
    decide,
    explain,
    _match_target_traced,
)
from sacpdp.policy import (
    ANY_PURPOSE,
    AccessRule,
    Atom,
    AttributeVariable,
    Op,
    PolicyDocument,
)

P, D, I, NA = (
    DecisionValue.PERMIT,
    DecisionValue.DENY,
    DecisionValue.INDETERMINATE,
    DecisionValue.NOT_APPLICABLE,
)

EXPECTED_CANNED = {
    "01_doctor_reads_record": (P, "Read_patient_records", "read_only", False),
    "02_too_few_years": (D, "Read_patient_records", None, True),
    "03_years_missing": (I, "Read_patient_records", None, True),
    "04_unknown_subject": (NA, None, None, False),
    "05_email_with_consent": (P, "Consulting_email_access", "read_only", False),
    "06_email_consent_refused": (D, "Consulting_email_access", None, False),
    "07_partner_research": (P, "Partner_research_access", None, False),
    "08_partner_research_young": (D, "Partner_research_access", None, False),
}
EXPECTED_CANNED["07_partner_research"] = (P, "Partner_research_access", "read_only", False)


def cert(name, soa="hospital_ADMIN", e=False):
    return AttributeDescriptor(attribute_id=name, name=name, soa_id=soa, equivalence_enabled=e)


def req(
    subject=(),
    presented=(),
    obj=("patient_record",),
    action="read",
    purpose="treat",
    ctx=None,
):
    return AccessRequest(
        subject_id="test_subject",
        subject_concepts=frozenset(ConceptRef("SO", c) for c in subject),
        presented_attributes=tuple(presented),
        object_id="test_object",
        object_concepts=frozenset(ConceptRef("OO", c) for c in obj),
        action=ConceptRef("AO", action),
        purpose=purpose,
        context=dict(ctx or {}),
    )


def with_policy(store, rules):
    return activate_store(
        PolicyDocument(rules=tuple(rules)),
        store.graphs,
        store.purposes,
        store.trusted_soas,
        version=store.version,
    )


class TestCannedScenarios:
    def test_all_eight(self, ehealth, canned_requests):
        store, _ = ehealth
        assert len(canned_requests) == 8
        for name, request in canned_requests:
            d = decide(store, request)
            got = (d.value, d.matched_rule, d.granted_right, d.masked)
            assert got == EXPECTED_CANNED[name], name

    def test_masked_explanations_are_opaque(self, ehealth, canned_requests):
        store, _ = ehealth
        lookup = dict(canned_requests)
        for name in ("02_too_few_years", "03_years_missing"):
            d = decide(store, lookup[name])
            assert explain(d) == "access denied"
            assert "Read_patient_records" not in explain(d)

    def test_permit_explanation_shows_right_and_rule(self, ehealth, canned_requests):
        store, _ = ehealth
        d = decide(store, dict(canned_requests)["01_doctor_reads_record"])
        text = explain(d)
        assert "decision: Permit" in text
        assert "granted right: read_only" in text
        assert "selected rule Read_patient_records: Permit" in text
        assert any(e.startswith("store version ") for e in d.explanation)

    def test_unmasked_deny_names_the_rule(self, ehealth, canned_requests):
        store, _ = ehealth
        d = decide(store, dict(canned_requests)["06_email_consent_refused"])
        assert "Consulting_email_access" in explain(d)


class TestRoleInheritanceWidening:
    def test_junior_matches_senior_rule(self, ehealth):
        store, _ = ehealth
        # the expert role holds doctor's rights, so a doctor-targeted rule applies
        request = req(subject=("expert",), obj=("email_address",), ctx={"consent": "given"})
        d = decide(store, request)
        assert d.value is P
        assert d.matched_rule == "Consulting_email_access"
        assert any("holding rights of doctor" in e for e in d.explanation)

    def test_senior_does_not_match_junior_rule(self, ehealth):
        store, _ = ehealth
        expert_only = AccessRule(
            name="expert_only",
            subject=ConceptRef("SO", "expert"),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
        )
        narrowed = with_policy(store, [expert_only])
        assert decide(narrowed, req(subject=("expert",))).value is P
        assert decide(narrowed, req(subject=("doctor",))).value is NA


class TestWildcardTargets:
    def test_wildcards_match_empty_concept_sets(self, ehealth):
        store, _ = ehealth
        request = req(subject=(), presented=(cert("doctor"),), obj=())
        d = decide(store, request)
        assert d.value is P
        assert d.matched_rule == "Auth_doctors"

    def test_empty_subject_fails_concrete_clause(self, ehealth):
        store, _ = ehealth
        request = req(subject=(), obj=("email_address",), ctx={"consent": "given"})
        d = decide(store, request)
        assert d.value is NA  # nothing to subsume, and no certificate either


class TestRequiredAttributes:
    def test_equivalent_name_satisfies_when_enabled(self, ehealth):
        store, _ = ehealth
        d = decide(store, req(presented=(cert("medic"),), obj=()))
        assert d.value is P
        assert d.matched_rule == "Auth_doctors"
        assert any("satisfied by medic issued by hospital_ADMIN" in e for e in d.explanation)

    def test_presented_flag_does_not_govern_widening(self, ehealth):
        store, _ = ehealth
        # widening is the rule's choice; the presented flag is ignored here
        d = decide(store, req(presented=(cert("medic", e=False),), obj=()))
        assert d.value is P

    def test_untrusted_issuer_never_satisfies(self, ehealth):
        store, _ = ehealth
        d = decide(store, req(presented=(cert("doctor", soa="evil_corp"),), obj=()))
        assert d.value is NA

    def test_rule_side_soa_is_not_compared(self, ehealth):
        store, _ = ehealth
        requirer = AccessRule(
            name="requirer",
            subject=ConceptRef("SO", WILDCARD_ID),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
            required_attributes=(
                AttributeDescriptor(
                    attribute_id="x",
                    name="doctor",
                    soa_id="some_other_admin",
                    equivalence_enabled=False,
                ),
            ),
        )
        narrowed = with_policy(store, [requirer])
        # issuer trust comes from the store's trust set, not the rule's soa field
        d = decide(narrowed, req(presented=(cert("doctor", soa="hospital_ADMIN"),), obj=()))
        assert d.value is P

    def test_disabled_widening_requires_exact_name(self, ehealth):
        store, _ = ehealth
        requirer = AccessRule(
            name="requirer",
            subject=ConceptRef("SO", WILDCARD_ID),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
            required_attributes=(
                AttributeDescriptor(attribute_id="x", name="doctor", equivalence_enabled=False),
            ),
        )
        narrowed = with_policy(store, [requirer])
        assert decide(narrowed, req(presented=(cert("medic"),), obj=())).value is NA
        assert decide(narrowed, req(presented=(cert("doctor"),), obj=())).value is P


class TestAttributeVariables:
    def test_variables_bind_by_exact_name_only(self, ehealth):
        store, _ = ehealth
        # "doctor" is equivalent to nothing for variable binding purposes;
        # the rule's subject variable is literally named "doctors"
        request = req(
            subject=("doctor",),
            presented=(cert("doctor"),),
            obj=("patient_record",),
            ctx={"years_of_service": 30},
        )
        d = decide(store, request)
        assert d.matched_rule == "Auth_doctors"  # the high-priority rule did not bind

    def test_exact_name_binds(self, ehealth):
        store, _ = ehealth
        request = req(
            subject=("doctor",),
            presented=(cert("doctor"), cert("doctors"), cert("patients")),
            obj=("patient_record",),
            ctx={"years_of_service": 30},
        )
        d = decide(store, request)
        assert d.matched_rule == "Read_patient_records"
        assert d.value is P


class TestIndeterminateFolding:
    def test_unknown_request_concept(self, ehealth):
        store, _ = ehealth
        d = decide(store, req(subject=("ghost",)))
        assert d.value is I
        assert d.masked is True  # highest-priority applicable rule is non-public

    def test_unknown_purpose(self, ehealth):
        store, _ = ehealth
        d = decide(store, req(subject=("doctor",), obj=("email_address",), purpose="bake", ctx={"consent": "given"}))
        assert d.value is I
        assert d.matched_rule == "Consulting_email_access"
        assert d.masked is False  # that rule is public

    def test_condition_type_mismatch(self, ehealth):
        store, _ = ehealth
        request = req(
            subject=("doctor",),
            presented=(cert("doctors"), cert("patients")),
            ctx={"years_of_service": "five"},
        )
        d = decide(store, request)
        assert d.value is I
        assert d.masked is True
        assert explain(d) == "access denied"

    def test_decide_never_raises_on_junk(self, ehealth):
        store, _ = ehealth
        junk = req(subject=("ghost",), obj=("ghost",), action="ghost", purpose="ghost")
        d = decide(store, junk)
        assert d.value is I


class TestCombining:
    def _pair(self, store, first_kind, second_kind, priority_a=5, priority_b=5):
        # "always" permits unconditionally; "flagged" tracks ctx["consent"]:
        # "yes" -> Permit, "no" -> Deny, absent -> Indeterminate
        from sacpdp.policy import EMPTY

        def rule(name, kind, priority):
            return AccessRule(
                name=name,
                subject=ConceptRef("SO", WILDCARD_ID),
                object=ConceptRef("OO", WILDCARD_ID),
                action=ConceptRef("AO", WILDCARD_ID),
                condition=EMPTY if kind == "always" else Atom("consent", Op.EQUALS, "yes"),
                priority=priority,
            )

        rules = [rule("a", first_kind, priority_a), rule("b", second_kind, priority_b)]
        return with_policy(store, rules)

    def test_deny_overrides_permit_at_same_priority(self, ehealth):
        store, _ = ehealth
        s = self._pair(store, "always", "flagged")
        d = decide(s, req(obj=(), ctx={"consent": "no"}))
        assert d.value is D
        assert d.matched_rule == "b"

    def test_permit_overrides_indeterminate_at_same_priority(self, ehealth):
        store, _ = ehealth
        s = self._pair(store, "always", "flagged")
        d = decide(s, req(obj=(), ctx={}))  # flag missing: rule b is Indeterminate
        assert d.value is P
        assert d.matched_rule == "a"

    def test_priority_dominates_value(self, ehealth):
        store, _ = ehealth
        s = self._pair(store, "always", "flagged", priority_a=3, priority_b=8)
        # the flagged rule sits alone at the highest priority and denies
        d = decide(s, req(obj=(), ctx={"consent": "no"}))
        assert d.value is D
        assert d.matched_rule == "b"

    def test_indeterminate_at_top_shadows_lower_permit(self, ehealth):
        store, _ = ehealth
        s = self._pair(store, "always", "flagged", priority_a=3, priority_b=8)
        d = decide(s, req(obj=(), ctx={}))
        assert d.value is I
        assert d.matched_rule == "b"

    def test_document_order_breaks_value_ties(self, ehealth):
        store, _ = ehealth
        s = self._pair(store, "always", "always")
        d = decide(s, req(obj=()))
        assert d.value is P
        assert d.matched_rule == "a"

    def test_empty_policy_is_not_applicable(self, ehealth):
        store, _ = ehealth
        s = with_policy(store, [])
        d = decide(s, req())
        assert d.value is NA
        assert d.matched_rule is None
        assert d.granted_right is None
        assert d.masked is False
        assert any("no applicable rules" in e for e in d.explanation)


class TestMaskingMechanics:
    def test_public_toggle_never_changes_value(self, ehealth, canned_requests):
        store, _ = ehealth
        for flip_to in (True, False):
            flipped = with_policy(
                store,
                [dataclasses.replace(r, public=flip_to) for r in store.policy.rules],
            )
            for name, request in canned_requests:
                original = decide(store, request)
                toggled = decide(flipped, request)
                assert toggled.value is original.value, name
                assert toggled.matched_rule == original.matched_rule, name

    def test_permit_is_never_masked(self, ehealth):
        store, _ = ehealth
        d = decide(store, req(presented=(cert("doctor"),), obj=()))
        assert d.value is P
        assert d.masked is False  # Auth_doctors is non-public, but Permit shows


class TestActivation:
    def test_unknown_rule_reference_is_reported(self, ehealth):
        store, _ = ehealth
        bad = AccessRule(
            name="bad_rule",
            subject=ConceptRef("SO", "astronaut"),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
        )
        with pytest.raises(ActivationError) as err:
            with_policy(store, [bad])
        assert any("bad_rule" in f and "astronaut" in f for f in err.value.findings)

    def test_unknown_purpose_is_reported(self, ehealth):
        store, _ = ehealth
        bad = AccessRule(
            name="bad_rule",
            subject=ConceptRef("SO", WILDCARD_ID),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
            purpose="world_domination",
        )
        with pytest.raises(ActivationError) as err:
            with_policy(store, [bad])
        assert any("world_domination" in f for f in err.value.findings)

    def test_all_findings_collected(self, ehealth):
        store, _ = ehealth
        bad1 = AccessRule(
            name="bad1",
            subject=ConceptRef("SO", "astronaut"),
            object=ConceptRef("OO", WILDCARD_ID),
            action=ConceptRef("AO", WILDCARD_ID),
        )
        bad2 = AccessRule(
            name="bad2",
            subject=ConceptRef("SO", WILDCARD_ID),
            object=ConceptRef("OO", "starship"),
            action=ConceptRef("AO", WILDCARD_ID),
        )
        with pytest.raises(ActivationError) as err:
            with_policy(store, [bad1, bad2])
        assert len(err.value.findings) == 2

    def test_missing_graph_rejected(self, ehealth):
        store, _ = ehealth
        graphs = {k: v for k, v in store.graphs.items() if k != "AtO"}
        with pytest.raises(ActivationError):
            activate_store(store.policy, graphs, store.purposes, store.trusted_soas)


class TestTotalityAndDeterminism:
    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=200, deadline=None)
    def test_decide_is_total_and_stable(self, seed):
        rng = random.Random(seed)
        store = random_store(rng)
        request = random_request_for(rng, store)
        first = decide(store, request)
        second = decide(store, request)
        assert isinstance(first.value, DecisionValue)
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=100, deadline=None)
    def test_match_target_raises_only_sac_errors(self, seed):
        rng = random.Random(seed)
        store = random_store(rng)
        request = random_request_for(rng, store)
        from sacpdp.errors import SacError

        for rule in store.policy.rules:
            try:
                _match_target_traced(rule, request, store)
            except SacError:
                pass
