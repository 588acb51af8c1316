"""Knowledge base registry, wire-request resolution, bundle loading."""

import pytest
import requests

from conftest import EHEALTH
from sacpdp.bundle import build_store, load_bundle, parse_kv_config, validate_bundle
from sacpdp.cli import main
from sacpdp.errors import ActivationError, ConfigError, UnknownPurposeError
from sacpdp.ontology import AttributeDescriptor, ConceptRef
from sacpdp.registry import (
    KnowledgeBase,
    RegistryEntry,
    build_access_request,
    parse_registry,
    serialize_registry,
)
from sacpdp.xmlio import XacmlRequestDoc


def wire(subject="joan", attrs=(), resource="records/jen", action="read", purpose="treat", env=None):
    return XacmlRequestDoc(
        subject_id=subject,
        subject_attributes=tuple(attrs),
        resource_id=resource,
        action_id=action,
        purpose_id=purpose,
        environment=dict(env or {}),
    )


class TestRegistryDocuments:
    def test_fixture_entries(self, ehealth):
        _, kb = ehealth
        assert set(kb.subjects) == {"joan", "harrison", "pat_corp"}
        joan = kb.subjects["joan"]
        assert [c.id for c in joan.concepts] == ["doctor"]
        assert [a.name for a in joan.attributes] == ["doctor", "doctors"]
        assert all(a.soa_id == "hospital_ADMIN" for a in joan.attributes)
        assert set(kb.objects) == {"records/jen", "records/jen_email", "records/jen_info"}
        assert {s.attribute_id for s in kb.context_specs} == {
            "years_of_service",
            "consent",
            "age",
            "shift",
        }

    def test_round_trip_fixed_point(self, ehealth):
        _, kb = ehealth
        text = serialize_registry(kb)
        assert parse_registry(text) == kb
        assert serialize_registry(parse_registry(text)) == text

    def test_round_trip_typed_standing_attributes(self):
        # the e-health registry holds only untyped certificates; this covers the
        # value types and an attribute_id that differs from the name
        subject_attrs = (
            AttributeDescriptor("cert-7", "doctor", "hospital_ADMIN", True),
            AttributeDescriptor("years_of_service", "years_of_service", value=12),
            AttributeDescriptor("on_call", "on_call", value=True),
            AttributeDescriptor("fte", "fte", value=0.1),
            AttributeDescriptor("shift", "shift", "hospital_ADMIN", value="night"),
        )
        kb = KnowledgeBase(
            subjects={"ann": RegistryEntry((ConceptRef("SO", "doctor"),), subject_attrs)},
            objects={"records/x": RegistryEntry((), (AttributeDescriptor("tag-1", "patients"),))},
        )
        text = serialize_registry(kb)
        parsed = parse_registry(text)
        assert parsed == kb
        assert serialize_registry(parsed) == text
        # == alone would let True pass for 1 and 12 for 12.0
        values = [a.value for a in parsed.subjects["ann"].attributes]
        assert [type(v) for v in values] == [type(None), int, bool, float, str]
        assert 'attribute_id="cert-7"' in text
        assert 'type="int"' in text and 'type="bool"' in text and 'type="decimal"' in text

    def test_fixture_file_is_canonical(self, ehealth):
        _, kb = ehealth
        on_disk = (EHEALTH / "ehealth_registry.xml").read_text(encoding="utf-8")
        assert serialize_registry(kb) == on_disk

    def test_validate_flags_wrong_side_and_unknown(self, ehealth):
        store, _ = ehealth
        bad = KnowledgeBase(
            subjects={
                "x": RegistryEntry(concepts=(ConceptRef("OO", "patient_record"),)),
                "y": RegistryEntry(concepts=(ConceptRef("SO", "astronaut"),)),
            },
        )
        findings = bad.validate(store.graphs)
        assert len(findings) == 2
        assert any("x" in f for f in findings)
        assert any("astronaut" in f for f in findings)


@pytest.mark.parametrize(
    "bounds, finding",
    [
        ('max="40" min="ten"', "not an int: 'ten'"),
        ('max="0" min="40"', "context_attribute 'years_of_service': min 40 is above max 0"),
    ],
    ids=["not-an-int", "min-above-max"],
)
class TestContextRanges:
    """An int context attribute's range is read as the typed reader reads
    every int, and must not be empty: random requests draw from it."""

    @staticmethod
    def registry_with(bounds: str) -> str:
        text = (EHEALTH / "ehealth_registry.xml").read_text(encoding="utf-8")
        ranged = '<context_attribute id="years_of_service" kind="int" max="40" min="0"/>'
        assert ranged in text
        return text.replace(ranged, f'<context_attribute id="years_of_service" kind="int" {bounds}/>')

    def test_validate_reports_a_finding(self, tmp_path, capsys, bounds, finding):
        (tmp_path / "registry.xml").write_text(self.registry_with(bounds), encoding="utf-8")
        conf = tmp_path / "bundle.conf"
        lines = [f"{key} = {EHEALTH / f'ehealth_{key}.xml'}" for key in ("so", "oo", "ao", "ato", "purposes", "policy")]
        lines += [f"registry = {tmp_path / 'registry.xml'}", "trusted_soas = hospital_ADMIN"]
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", str(conf)]) == 1
        out = capsys.readouterr().out
        assert f"registry.xml: {finding}" in out

    def test_upload_is_refused_unaudited(self, gateway, bounds, finding):
        gw, base, _, audit_path = gateway
        answer = requests.put(f"{base}/admin/registry", data=self.registry_with(bounds).encode(), timeout=10)
        assert answer.status_code == 422
        assert finding in answer.text
        assert gw.version == 1
        assert requests.get(f"{base}/admin/version", timeout=10).json() == {"version": 1}
        assert not audit_path.exists() or audit_path.read_text(encoding="utf-8") == ""


class TestRequestResolution:
    def test_registry_supplies_concepts_and_certificates(self, ehealth):
        store, kb = ehealth
        request, conflicts = build_access_request(wire(env={"years_of_service": 5}), kb, store)
        assert {c.id for c in request.subject_concepts} == {"doctor"}
        assert {c.id for c in request.object_concepts} == {"patient_record"}
        names = [a.name for a in request.presented_attributes]
        assert names == ["doctor", "doctors", "patients"]  # subject attrs then object attrs
        assert request.context == {"years_of_service": 5}
        assert conflicts == []

    def test_unregistered_ids_resolve_empty(self, ehealth):
        store, kb = ehealth
        request, _ = build_access_request(wire(subject="zoe", resource="void"), kb, store)
        assert request.subject_concepts == frozenset()
        assert request.object_concepts == frozenset()
        assert request.presented_attributes == ()

    def test_unknown_purpose_raises(self, ehealth):
        store, kb = ehealth
        with pytest.raises(UnknownPurposeError):
            build_access_request(wire(purpose="bake"), kb, store)

    def test_wire_certificate_needs_trusted_issuer(self, ehealth):
        store, kb = ehealth
        trusted = AttributeDescriptor("c1", "doctor", soa_id="hospital_ADMIN")
        untrusted = AttributeDescriptor("c2", "doctor", soa_id="evil_corp")
        unsigned = AttributeDescriptor("c3", "doctor")
        request, _ = build_access_request(
            wire(subject="zoe", attrs=(trusted, untrusted, unsigned), resource="void"), kb, store
        )
        assert [a.attribute_id for a in request.presented_attributes] == ["c1"]

    def test_wire_attribute_values_enter_context(self, ehealth):
        store, kb = ehealth
        valued = AttributeDescriptor("c1", "years_of_service", value=7)
        request, conflicts = build_access_request(wire(subject="zoe", attrs=(valued,)), kb, store)
        assert request.context == {"years_of_service": 7}
        assert conflicts == []

    def test_registry_value_wins_with_conflict_note(self, ehealth):
        store, _ = ehealth
        kb = KnowledgeBase(
            subjects={
                "joan": RegistryEntry(
                    concepts=(ConceptRef("SO", "doctor"),),
                    attributes=(
                        AttributeDescriptor(
                            "a1", "years_of_service", soa_id="hospital_ADMIN", value=10
                        ),
                    ),
                )
            },
        )
        request, conflicts = build_access_request(wire(env={"years_of_service": 5}), kb, store)
        assert request.context["years_of_service"] == 10
        assert len(conflicts) == 1
        assert "registry wins" in conflicts[0]

    def test_agreeing_values_produce_no_note(self, ehealth):
        store, _ = ehealth
        kb = KnowledgeBase(
            subjects={
                "joan": RegistryEntry(
                    attributes=(
                        AttributeDescriptor(
                            "a1", "years_of_service", soa_id="hospital_ADMIN", value=5
                        ),
                    ),
                )
            },
        )
        _, conflicts = build_access_request(wire(env={"years_of_service": 5}), kb, store)
        assert conflicts == []


class TestBundleConfig:
    def test_kv_parser(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("# comment\nkey = value\n\nother=x\n", encoding="utf-8")
        assert parse_kv_config(conf) == {"key": "value", "other": "x"}

    def test_kv_parser_rejects_bad_line(self, tmp_path):
        conf = tmp_path / "c.conf"
        conf.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            parse_kv_config(conf)
        assert "c.conf:1" in str(err.value)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_kv_config(tmp_path / "absent.conf")

    def test_missing_bundle_keys(self, tmp_path):
        conf = tmp_path / "bundle.conf"
        conf.write_text("so = a.xml\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_bundle(conf)
        assert "missing bundle keys" in str(err.value)

    def test_directory_resolves_to_bundle_conf(self):
        bundle = load_bundle(EHEALTH)
        assert bundle.documents["so"].name == "ehealth_so.xml"
        assert bundle.trusted_soas == ("hospital_ADMIN",)

    def test_request_paths_sorted(self):
        bundle = load_bundle(EHEALTH)
        names = [p.name for p in bundle.request_paths()]
        assert names == sorted(names)
        assert len(names) == 8

    def test_fixture_bundle_validates_clean(self, ehealth_bundle):
        findings, store, kb = validate_bundle(ehealth_bundle)
        assert findings == []
        assert store is not None and kb is not None
        assert store.version == 1

    def test_findings_collected_across_documents(self, tmp_path):
        # two independent breakages: SO slot fed an OO document, malformed policy
        conf = tmp_path / "bundle.conf"
        bad_policy = tmp_path / "policy.xml"
        bad_policy.write_text("<spl:policy><unclosed", encoding="utf-8")
        lines = [
            f"so = {EHEALTH / 'ehealth_oo.xml'}",
            f"oo = {EHEALTH / 'ehealth_oo.xml'}",
            f"ao = {EHEALTH / 'ehealth_ao.xml'}",
            f"ato = {EHEALTH / 'ehealth_ato.xml'}",
            f"purposes = {EHEALTH / 'ehealth_purposes.xml'}",
            f"policy = {bad_policy}",
            f"registry = {EHEALTH / 'ehealth_registry.xml'}",
            "trusted_soas = hospital_ADMIN",
        ]
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        findings, store, _ = validate_bundle(load_bundle(conf))
        assert store is None
        assert any("declared kind OO, expected SO" in f for f in findings)
        assert any("policy.xml" in f for f in findings)
        assert len(findings) >= 2

    def test_build_store_raises_with_findings(self, tmp_path):
        conf = tmp_path / "bundle.conf"
        lines = [
            f"so = {EHEALTH / 'ehealth_oo.xml'}",
            f"oo = {EHEALTH / 'ehealth_oo.xml'}",
            f"ao = {EHEALTH / 'ehealth_ao.xml'}",
            f"ato = {EHEALTH / 'ehealth_ato.xml'}",
            f"purposes = {EHEALTH / 'ehealth_purposes.xml'}",
            f"policy = {EHEALTH / 'ehealth_policy.xml'}",
            f"registry = {EHEALTH / 'ehealth_registry.xml'}",
        ]
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ActivationError) as err:
            build_store(load_bundle(conf))
        assert err.value.findings

    def test_missing_document_file_is_config_error(self, tmp_path):
        conf = tmp_path / "bundle.conf"
        lines = [
            f"so = {tmp_path / 'nope.xml'}",
            f"oo = {EHEALTH / 'ehealth_oo.xml'}",
            f"ao = {EHEALTH / 'ehealth_ao.xml'}",
            f"ato = {EHEALTH / 'ehealth_ato.xml'}",
            f"purposes = {EHEALTH / 'ehealth_purposes.xml'}",
            f"policy = {EHEALTH / 'ehealth_policy.xml'}",
            f"registry = {EHEALTH / 'ehealth_registry.xml'}",
        ]
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            validate_bundle(load_bundle(conf))
