"""The documented formats parse: every ```xml block of docs/FORMATS.md is read
by the reader for its root element, so the formats and the readers cannot
drift apart."""

import re
from pathlib import Path

import pytest

from sacpdp.ontology import load_ontology
from sacpdp.registry import parse_registry
from sacpdp.xmlio import (
    parse_policy,
    parse_purposes,
    parse_rule,
    parse_xacml_request,
    parse_xacml_response,
)

FORMATS = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```xml\n(.*?)^```$", FORMATS, re.M | re.S)

READERS = {
    "ontology": load_ontology,
    "purposes": parse_purposes,
    "spl:policy": parse_policy,
    # the conditions section shows a bare <Condition>, the body of a rule
    "Condition": lambda text: parse_rule(f"<rule>{text}</rule>"),
    "request": parse_xacml_request,
    "response": parse_xacml_response,
    "registry": parse_registry,
}


def test_every_xml_block_is_found():
    assert len(BLOCKS) == FORMATS.count("```xml") > 0


@pytest.mark.parametrize("block", BLOCKS, ids=[re.match(r"<([\w:]+)", b).group(1) for b in BLOCKS])
def test_documented_block_parses(block):
    root = re.match(r"<([\w:]+)", block).group(1)
    assert READERS[root](block) is not None
