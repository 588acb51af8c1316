"""Bundle loading: one flat key=value file naming every document of a deployment.

A bundle names the four ontologies, the purpose tree, the policy, the registry,
the trusted attribute authorities, and optionally a directory of canned request
documents.  Relative paths resolve against the bundle file's directory.  The
gateway config reuses this format with a few extra keys (listen, upstream,
audit_log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ActivationError, ConfigError, SacError, WrongOntologyTagError
from .ontology import ONTOLOGY_KINDS, load_ontology
from .pdp import PolicyStore, activate_store
from .registry import KnowledgeBase, parse_registry
from .xmlio import parse_policy, parse_purposes

# Every document slot: slot -> (bundle key, path under the gateway's /admin/).
# An ontology slot is named by the kind its document must declare.
SLOTS = {
    "SO": ("so", "ontology/SO"),
    "OO": ("oo", "ontology/OO"),
    "AO": ("ao", "ontology/AO"),
    "AtO": ("ato", "ontology/AtO"),
    "purposes": ("purposes", "purposes"),
    "policy": ("policy", "policy"),
    "registry": ("registry", "registry"),
}
DOCUMENT_KEYS = tuple(key for key, _ in SLOTS.values())
ADMIN_PATHS = {path: slot for slot, (_, path) in SLOTS.items()}


def parse_kv_config(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@dataclass(frozen=True)
class Bundle:
    """Resolved bundle paths plus the trust set."""

    root: Path
    documents: dict = field(default_factory=dict)
    trusted_soas: tuple = ()
    requests_dir: Path | None = None

    def request_paths(self) -> list[Path]:
        if self.requests_dir is None:
            return []
        return sorted(self.requests_dir.glob("*.xml"))


def load_bundle(path: str | Path) -> Bundle:
    """Read a bundle config; accepts the file or a directory holding bundle.conf."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.conf"
    values = parse_kv_config(path)
    missing = [key for key in DOCUMENT_KEYS if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing bundle keys: {', '.join(missing)}")
    base = path.parent
    documents = {key: (base / values[key]) for key in DOCUMENT_KEYS}
    trusted = tuple(s for s in values.get("trusted_soas", "").replace(",", " ").split() if s)
    requests_dir = (base / values["requests"]) if "requests" in values else None
    return Bundle(root=base, documents=documents, trusted_soas=trusted, requests_dir=requests_dir)


def _read(path: Path) -> bytes:
    # the readers decode, so a file that is not UTF-8 is a finding, not a crash
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def parse_document(slot: str, text: str | bytes, source: str = ""):
    """Parse the document for one slot; ``source`` names a policy's origin."""
    if slot == "policy":
        return parse_policy(text, source=source)
    if slot == "purposes":
        return parse_purposes(text)
    if slot == "registry":
        return parse_registry(text)
    graph = load_ontology(text)
    if graph.kind != slot:
        raise WrongOntologyTagError(f"declared kind {graph.kind}, expected {slot}")
    return graph


def assemble(docs: dict, trusted_soas, version: int) -> tuple[list[str], PolicyStore | None]:
    """Activate a store from every slot but the registry, then check the
    registry (when given) against its graphs; the store only if nothing is
    found."""
    findings: list[str] = []
    graphs = {kind: docs[kind] for kind in ONTOLOGY_KINDS}
    store = None
    try:
        store = activate_store(docs["policy"], graphs, docs["purposes"], trusted_soas, version=version)
    except ActivationError as exc:
        findings.extend(exc.findings)
    if "registry" in docs:
        findings.extend(docs["registry"].validate(graphs))
    return findings, None if findings else store


def validate_bundle(bundle: Bundle) -> tuple[list[str], PolicyStore | None, KnowledgeBase | None]:
    """Parse and cross-validate every document, collecting ALL findings.

    Content problems become findings; unreadable files raise ConfigError so
    callers can distinguish I/O failure from validation failure.
    """
    findings: list[str] = []
    docs = {}
    for slot, (key, _) in SLOTS.items():
        path = bundle.documents[key]
        text = _read(path)
        try:
            docs[slot] = parse_document(slot, text, source=path.name)
        except SacError as exc:
            findings.append(f"{path.name}: {exc}")
    store = None
    if docs.keys() >= SLOTS.keys() - {"registry"}:
        assembled, store = assemble(docs, bundle.trusted_soas, version=1)
        findings.extend(assembled)
    if findings:
        store = None
    return findings, store, docs.get("registry")


def build_store(bundle: Bundle) -> tuple[PolicyStore, KnowledgeBase]:
    """Load a bundle that must be valid; raises ActivationError with the report."""
    findings, store, kb = validate_bundle(bundle)
    if findings or store is None or kb is None:
        raise ActivationError(findings or ["bundle incomplete"])
    return store, kb
