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

from .errors import ActivationError, ConfigError, SacError
from .ontology import load_ontology
from .pdp import PolicyStore, activate_store
from .registry import KnowledgeBase, parse_registry
from .xmlio import parse_policy, parse_purposes

DOCUMENT_KEYS = ("so", "oo", "ao", "ato", "purposes", "policy", "registry")
# bundle key -> the kind its ontology document must declare
_KIND_BY_KEY = {"so": "SO", "oo": "OO", "ao": "AO", "ato": "AtO"}


def parse_kv_config(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and #-comments are skipped."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
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


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def validate_bundle(bundle: Bundle) -> tuple[list[str], PolicyStore | None, KnowledgeBase | None]:
    """Parse and cross-validate every document, collecting ALL findings.

    Content problems become findings; unreadable files raise ConfigError so
    callers can distinguish I/O failure from validation failure.
    """
    findings: list[str] = []
    parsed = {}
    for key in DOCUMENT_KEYS:
        path = bundle.documents[key]
        text = _read(path)
        try:
            if key == "purposes":
                document = parse_purposes(text)
            elif key == "policy":
                document = parse_policy(text, source=path.name)
            elif key == "registry":
                document = parse_registry(text)
            else:
                document = load_ontology(text)
                expected = _KIND_BY_KEY[key]
                if document.kind != expected:
                    findings.append(f"{path.name}: declared kind {document.kind}, expected {expected}")
                    continue
        except SacError as exc:
            findings.append(f"{path.name}: {exc}")
            continue
        parsed[key] = document

    graphs = {kind: parsed[key] for key, kind in _KIND_BY_KEY.items() if key in parsed}
    tree, policy, kb = parsed.get("purposes"), parsed.get("policy"), parsed.get("registry")
    store = None
    if len(graphs) == 4 and tree is not None and policy is not None:
        try:
            store = activate_store(policy, graphs, tree, bundle.trusted_soas, version=1)
        except ActivationError as exc:
            findings.extend(exc.findings)
        if kb is not None:
            findings.extend(kb.validate(graphs))
    if findings:
        store = None
    return findings, store, kb


def build_store(bundle: Bundle) -> tuple[PolicyStore, KnowledgeBase]:
    """Load a bundle that must be valid; raises ActivationError with the report."""
    findings, store, kb = validate_bundle(bundle)
    if findings or store is None or kb is None:
        raise ActivationError(findings or ["bundle incomplete"])
    return store, kb
