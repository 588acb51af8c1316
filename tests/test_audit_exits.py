"""The gateway writes audit records from its exits alone: every refusal is
raised to ``ClientConnection._answer``, which answers and audits it once, so
no endpoint grows its own audit-then-send block."""

import ast
from pathlib import Path

from sacpdp import service

AUDITING_METHODS = {"_answer", "_decide", "_fail"}


def _audit_callers(path: Path) -> dict[str, list[int]]:
    """The ClientConnection methods that use ``self._audit``, each with the
    lines where it does."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: dict[str, list[int]] = {}
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and cls.name == "ClientConnection"):
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(method):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr == "_audit"
                ):
                    found.setdefault(method.name, []).append(node.lineno)
    return found


def test_only_the_exits_audit():
    assert set(_audit_callers(Path(service.__file__))) == AUDITING_METHODS


def test_guard_sees_an_audit_in_an_endpoint(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class ClientConnection:\n"
        "    def _answer(self):\n"
        "        self._audit(None, None, None, None)\n"
        "    def _proxy(self):\n"
        "        if True:\n"
        "            self._audit('joan', None, 'read', None)\n"
        "            self._send(400, b'no purpose\\n')\n",
        encoding="utf-8",
    )
    assert _audit_callers(probe) == {"_answer": [3], "_proxy": [6]}
