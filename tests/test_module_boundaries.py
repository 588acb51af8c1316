"""Modules of the package use one another only through public names."""

import ast
from pathlib import Path

import sacpdp

PACKAGE = Path(sacpdp.__file__).parent


def _private_uses(path: Path) -> list[str]:
    """Underscore-prefixed names this module takes from other sacpdp modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to sacpdp modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "sacpdp":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
                elif node.module is None or node.module == "sacpdp":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sacpdp":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    found = [use for path in paths for use in _private_uses(path)]
    assert found == []


def test_guard_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import xmlbase\nfrom .xmlio import _parse_scalar\nxmlbase._hidden()\n",
        encoding="utf-8",
    )
    assert _private_uses(probe) == [
        "probe.py:2 imports _parse_scalar",
        "probe.py:3 uses xmlbase._hidden",
    ]
