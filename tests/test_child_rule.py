"""Every document reader takes its children through ``xmlbase.each_child``:
only ``xmlbase`` refuses a child element as unexpected or repeated, so no
reader grows its own child check again."""

import ast
from pathlib import Path

import sacpdp

PACKAGE = Path(sacpdp.__file__).parent
REPEAT = "has more than one"


def _child_checks(path: Path) -> list[str]:
    """Where a module calls ``unexpected`` or writes a "has more than one"
    message (an f-string's literal parts included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "unexpected":
                found.append(f"{path.name}:{node.lineno} calls unexpected")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and REPEAT in node.value:
            found.append(f"{path.name}:{node.lineno} writes {REPEAT!r}")
    return found


def test_only_xmlbase_checks_children():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10
    found = [check for path in paths if path.name != "xmlbase.py" for check in _child_checks(path)]
    assert found == []


def test_xmlbase_holds_the_child_rule():
    checks = _child_checks(PACKAGE / "xmlbase.py")
    assert any(check.endswith("calls unexpected") for check in checks)
    assert any(check.endswith(f"writes {REPEAT!r}") for check in checks)


def test_guard_sees_a_hand_written_child_loop(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def parse_policy(root):\n"
        "    for child in root.children:\n"
        "        if child.tag != 'spl:access_Rules':\n"
        "            raise xmlbase.unexpected(child, 'in <spl:policy>')\n"
        "        if seen:\n"
        "            raise DocumentError(f'<{root.tag}> has more than one <{child.tag}>')\n",
        encoding="utf-8",
    )
    assert _child_checks(probe) == [
        "probe.py:4 calls unexpected",
        f"probe.py:6 writes {REPEAT!r}",
    ]
