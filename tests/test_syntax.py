import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10; a newer construct such
    # as ``except*`` fails here even when the tests run on a later Python
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def _names(node) -> set[str]:
    """The exception names an ``except`` clause's type expression lists."""
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "") for n in nodes}


def _bypasses_reader(node) -> bool:
    if isinstance(node, ast.ExceptHandler) and node.type is not None:
        return bool(_names(node.type) & {"UnicodeDecodeError", "JSONDecodeError"})
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        return node.func.attr == "read_text" or (
            node.func.attr == "loads" and isinstance(owner, ast.Name) and owner.id == "json")
    return False


# config.read_text / config.read_json turn a file that is not UTF-8 or not
# JSON into the caller's error naming the file; a module that reads text
# itself could let such a file end in a traceback
@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "ocuseg").glob("*.py")
                                        if p.name != "config.py"), ids=lambda p: p.name)
def test_text_files_are_read_through_one_helper(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = sorted({node.lineno for node in ast.walk(tree) if _bypasses_reader(node)})
    assert not bad, f"{path.name} reads text past config.read_text/read_json at lines {bad}"
