import ast
import re
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


CI = ROOT / ".github" / "workflows" / "ci.yml"
K_COMMANDS = [line for line in CI.read_text(encoding="utf-8").splitlines()
              if re.search(r"\s-k\s", line)]


def _test_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


def test_ci_selects_some_tests_by_name():
    assert K_COMMANDS, f"no pytest -k command in {CI}"


# a test renamed or moved out of the files a -k command lists drops out of
# that CI step without any failure, so every name the step selects must be
# a test function defined in one of the files the same command runs
@pytest.mark.parametrize("command", K_COMMANDS, ids=range(len(K_COMMANDS)))
def test_ci_k_names_are_tests_in_the_listed_files(command):
    expression = re.search(r"""\s-k\s+(["'])(.*?)\1""", command).group(2)
    names = set(re.findall(r"\w+", expression)) - {"and", "or", "not"}
    files = re.findall(r"tests/\S+\.py", command)
    defined = set().union(*(_test_functions(ROOT / f) for f in files))
    assert files and names, command
    assert names <= defined, f"not a test in {files}: {sorted(names - defined)}"
