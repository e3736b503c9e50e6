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
