"""The package keeps no check in an ``assert``, which ``python -O`` strips out."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "bellbidir").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 7


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{source.name} has assert statements on lines {lines}"
