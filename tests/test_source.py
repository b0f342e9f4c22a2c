"""The package keeps no check in an ``assert``, which ``python -O`` strips out, and one import path per name."""
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


def test_package_module_binds_only_the_version():
    # each name is imported from the module that defines it; the package module re-exports nothing
    source = SOURCES[0].parent / "__init__.py"
    body = ast.parse(source.read_text(encoding="utf-8")).body
    bound = [node for node in body if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert len(bound) == 1 and isinstance(bound[0], ast.Assign), [ast.unparse(node) for node in bound]
    assert [ast.unparse(target) for target in bound[0].targets] == ["__version__"]
