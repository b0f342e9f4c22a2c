"""The package keeps no check in an ``assert``, which ``python -O`` strips out, one import path per name, no
public name that no code uses and no private name that the package itself does not use."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "bellbidir").glob("*.py"))
# code outside src/ that may use a public name; the tests, and prose that names a function, do not count as a use
USER_CODE = [*sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "benchmarks").glob("*.py"))]


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


def definitions(tree: ast.Module):
    """(name, statement) of each top-level function, class and assigned name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names)


def used_names(node: ast.AST) -> set[str]:
    """Names that a statement reads, as a name, an attribute or an import."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def code_uses(path: Path) -> set[str]:
    """Names that a demo or benchmark file uses: in code, and as the name of a ``"module.name"`` string constant."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    pairs = [re.fullmatch(r"(\w+)\.(\w+)", value) for value in strings]  # such as benchmarks/spans.py's layer names
    modules = {source.stem for source in SOURCES}
    return used_names(tree) | {pair[2] for pair in pairs if pair and pair[1] in modules}


def readme_uses(text: str) -> set[str]:
    """Words of the README's ```python fences and of its inline backtick spans."""
    fences = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", text, flags=re.M | re.S))
    return set(re.findall(r"\w+", "\n".join(fences + spans)))


def uses_outside_the_package() -> set[str]:
    """Names that demo and benchmark code, the README's code and pyproject.toml's entry points use."""
    code = set().union(*map(code_uses, USER_CODE))
    readme = readme_uses((ROOT / "README.md").read_text(encoding="utf-8"))
    entry_points = set(re.findall(r'"[\w.]+:(\w+)', (ROOT / "pyproject.toml").read_text(encoding="utf-8")))
    # each reader finds a name that it should, so none of them reads nothing
    assert "matrix_sqrt_psd" in code and "entrypoint" in entry_points
    assert {"CRITICAL_T", "fidelity_quadrature"} <= readme
    return code | readme | entry_points


def unused_definitions(private: bool, outside: set[str] = frozenset()) -> list[str]:
    """``module:name`` of each public (or private) definition that neither ``outside`` nor another statement uses."""
    trees = [ast.parse(source.read_text(encoding="utf-8")) for source in SOURCES]
    statements = [(node, used_names(node)) for tree in trees for node in tree.body]
    found = [(source.name, *item) for source, tree in zip(SOURCES, trees) for item in definitions(tree)]
    known = {"CRITICAL_T", "CheckResult", "choi_of_channel", "_CHECK_ERRORS", "_objective"}
    assert known <= {name for _, name, _ in found}
    return [
        f"{module}:{name}"
        for module, name, definition in found
        if name.startswith("_") == private
        and not any(name in used for node, used in statements if node is not definition)
        and name not in outside
    ]


def test_every_public_name_is_used_outside_its_definition():
    # a name that only the tests call, or only prose names, is dead code: delete it, or use it
    unused = unused_definitions(private=False, outside=uses_outside_the_package())
    assert not unused, f"public names that nothing outside the tests uses: {unused}"


def test_every_private_name_is_used_by_the_package():
    # a private name is the package's own: if no other statement of the package uses it, delete it
    unused = unused_definitions(private=True)
    assert not unused, f"private names that no other statement of the package uses: {unused}"
