"""Every ``bellbidir`` name the benchmark workloads call still exists.

``benchmarks/workloads.py`` reaches the package as ``bb.<module>.<name>``,
``self.bb.<module>.<name>`` or through a local alias such as
``info = self.bb.infotheory``.  The file is parsed, never imported.  Each
call it makes must also bind to the signature of the function it calls.
"""
import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def _path(node, aliases):
    """The attribute path below the package that an expression names, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self" and node.attr == "bb":
            return ()
        base = _path(node.value, aliases)
        return None if base is None else base + (node.attr,)
    return None


def _items(node):
    return node.elts if isinstance(node, ast.Tuple) else [node]


def _parse():
    """The workloads file's syntax tree, and its local aliases of the package, its modules and their names."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    aliases = {"bb": ()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            for name, expr in zip(_items(node.targets[0]), _items(node.value)):
                path = _path(expr, aliases)
                if isinstance(name, ast.Name) and path is not None and len(path) <= 2:
                    aliases[name.id] = path
    return tree, aliases


def used_names():
    """(module, name) of every package attribute the workloads file reaches."""
    tree, aliases = _parse()
    paths = [_path(node, aliases) for node in ast.walk(tree)]
    return {path[:2] for path in paths if path is not None and len(path) >= 2}


def package_calls():
    """(module, name, call) of every call the workloads file makes straight to a package function or class."""
    tree, aliases = _parse()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _path(node.func, aliases)
            if path is not None and len(path) == 2:
                yield (*path, node)


def test_benchmark_names_are_found():
    names = used_names()
    for expected in (("protocols", "build_scheme_independent"), ("cli", "CHOI_TOL"), ("sim", "run_circuit")):
        assert expected in names
    assert len(names) >= 25


def test_benchmark_names_exist():
    names = sorted(used_names())
    modules = {module: importlib.import_module(f"bellbidir.{module}") for module, _ in names}
    missing = [f"{module}.{name}" for module, name in names if not hasattr(modules[module], name)]
    assert not missing, f"benchmarks/workloads.py calls names the package no longer has: {missing}"


def test_benchmark_calls_bind_to_the_package_signatures():
    # a call with * or ** arguments has no count to bind; every other call binds its positional count and keywords
    bound, skipped, unbound = [], [], []
    for module, name, call in package_calls():
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
            skipped.append(name)
            continue
        function = getattr(importlib.import_module(f"bellbidir.{module}"), name)
        try:
            inspect.signature(function).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {module}.{name}: {exc}")
        bound.append(name)
    assert not unbound, f"benchmarks/workloads.py calls the package with arguments it no longer takes: {unbound}"
    assert {"run_circuit", "Circuit", "SchemeParams"} <= set(bound) and len(bound) >= 15, (bound, skipped)
    # Trajectories._branches calls initial_state() on a built Circuit, an object the file never names
    inspect.signature(importlib.import_module("bellbidir.sim").Circuit.initial_state).bind(None)
