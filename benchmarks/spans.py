"""Span tracing of bellbidir's module boundaries, installed from outside ``src/``.

Nothing in the package is edited.  :meth:`Tracer.install` rebinds names in
the ``bellbidir.*`` module namespaces to timing wrappers and
:meth:`Tracer.uninstall` puts the original functions back:

* every public function that one bellbidir module imports from another is
  wrapped where the importing module binds it, so cross-module calls are
  spans;
* the functions in :data:`LAYER_FUNCTIONS` are also wrapped in their own
  module, so calls from inside that module are spans too.  The exception is
  ``sim.apply_gate`` inside ``sim``: wrapping the per-gate kernel of
  ``run_circuit`` would cost more than the kernel, so ``sim.apply_gate``
  counts the correction gates the trajectory sampler applies, and the gates
  ``run_circuit`` applies are counted by ``sim.run_circuit.gates``.

A span is (name, start, end, parent) and is kept in memory.  Busy time of a
name is the sum of its span durations; self time subtracts the time covered
by child spans.  Calls, gates, failures and warnings are reported per item
(channel state, trajectory or session) of the traced ops.  Warnings raised while a traced call runs are counted per
module and still shown, once per source location.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "protocols", "sim", "infotheory", "channels", "linalg")
PER_ITEM = "count/item"  # unit of counts divided by the items of the traced ops

# The functions whose calls, busy and self time the traced run reports.
LAYER_FUNCTIONS = (
    "cli.run_verification",
    "protocols.build_scheme_independent",
    "protocols.build_scheme_common",
    "protocols.extract_choi",
    "protocols.sample_trajectories",
    "protocols.sample_mixed_trajectories",
    "sim.run_circuit",
    "sim.reduced_density_matrix",
    "sim.measure_qubit",
    "sim.apply_gate",
    "linalg.partial_trace",
    "linalg.max_abs",
    "linalg.matrix_sqrt_psd",
    "infotheory.classical_accessible_info",
    "infotheory.info_report",
    "infotheory.quantum_mutual_information",
    "infotheory.concurrence",
    "infotheory.min_partial_transpose_eigenvalue",
    "channels.analytic_channel",
    "channels.choi_of_channel",
)

# Entry points the benchmark calls: wrapped in their own module so those calls are spans.
_ENTRY_POINTS = ("cli.main",)
_NOT_IN_OWN_MODULE = ("sim.apply_gate",)


class Tracer:
    """Wrappers and the spans they record during one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.failed: list[int] = []
        self.gates = 0  # sum of len(circuit.gates) over sim.run_circuit calls
        self.warnings = {module: 0 for module in MODULES}
        # Spans, one entry per call: name id, start, end, parent span (-1 for none).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []  # open spans, innermost last
        self._bindings: list[tuple[object, str, object, object]] = []
        self._shown: set[tuple] = set()
        self._package_dir: Path | None = None
        self._file_modules: dict[str, str | None] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.failed.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        ix = self._id(name)
        counts_gates = name == "sim.run_circuit"
        stack, names, starts, ends, parents = self._stack, self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(ix)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[ix] += 1
                raise
            finally:
                ends[span] = clock()
                stack.pop()
                if counts_gates:
                    self.gates += len(args[0].gates)

        return traced

    def _plan(self):
        """(module object, attribute, span name, original) for every binding to wrap."""
        modules = {name: sys.modules[f"bellbidir.{name}"] for name in MODULES}
        home = {}
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and not attr.startswith("_") and value.__module__ == module.__name__:
                    home[value] = f"{short}.{attr}"
        own = set(LAYER_FUNCTIONS + _ENTRY_POINTS) - set(_NOT_IN_OWN_MODULE)
        plan = []
        for short, module in modules.items():
            for attr, value in vars(module).items():
                name = home.get(value) if inspect.isfunction(value) else None
                if name is None:
                    continue
                if not name.startswith(short + ".") or name in own:
                    plan.append((module, attr, name, value))
        return plan

    def install(self) -> None:
        """Rebind every planned name to its wrapper (wrappers are built once)."""
        if not self._bindings:
            wrappers: dict[object, object] = {}
            for module, attr, name, fn in self._plan():
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(name, fn)
                self._bindings.append((module, attr, fn, wrappers[fn]))
            self._package_dir = Path(sys.modules["bellbidir"].__file__).resolve().parent
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _module_of(self, filename: str) -> str | None:
        """The bellbidir module a warning came from: its source file, else the innermost span."""
        if filename not in self._file_modules:
            path = Path(filename).resolve()
            inside = path.parent == self._package_dir and path.stem in self.warnings
            self._file_modules[filename] = path.stem if inside else None
        if self._file_modules[filename] is not None:
            return self._file_modules[filename]
        if self._stack:
            return self.names[self.span_name[self._stack[-1]]].split(".")[0]
        return None

    def call(self, fn, *args, **kwargs):
        """Run ``fn`` with the wrappers installed, counting the warnings raised."""
        shown = warnings.showwarning

        def count(message, category, filename, lineno, file=None, line=None):
            module = self._module_of(filename)
            if module is not None:
                self.warnings[module] += 1
            key = (str(message), category, filename, lineno)
            if key not in self._shown:
                self._shown.add(key)
                shown(message, category, filename, lineno, file, line)

        self.install()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = count
                return fn(*args, **kwargs)
        finally:
            self.uninstall()

    def layer_metrics(self, traced_seconds: float, traced_items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the spans: calls, failures, warnings and gates per item, busy and self shares.

        Counts are divided by the items the traced ops did, so they describe the
        program and not how many ops fit in the traced window.
        """
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(duration)
        np.add.at(child, parent[parent >= 0], duration[parent >= 0])
        size = len(self.names)
        calls = np.bincount(name, minlength=size) / traced_items
        busy = np.bincount(name, weights=duration, minlength=size) * (100.0 / traced_seconds)
        own = np.bincount(name, weights=duration - child, minlength=size) * (100.0 / traced_seconds)
        metrics: dict[str, tuple[float, str]] = {}
        for function in LAYER_FUNCTIONS:
            ix = self._ids.get(function)
            metrics[f"{function}.calls_per_item"] = (float(calls[ix]) if ix is not None else 0.0, PER_ITEM)
            metrics[f"{function}.busy_pct"] = (float(busy[ix]) if ix is not None else 0.0, "%")
            metrics[f"{function}.self_pct"] = (float(own[ix]) if ix is not None else 0.0, "%")
        metrics["sim.run_circuit.gates_per_item"] = (self.gates / traced_items, PER_ITEM)
        for module in MODULES:
            ixs = [ix for ix, function in enumerate(self.names) if function.split(".")[0] == module]
            metrics[f"{module}.self_pct"] = (float(own[ixs].sum()), "%")
            metrics[f"{module}.failed_per_item"] = (sum(self.failed[ix] for ix in ixs) / traced_items, PER_ITEM)
            metrics[f"{module}.warnings_per_item"] = (self.warnings[module] / traced_items, PER_ITEM)
        return metrics
