"""Mutants of the package, each with the ``verify`` lines it must fail, or the reason it passes ``verify``.

    PYTHONPATH=src python tests/mutants.py   # each mutant's failing lines of run_verification(grid=3, points=5)

A mutant is a monkeypatch: a ``module.name`` of the package and a function from the original value to the
replacement.  Its verdict names the lines it fails by the keys of :data:`LINES`, in ``run_verification``'s order.
A mutant that fails none passes ``verify``: ``reason`` says why, and ``killed_by`` names the Tier-1 test that fails
under it, or is None for an equivalent mutant, one that no output can tell from the package.
``tests/test_mutants.py`` checks every verdict, and that each line fails under at least one mutant.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# run_verification's eight lines, in order
LINES = (
    "independent ab", "independent ba", "common ab", "common ba",
    "trigger info", "total info", "classical capacity", "concurrence",
)
TWO_WAY = ("tests/test_protocols.py::"
           "test_the_two_way_channel_state_equals_its_closed_form_and_catches_the_silent_party_mutants")


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str  # "module.name" in the bellbidir package
    replace: Callable  # the original value -> the mutant's
    fails: frozenset[str] = frozenset()  # keys of LINES
    reason: str = ""  # why a mutant that fails no line passes verify
    killed_by: str | None = None  # the Tier-1 test that fails under a mutant that passes verify


def shifted(delta: float) -> Callable:
    """A function's mutant whose every value is ``delta`` higher."""
    return lambda original: lambda *args: original(*args) + delta


def edited_gates(edit: Callable, common_only: bool = False) -> Callable:
    """A ``protocols._scheme_gates`` mutant: ``edit(gates, labels)`` of each scheme's gates, or the common one's."""
    def replace(original):
        def scheme_gates(labels, alice, bob, flip=()):
            gates = original(labels, alice, bob, flip)
            return gates if common_only and not flip else tuple(edit(gates, labels))
        return scheme_gates
    return replace


def closing_cnot(q: str, c: str, kind: str | None) -> Callable:
    """A gate edit: the last ``CNOT(q, c)``, the party's closing basis change, deleted or made a ``kind`` gate."""
    def edit(gates, labels):
        from bellbidir.sim import Gate

        at = max(i for i, gate in enumerate(gates) if gate == Gate("CNOT", (labels.index(q), labels.index(c))))
        return gates[:at] + (() if kind is None else (Gate(kind, gates[at].qubits),)) + gates[at + 1 :]
    return edit


def without_correction(record: str) -> Callable:
    """A gate edit: the deferred correction that the record qubit ``record`` controls deleted."""
    return lambda gates, labels: [gate for gate in gates if gate.qubits[0] != labels.index(record)]


def z_before_x(gates, labels):
    """A gate edit: each party's Z correction ahead of its X correction, the last four gates swapped in pairs."""
    *head, x_to_b, z_to_b, x_to_a, z_to_a = gates
    return (*head, z_to_b, x_to_b, z_to_a, x_to_a)


def toward_bell(original):
    """A ``cli.simulated_choi`` mutant: each state mixed with the Bell state by 1e-6, so every q < 1 moves."""
    from bellbidir.channels import choi_of_channel

    return lambda *args: (1 - 1e-6) * original(*args) + 1e-6 * choi_of_channel(1.0)


SILENT_PARTY = (
    "verify reads one-way channels, each with the silent party's input at |0>, so no state it reads sees that "
    "party's closing basis change; the two-way check is ROADMAP item 3"
)

MUTANTS: tuple[Mutant, ...] = (
    *(
        Mutant(f"common scheme: {party}'s closing CNOT({q}, {c}) {change}", "protocols._scheme_gates",
               edited_gates(closing_cnot(q, c, kind), common_only=True), reason=SILENT_PARTY, killed_by=TWO_WAY)
        for party, q, c in (("Alice", "Q_A", "C_A"), ("Bob", "Q_B", "C_B"))
        for change, kind in (("deleted", None), ("made a CZ", "CZ"))
    ),
    Mutant("each party's Z correction ahead of its X correction", "protocols._scheme_gates", edited_gates(z_before_x),
           reason="equivalent: the two orders differ by a phase on record qubits, which every output traces out"),
    # the information lines read A-to-B states; dephased, they keep their largest Bell-diagonal correlation, which
    # alone sets the accessible information, so the capacity line passes
    Mutant("Alice's Z correction of C_B deleted", "protocols._scheme_gates", edited_gates(without_correction("M_A2")),
           fails=frozenset({"independent ab", "common ab", "total info", "concurrence"})),
    Mutant("Bob's Z correction of C_A deleted", "protocols._scheme_gates", edited_gates(without_correction("M_B2")),
           fails=frozenset({"independent ba", "common ba"})),
    Mutant("every state of simulated_choi moved toward the Bell state", "cli.simulated_choi", toward_bell,
           fails=frozenset(LINES) - {"trigger info"}),  # the trigger-info line reads no state
    Mutant("the trigger table read at 1 - t", "cli.trigger_joint_distribution",
           lambda original: lambda t, *args: original(1.0 - t, *args), fails=frozenset({"trigger info"})),
    Mutant("total information closed form + 1e-9", "cli.total_info_closed", shifted(1e-9),
           fails=frozenset({"total info"})),
    Mutant("classical capacity closed form + 1e-11", "cli.classical_capacity_closed", shifted(1e-11),
           fails=frozenset({"classical capacity"})),
    Mutant("concurrence closed form + 1e-8", "cli.concurrence_closed", shifted(1e-8), fails=frozenset({"concurrence"})),
    Mutant("concurrence closed form + 5e-10", "cli.concurrence_closed", shifted(5e-10),
           reason="5e-10 is inside the line's tolerance of 1e-9. Only verify reads cli's binding; the same shift made "
                  "in infotheory's definition fails the test named",
           killed_by="tests/test_infotheory.py::test_concurrence_closed_matches_spectrum_path"),
    Mutant("no Newton refinement of the accessible information", "infotheory._NEWTON_STEPS", lambda original: 0,
           reason="every state verify reads is Werner, whose objective is flat, so the lattice start is the maximum",
           killed_by="tests/test_infotheory.py::test_quantum_discord"),
    Mutant("the concurrence without its spin flip", "infotheory._FLIP", lambda original: np.eye(4),
           reason="every state verify reads is Werner, which the spin flip leaves as it is",
           killed_by="tests/test_infotheory.py::test_info_report_matches_independent_oracles[random]"),
)


@contextlib.contextmanager
def applied(mutant: Mutant):
    """The package with ``mutant`` in place, restored on exit."""
    module_name, name = mutant.target.rsplit(".", 1)
    module = importlib.import_module(f"bellbidir.{module_name}")
    original = getattr(module, name)
    setattr(module, name, mutant.replace(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def failed_lines() -> frozenset[str]:
    """The keys of the lines that ``run_verification(grid=3, points=5)`` fails."""
    from bellbidir.cli import run_verification

    results = run_verification(grid=3, points=5)
    return frozenset(line for line, result in zip(LINES, results, strict=True) if not result.passed)


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]}")
    for mutant in MUTANTS:
        with applied(mutant):
            failed = failed_lines()
        verdict = "as listed" if failed == mutant.fails else "NOT AS LISTED"
        print(f"{verdict:<13} {mutant.name}: fails {sorted(failed, key=LINES.index) or 'no line'}")
