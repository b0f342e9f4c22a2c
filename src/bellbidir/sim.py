"""Pure-state simulator for the protocol's gate set.

Convention: qubit 0 is the most significant bit of the amplitude index, so
``state.reshape([2] * n)`` exposes qubit ``k`` on axis ``k`` and the first
label of a :class:`Circuit` is the leftmost tensor factor.

A register may carry leading stack axes, ``(..., 2**n)``: a ``prep`` holding
``(k, 2)`` stacks runs k registers at once; one state is a stack with no axes.
Registers are float64 unless a preparation, or the state run, is complex.

``apply_gate`` slices the amplitude array.  A plan cached per gate list,
prepared qubits, input pattern and kept qubits runs a compact register of
the amplitudes its input can reach, and names the operand cell each lands
in: ``run_reduced`` starts it from the nonzero entries of a product of
preparations and writes straight into the operand of
``reduced_density_matrix``, the same bits without the full register;
``run_circuit`` keeps every qubit in order, so each lands in its own cell.
None builds the full register unitary; the closed gate set {H, X, Z, CZ,
CNOT, CCNOT} consists entirely of involutions.  In the plan, an H on m live
column pairs is two gathers of ``2m + 1`` columns, ``(a0, a0, 0)`` and
``(a1, -a1, 0)`` with the second half negated exactly, then one add and one
multiply by 1/sqrt(2): the kernel's ``(a0 + a1, a0 - a1)`` bit for bit.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BadIndex, BadLabel, OutOfRange, ZeroNorm, as_indices, is_integer
from .linalg import _reject_first, split_keep

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2, "CCNOT": 3}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """A single gate application; controls precede the target in ``qubits``."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = as_indices("qubits", self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, got {qubits}")
        if any(q < 0 for q in qubits):
            raise BadIndex(f"negative qubit index in {qubits}")
        if len(set(qubits)) != len(qubits):
            raise BadIndex(f"repeated qubit index in {qubits}")


def H(q: int) -> Gate:
    return Gate("H", (q,))


def X(q: int) -> Gate:
    return Gate("X", (q,))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def CCNOT(control1: int, control2: int, target: int) -> Gate:
    return Gate("CCNOT", (control1, control2, target))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a register of labeled qubits.

    ``prep`` optionally assigns a single-qubit state, or a ``(k, 2)`` stack of
    them, to a label; unlisted qubits start in |0>.  This covers preparations
    (trigger angles) that the closed gate set cannot express.  The stacks of
    one ``prep`` broadcast together into a stack of registers.  A built
    circuit holds ``prep`` as a read-only mapping of read-only complex copies,
    so what its construction checked stays true for its lifetime.
    """

    num_qubits: int
    labels: tuple[str, ...]
    gates: tuple[Gate, ...]
    prep: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not is_integer(self.num_qubits) or self.num_qubits < 0:
            raise OutOfRange(f"num_qubits must be a non-negative integer, got {self.num_qubits!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.labels) != self.num_qubits:
            raise ValueError(f"{self.num_qubits} qubits but {len(self.labels)} labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("qubit labels must be unique")
        for gate in self.gates:
            if any(q >= self.num_qubits for q in gate.qubits):
                raise BadIndex(f"gate {gate} exceeds register of {self.num_qubits} qubits")
        prep = {}
        for label, state in self.prep.items():
            if label not in self.labels:
                raise BadLabel(f"prepared qubit {label!r} not in register")
            state = prep[label] = np.array(state, dtype=complex)
            state.flags.writeable = False
            if state.shape[-1:] != (2,):
                raise ValueError(f"preparation for {label!r} is not a single-qubit state or a stack of them")
            if 0 in state.shape:
                raise OutOfRange(f"preparation stack for {label!r} is empty, shape {state.shape}")
            norm = np.linalg.norm(state, axis=-1)
            _reject_first(~(abs(norm - 1) <= 1e-10), norm, ValueError, f"preparation {label!r} has norm {{}}", "state")
        object.__setattr__(self, "prep", MappingProxyType(prep))
        stacks = {label: state.shape[:-1] for label, state in prep.items()}
        try:
            np.broadcast_shapes(*stacks.values())
        except ValueError:
            raise ValueError(f"preparation stacks do not broadcast, label -> stack shape: {stacks}") from None

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise BadLabel(f"no qubit labeled {label!r}") from None

    def initial_state(self) -> np.ndarray:
        """Product state of all per-qubit preparations (|0> where unlisted), ``(k, 2**n)`` for a stacked prep."""
        prepped, product = _prep_product(self.labels, self.prep)
        state = np.zeros((*product.shape[:-1], 2**self.num_qubits), dtype=product.dtype)
        state[..., _product_cells(self.num_qubits, prepped)] = product
        return state


def _prep_product(labels: tuple[str, ...], prep: Mapping[str, np.ndarray]) -> tuple[tuple[int, ...], np.ndarray]:
    """The prepared qubits of a register in order, and the product of their states, ``(*stack, 2**k)`` for k of them.

    A factor without an imaginary part enters as float64, so the product is complex only if a state is.
    """
    prepped = tuple(q for q, label in enumerate(labels) if label in prep)
    product = np.ones(())
    for i, q in enumerate(prepped):
        factor = prep[labels[q]]
        factor = factor if factor.imag.any() else factor.real
        product = product[..., None] * factor.reshape(*factor.shape[:-1], *[1] * i, 2)
    return prepped, product.reshape(*product.shape[: product.ndim - len(prepped)], 2 ** len(prepped))


def _product_cells(n: int, prepped: tuple[int, ...]) -> np.ndarray:
    """Register index of each entry of a product over the qubits ``prepped``, every other qubit at 0, ascending."""
    return np.arange(2**n).reshape([2] * n)[tuple(slice(None) if q in prepped else 0 for q in range(n))].ravel()


def bell_state() -> np.ndarray:
    """The maximally entangled pair (|00> + |11>)/sqrt(2)."""
    return np.array([_INV_SQRT2, 0.0, 0.0, _INV_SQRT2], dtype=complex)


def bloch_state(theta: float, phi: float = 0.0) -> np.ndarray:
    """Pure qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)


def num_qubits_of(state: np.ndarray) -> int:
    size = np.shape(state)[-1]
    n = size.bit_length() - 1
    if size < 2 or 2**n != size:
        raise ValueError(f"state length {size} is not a power of two >= 2")
    return n


def _ix(n: int, fixed: dict[int, int]) -> tuple:
    ix: list = [slice(None)] * n
    for axis, value in fixed.items():
        ix[axis] = value
    return tuple(ix)


@functools.lru_cache(maxsize=1024)
def _gate_ix(gate: Gate, n: int) -> tuple:
    """Index tuples ``(..., *ix)`` of the target's 0 and 1 amplitudes where every control is 1, for n qubits."""
    *controls, target = gate.qubits
    return tuple((Ellipsis, *_ix(n, {**dict.fromkeys(controls, 1), target: value})) for value in (0, 1))


def _apply_in_place(psi: np.ndarray, gate: Gate, n: int) -> None:
    """Apply one gate to the ``(..., 2, ..., 2)`` view of a stack of n-qubit registers, overwriting it."""
    lo, hi = _gate_ix(gate, n)
    if gate.kind == "H":
        a0 = psi[lo].copy()
        a1 = psi[hi]
        psi[lo] = (a0 + a1) * _INV_SQRT2
        psi[hi] = (a0 - a1) * _INV_SQRT2
    elif gate.kind in ("Z", "CZ"):  # the phase sits where every qubit of the gate is 1
        psi[hi] *= -1.0
    else:  # X, CNOT, CCNOT: swap
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Return the state, or each state of a stack, with one gate applied (the input is left untouched)."""
    n = num_qubits_of(state)
    for q in gate.qubits:
        if q >= n:
            raise BadIndex(f"qubit {q} out of range for {n}-qubit state")
    psi = np.array(state, dtype=complex if np.iscomplexobj(state) else float)
    _apply_in_place(psi.reshape(*psi.shape[:-1], *[2] * n), gate, n)
    return psi


@functools.lru_cache(maxsize=256)
def _plan(gates: tuple[Gate, ...], n: int, prepped: tuple[int, ...], pattern: bytes, keep: tuple[int, ...]) -> tuple:
    """Steps that run the gates on a compact register of the amplitudes an input can reach, and where those land.

    The input is a product over the qubits ``prepped``, every other qubit at 0, nonzero where the bool ``pattern``
    is.  ``reg`` maps each amplitude to its column, or to -1 (the trailing zero column) while no gate can have made
    it nonzero.  X, CNOT and CCNOT relabel columns; a ``(2, 2m + 1)`` step is an H on m column pairs, gathering
    ``(lo, lo, -1)`` and ``(hi, hi, -1)``, and a 1-D one a negation.  Returns the steps, the reached amplitudes'
    final columns, and their flat positions in the ``(2**len(keep), -1)`` operand of ``reduced_density_matrix``.
    """
    cells = np.arange(2**n).reshape([2] * n)
    initial = _product_cells(n, prepped)[np.frombuffer(pattern, dtype=bool)]
    reg = np.full(2**n, -1)
    reg[initial] = np.arange(initial.size)
    steps = []
    for gate in gates:
        lo, hi = (cells[ix].ravel() for ix in _gate_ix(gate, n))
        if gate.kind == "H":
            live = (reg[lo] >= 0) | (reg[hi] >= 0)
            lo, hi = lo[live], hi[live]
            steps.append(np.stack([np.concatenate((reg[half], reg[half], [-1])) for half in (lo, hi)]))
            reg[lo], reg[hi] = np.arange(lo.size), np.arange(lo.size, 2 * lo.size)
        elif gate.kind in ("Z", "CZ"):
            steps.append(reg[hi][reg[hi] >= 0])
        else:
            _apply_in_place(reg.reshape([2] * n), gate, n)
    keep, rest = split_keep(n, keep)
    operand = reg.reshape([2] * n).transpose(keep + rest).ravel()  # the column of each operand cell
    landing = np.flatnonzero(operand >= 0)
    return tuple(steps), operand[landing], landing


def _run_plan(amps: np.ndarray, steps: tuple, columns: np.ndarray) -> np.ndarray:
    """Run a plan's steps on the input's compact ``(..., m)`` amplitudes; return the reached ones, norm-checked."""
    zero = np.zeros((*amps.shape[:-1], 1), dtype=amps.dtype)
    amps = np.concatenate((amps, zero), axis=-1)  # a copy: the steps run in place
    for step in steps:
        if step.ndim == 1:
            amps[..., step] *= -1.0
        else:  # the kernel's H, (a0 + a1) and (a0 - a1) times 1/sqrt(2), with the zero column for an absent partner
            m = step.shape[1] // 2
            a1 = amps.take(step[1], axis=-1)
            np.negative(a1[..., m:-1], out=a1[..., m:-1])  # exact, so a0 + (-a1) is a0 - a1 bit for bit
            amps = amps.take(step[0], axis=-1)
            amps += a1
            amps *= _INV_SQRT2
    amps = amps[..., columns]
    norm = np.linalg.norm(amps, axis=-1)
    _reject_first(~(np.abs(norm - 1.0) < 1e-10), norm, ValueError, "statevector norm {} differs from 1", "state")
    return amps


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply all gates of the circuit in order to a full-register state, or to each state of a stack."""
    state = np.asarray(state, dtype=complex if np.iscomplexobj(state) else float)
    n = circuit.num_qubits
    if state.shape[-1:] != (2**n,):
        raise ValueError(f"state shape {state.shape} does not match {n} qubits")
    nonzero = (state != 0).reshape(-1, 2**n).any(axis=0)
    every = tuple(range(n))  # the whole register is the input and is kept in order; Circuit has checked the gates
    steps, columns, landing = _plan(circuit.gates, n, every, nonzero.tobytes(), every)
    out = np.zeros_like(state)
    out[..., landing] = _run_plan(state[..., nonzero], steps, columns)
    return out


def measure_qubit(state: np.ndarray, index: int, rng: np.random.Generator) -> tuple[int, np.ndarray, float]:
    """Projectively measure one qubit in the computational basis.

    The state may have any nonzero norm: outcome ``k`` comes up with
    probability ``w_k / (w_0 + w_1)``, where ``w_k`` is the squared norm of
    the half of the state with the qubit at ``k``.  Returns ``(outcome,
    collapsed_state, probability_of_that_outcome)``; the collapsed state is
    the kept half scaled to unit norm.
    """
    n = num_qubits_of(state)
    if not is_integer(index) or not 0 <= index < n:
        raise BadIndex(f"qubit {index!r} is not an index of the {n}-qubit state")
    psi = np.asarray(state, dtype=complex).reshape([2] * n)
    halves = [psi[_ix(n, {index: k})] for k in (0, 1)]
    weights = [np.vdot(half, half).real for half in halves]
    total = weights[0] + weights[1]
    if total < 1e-15:
        raise ZeroNorm("cannot measure a zero-norm state")
    outcome = int(rng.random() < weights[1] / total)
    prob = weights[outcome] / total
    if prob < 1e-15:
        raise ZeroNorm(f"outcome {outcome} on qubit {index} has vanishing probability")
    collapsed = np.zeros_like(psi)
    collapsed[_ix(n, {index: outcome})] = halves[outcome] / math.sqrt(weights[outcome])
    return outcome, collapsed.reshape(-1), prob


def _gram(psi: np.ndarray, real: bool) -> np.ndarray:
    """``psi @ psi^H`` of a complex ``(..., 2**k, m)`` operand, which is its own conjugate if ``real``.

    The operand is complex even for a real register: real BLAS would round its sums differently from the complex
    product.  A real one skips the conj() copy; its product keeps the same bits.  ``reduced_density_matrix`` and
    ``run_reduced`` both form their product here, so they agree bit for bit.
    """
    return psi @ (psi if real else psi.conj()).swapaxes(-1, -2)


def reduced_density_matrix(state: np.ndarray, keep: list[int]) -> np.ndarray:
    """Density matrix of the kept qubits of a pure state, or of each state of a stack, in the order listed."""
    n = num_qubits_of(state)
    keep, rest = split_keep(n, keep)
    state = np.asarray(state)
    psi = state.reshape(-1, *[2] * n).transpose(0, *[1 + q for q in keep + rest])
    psi = psi.astype(complex, order="C").reshape(*state.shape[:-1], 2 ** len(keep), -1)
    return _gram(psi, not np.iscomplexobj(state))


def run_reduced(circuit: Circuit, keep: list[int], prep: Mapping[str, np.ndarray]) -> np.ndarray:
    """``reduced_density_matrix(run_circuit(circuit, state), keep)`` without the full register, bit for bit.

    ``state`` is the product of a built circuit's checked ``prep``, its labels among the circuit's, with every other
    qubit |0>; a stacked prep gives a stack.  The product's nonzero entries start the cached plan, and the reached
    amplitudes are written straight into the complex operand that ``reduced_density_matrix`` forms.
    """
    n = circuit.num_qubits
    prepped, product = _prep_product(circuit.labels, prep)
    if len(prepped) != len(prep):
        raise BadLabel(f"prepared qubits {sorted(set(prep) - set(circuit.labels))} not in register")
    keep = as_indices("keep", keep)  # ahead of the cache, where (0, 1.0) == (0, 1); _plan checks the rest
    nonzero = (product != 0).reshape(-1, product.shape[-1]).any(axis=0)
    steps, columns, landing = _plan(circuit.gates, n, prepped, nonzero.tobytes(), keep)
    amps = _run_plan(product[..., nonzero], steps, columns)
    psi = np.zeros((*product.shape[:-1], 2**n), dtype=complex)
    psi[..., landing] = amps
    return _gram(psi.reshape(*product.shape[:-1], 2 ** len(keep), -1), not np.iscomplexobj(amps))
