"""Pure-state simulator for the protocol's gate set.

Convention: qubit 0 is the most significant bit of the amplitude index, so
``state.reshape([2] * n)`` exposes qubit ``k`` on axis ``k`` and the first
label of a :class:`Circuit` is the leftmost tensor factor.

A register may carry leading stack axes, ``(..., 2**n)``: a ``prep`` holding
``(k, 2)`` stacks runs k registers at once; one state is a stack with no axes.
Registers are float64 unless a preparation, or the state run, is complex.

A kernel addresses only the qubits it names: ``_split`` views a register
with a length-2 axis per named qubit and one merged axis per run of the
others, in register order, so k named qubits take at most 2k + 1 axes.
``measure_qubit`` only draws: the sampler keeps the outcome's half itself.

A plan cached per gate list, prepared qubits, input pattern and kept
qubits runs a compact register of the amplitudes its input can reach, and
lands each in its cell with the kept qubits in front (``_split``'s order):
``run_reduced`` and the trajectory sampler start it from the nonzero entries
of a product of preparations, and the sampler keeps its record qubits in
front; ``run_circuit`` keeps every qubit in order, so each lands in its own
cell.  None builds the full register unitary; the closed gate set {H, X,
Z, CZ, CNOT, CCNOT} consists entirely of involutions.  In the plan, an H on
m live column pairs is two gathers of ``2m + 1`` columns, ``(a0, a0, 0)``
and ``(a1, -a1, 0)`` with the second half negated exactly, then one add and
one multiply: ``(a0 + a1, a0 - a1)`` times 1/sqrt(2), bit for bit.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import BadIndex, BadLabel, BadMatrix, OutOfRange, ZeroNorm, _reject_first, as_indices, as_reals, is_integer
from .linalg import _split, as_numbers

GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "CZ": 2, "CNOT": 2, "CCNOT": 3}

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    """A single gate application; controls precede the target in ``qubits``, which its :class:`Circuit` checks."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = as_indices("qubits", self.qubits)
        object.__setattr__(self, "qubits", qubits)
        if len(qubits) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {GATE_ARITY[self.kind]} qubits, got {qubits}")


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
        for gate in self.gates:  # the kernels' own rule, cached: distinct indices of the register
            _split(self.num_qubits, gate.qubits)
        prep = {}
        for label, state in self.prep.items():
            if label not in self.labels:
                raise BadLabel(f"prepared qubit {label!r} not in register")
            state = prep[label] = np.array(as_numbers(f"preparation for {label!r}", state, 2, axes=1), dtype=complex)
            state.flags.writeable = False
            if 0 in state.shape:
                raise OutOfRange(f"preparation stack for {label!r} is empty, shape {state.shape}")
            norm = np.linalg.norm(state, axis=-1)
            _reject_first(~(abs(norm - 1) <= 1e-10), norm, ValueError, f"preparation {label!r} has norm {{}}", "state")
        object.__setattr__(self, "prep", MappingProxyType(prep))
        stacks = {label: state.shape[:-1] for label, state in prep.items()}
        try:
            np.broadcast_shapes(*stacks.values())
        except ValueError:
            raise OutOfRange(f"preparation stacks do not broadcast, label -> stack shape: {stacks}") from None

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
    """Pure qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>; each angle one real number (:func:`as_reals`)."""
    if as_reals("theta", theta).ndim or as_reals("phi", phi).ndim:
        raise OutOfRange(f"bloch_state takes one real number per angle, got theta={theta!r}, phi={phi!r}")
    theta, phi = float(theta), float(phi)  # a float32 phi would make a complex64 phase
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise OutOfRange(f"bloch_state's angles must be finite, got theta={theta!r}, phi={phi!r}")
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)


@functools.lru_cache(maxsize=1024)
def _gate_ix(gate: Gate, n: int) -> tuple:
    """The gate's ``_split`` shape for n qubits, and ``(..., *ix)`` of its target's 0 and 1 where every control is 1."""
    shape, axes = _split(n, gate.qubits)
    *controls, target = axes[: len(gate.qubits)]
    ix = [slice(None)] * len(shape)
    for axis in controls:
        ix[axis] = 1
    return shape, *((Ellipsis, *ix[:target], value, *ix[target + 1 :]) for value in (0, 1))


def _apply_in_place(psi: np.ndarray, gate: Gate, n: int) -> None:
    """Apply an X, Z, CZ, CNOT or CCNOT to a contiguous ``(..., 2**n)`` stack of n-qubit registers, overwriting it.

    :func:`_plan` relabels its columns with it, and the trajectory sampler corrects its registers with it.
    """
    shape, lo, hi = _gate_ix(gate, n)
    psi = psi.reshape(*psi.shape[:-1], *shape)
    if gate.kind in ("Z", "CZ"):  # the phase sits where every qubit of the gate is 1
        psi[hi] *= -1.0
    else:  # X, CNOT, CCNOT: swap
        a0 = psi[lo].copy()
        psi[lo] = psi[hi]
        psi[hi] = a0


@functools.lru_cache(maxsize=256)
def _plan(gates: tuple[Gate, ...], n: int, prepped: tuple[int, ...], pattern: bytes, keep: tuple[int, ...]) -> tuple:
    """Steps that run the gates on a compact register of the amplitudes an input can reach, and where those land.

    The input is a product over the qubits ``prepped``, every other qubit at 0, nonzero where the bool ``pattern``
    is.  ``reg`` maps each amplitude to its column, or to -1 (the trailing zero column) while no gate can have made
    it nonzero.  X, CNOT and CCNOT relabel columns; a ``(2, 2m + 1)`` step is an H on m column pairs, gathering
    ``(lo, lo, -1)`` and ``(hi, hi, -1)``, and a 1-D one a negation.  Returns the steps, the reached amplitudes'
    final columns, and their flat positions in the register with the qubits ``keep`` in front (``_split``'s axes).
    """
    cells = np.arange(2**n)
    initial = _product_cells(n, prepped)[np.frombuffer(pattern, dtype=bool)]
    reg = np.full(2**n, -1)
    reg[initial] = np.arange(initial.size)
    steps = []
    for gate in gates:
        shape, *halves = _gate_ix(gate, n)
        lo, hi = (cells.reshape(shape)[ix].ravel() for ix in halves)
        if gate.kind == "H":
            live = (reg[lo] >= 0) | (reg[hi] >= 0)
            lo, hi = lo[live], hi[live]
            steps.append(np.stack([np.concatenate((reg[half], reg[half], [-1])) for half in (lo, hi)]))
            reg[lo], reg[hi] = np.arange(lo.size), np.arange(lo.size, 2 * lo.size)
        elif gate.kind in ("Z", "CZ"):
            steps.append(reg[hi][reg[hi] >= 0])
        else:
            _apply_in_place(reg, gate, n)
    shape, axes = _split(n, keep)
    operand = reg.reshape(shape).transpose(axes).ravel()  # the column of each operand cell
    landing = np.flatnonzero(operand >= 0)
    return tuple(steps), operand[landing], landing


def _run(gates: tuple[Gate, ...], n: int, prepped: tuple[int, ...], inputs: np.ndarray, keep: tuple[int, ...], dtype):
    """Run ``gates`` on the product ``inputs``, ``(..., 2**k)`` over the qubits ``prepped`` with every other one at 0.

    Returns the reached amplitudes, norm-checked, in a zero ``(..., 2**n)`` array of ``dtype``, each in its cell of
    the register with the qubits ``keep`` in front (``_split``'s order); the cached plan keeps only the reached cells.
    """
    nonzero = (inputs != 0).reshape(-1, inputs.shape[-1]).any(axis=0)
    steps, columns, landing = _plan(gates, n, prepped, nonzero.tobytes(), keep)
    zero = np.zeros((*inputs.shape[:-1], 1), dtype=inputs.dtype)
    amps = np.concatenate((inputs[..., nonzero], zero), axis=-1)  # a copy: the steps run in place
    for step in steps:
        if step.ndim == 1:
            amps[..., step] *= -1.0
        else:  # (a0 + a1) and (a0 - a1) times 1/sqrt(2), with the zero column for an absent partner
            m = step.shape[1] // 2
            a1 = amps.take(step[1], axis=-1)
            np.negative(a1[..., m:-1], out=a1[..., m:-1])  # exact, so a0 + (-a1) is a0 - a1 bit for bit
            amps = amps.take(step[0], axis=-1)
            amps += a1
            amps *= _INV_SQRT2
    amps = amps[..., columns]
    norm = np.linalg.norm(amps, axis=-1)
    _reject_first(~(np.abs(norm - 1.0) < 1e-10), norm, ValueError, "statevector norm {} differs from 1", "state")
    out = np.zeros((*inputs.shape[:-1], 2**n), dtype=dtype)
    out[..., landing] = amps
    return out


def run_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply all gates of the circuit in order to a full-register state, or to each state of a stack."""
    n = circuit.num_qubits
    state = as_numbers(f"a state of {n} qubits", state, 2**n, axes=1)
    state = state.astype(complex if np.iscomplexobj(state) else float, copy=False)
    every = tuple(range(n))  # the whole register is the input and is kept in order; Circuit has checked the gates
    return _run(circuit.gates, n, every, state, every, state.dtype)


def measure_qubit(state: np.ndarray, index: int, rng: np.random.Generator) -> tuple[int, float]:
    """Draw the outcome of a computational-basis measurement of qubit ``index`` of one register, from ``rng.random()``.

    Returns ``(outcome, probability)``, outcome ``k`` at ``w_k / (w_0 + w_1)`` for any nonzero norm: ``w_k`` is the
    ``vdot`` of the half with the qubit at ``k``, flattened as ``np.vdot`` does (a view at index 0 or the last qubit).
    """
    size = as_numbers("measure_qubit's state", state, axes=1).shape[-1]
    n = size.bit_length() - 1
    if size < 2 or 2**n != size:
        raise ValueError(f"measure_qubit's state length {size} is not a power of two >= 2")
    if np.ndim(state) != 1:
        raise BadMatrix(f"measure_qubit takes one register, got a stack of shape {np.shape(state)[:-1]}")
    if not is_integer(index) or not 0 <= index < n:
        raise BadIndex(f"qubit {index!r} is not an index of the {n}-qubit state")
    if not isinstance(rng, np.random.Generator):
        raise OutOfRange(f"rng must be a np.random.Generator, got {rng!r}")
    halves = np.asarray(state, dtype=complex).reshape(2**index, 2, -1)
    row0, row1 = halves[:, 0].reshape(-1), halves[:, 1].reshape(-1)
    weights = [np.vdot(row0, row0).real, np.vdot(row1, row1).real]
    total = weights[0] + weights[1]
    if total < 1e-15:
        raise ZeroNorm("cannot measure a zero-norm state")
    outcome = int(rng.random() < weights[1] / total)
    prob = weights[outcome] / total
    if prob < 1e-15:
        raise ZeroNorm(f"outcome {outcome} on qubit {index} has vanishing probability")
    return outcome, prob


def run_reduced(circuit: Circuit, keep: list[int], prep: Mapping[str, np.ndarray]) -> np.ndarray:
    """Density matrix of the qubits ``keep``, in the order listed, after ``circuit`` runs on the product of ``prep``.

    ``prep`` is a built circuit's checked preparations, its labels among the circuit's, every other qubit |0>; a
    stacked prep gives a stack.  The plan writes straight into a ``(..., 2**len(keep), -1)`` operand, so the result
    has the bits of the full run's reduction without the full register.  The operand is complex even for a real
    product, since real BLAS would round its sums otherwise; a real one skips the conj() copy, with the same bits.
    """
    n = circuit.num_qubits
    prepped, product = _prep_product(circuit.labels, prep)
    if len(prepped) != len(prep):
        raise BadLabel(f"prepared qubits {sorted(set(prep) - set(circuit.labels))} not in register")
    keep = as_indices("keep", keep)  # ahead of the cache, where (0, 1.0) == (0, 1); _plan checks the rest
    psi = _run(circuit.gates, n, prepped, product, keep, complex)
    psi = psi.reshape(*product.shape[:-1], 2 ** len(keep), 2 ** (n - len(keep)))
    return psi @ (psi.conj() if np.iscomplexobj(product) else psi).swapaxes(-1, -2)
