"""Exception types shared across the package."""
import numpy as np


class NonHermitianInput(ValueError):
    """A matrix expected to be Hermitian differs from its adjoint beyond tolerance."""


class NotPSD(ValueError):
    """A matrix expected to be positive semidefinite has a clearly negative eigenvalue."""


class BadIndex(ValueError):
    """Qubit index out of range or repeated."""


class BadLabel(ValueError):
    """Qubit label not present in the circuit register."""


class ZeroNorm(ValueError):
    """State has numerically zero norm where a normalized state is required."""


class OutOfRange(ValueError):
    """Scalar parameter outside its documented range."""


class BadMatrix(ValueError):
    """A matrix or state input holds a non-number or has the wrong size, or a density matrix has a trace off 1."""


def _reject_first(bad: np.ndarray, values: np.ndarray, error: type, message: str, item: str = "matrix") -> None:
    """Raise ``error`` with ``message`` formatted on the first flagged value; in a stack, name its flat index."""
    if np.count_nonzero(bad):
        i = int(np.flatnonzero(bad)[0])
        raise error(message.format(np.ravel(values)[i]) + (f" ({item} {i} of the stack)" if np.ndim(bad) else ""))


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool: the rule for every qubit index and count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_indices(name: str, indices) -> tuple[int, ...]:
    """``indices`` as a tuple of ints; :class:`BadIndex` unless it is a sequence of integers (:func:`is_integer`)."""
    try:
        values = tuple(indices)  # read once, so a one-shot iterator is not spent by the check
        if all(map(is_integer, values)):
            return tuple(int(v) for v in values)
    except TypeError:  # not iterable, such as a bare int
        pass
    raise BadIndex(f"{name} must be a sequence of integer qubit indices, got {name}={indices!r}")


def as_reals(name: str, value) -> np.ndarray:
    """``value`` as a float array; :class:`OutOfRange` unless it is a bool, int or float, or an array of them."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":  # a str, None, complex, Fraction or other object is not a real number
        if not array.ndim:
            raise OutOfRange(f"{name}={value!r} is not a real number")
        entries = array.ravel().tolist()  # every entry of a str or complex array, an object array's non-reals
        bad = [array.dtype != object or not isinstance(v, (int, float, np.integer, np.floating)) for v in entries]
        _reject_first(np.array(bad), list(map(repr, entries)), OutOfRange, f"{name}={{}} is not a real number", "entry")
    return array.astype(float, copy=False)


def check_unit_interval(name: str, value: float) -> None:
    """Raise :class:`OutOfRange` unless ``value`` is one real number (:func:`as_reals`) in [0, 1]; NaN fails too."""
    if as_reals(name, value).ndim:
        raise OutOfRange(f"{name}={value!r} is not a single real number")
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{name}={value} outside [0, 1]")


def as_unit_interval(name: str, value) -> np.ndarray:
    """``value`` as a float array (:func:`as_reals`) in [0, 1]; :class:`OutOfRange` names the first entry outside."""
    array = as_reals(name, value)
    _reject_first(~((array >= 0.0) & (array <= 1.0)), array, OutOfRange, f"{name}={{}} outside [0, 1]", "entry")
    return array


def broadcast(name: str, *arrays: np.ndarray) -> list[np.ndarray]:
    """``arrays`` broadcast together (:func:`numpy.broadcast_arrays`); :class:`OutOfRange` names their shapes if not."""
    try:
        return np.broadcast_arrays(*arrays)
    except ValueError:
        raise OutOfRange(f"{name} of shapes {[array.shape for array in arrays]} do not broadcast") from None


class DomainError(ValueError):
    """Argument outside the domain of an entropy function."""


class BadChannelState(RuntimeError):
    """Extracted channel state fails a validity check: Hermitian, unit trace, PSD, maximally mixed reference."""
