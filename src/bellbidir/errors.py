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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool: the rule for every qubit index and count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_indices(name: str, indices) -> tuple[int, ...]:
    """``indices`` as a tuple of ints; :class:`BadIndex` unless it is a sequence of integers (:func:`is_integer`)."""
    try:
        if all(map(is_integer, indices)):
            return tuple(int(v) for v in indices)
    except TypeError:  # not iterable, such as a bare int
        pass
    raise BadIndex(f"{name} must be a sequence of integer qubit indices, got {name}={indices!r}")


def check_unit_interval(name: str, value: float) -> None:
    """Raise :class:`OutOfRange` unless 0 <= value <= 1; NaN and a value that is not a real number are rejected too."""
    try:
        inside = 0.0 <= value <= 1.0
    except TypeError:  # a str, None or complex does not compare with a float
        raise OutOfRange(f"{name}={value!r} is not a real number") from None
    if not inside:
        raise OutOfRange(f"{name}={value} outside [0, 1]")


class DomainError(ValueError):
    """Argument outside the domain of an entropy function."""


class BadChannelState(RuntimeError):
    """Extracted channel state fails a validity check: Hermitian, unit trace, PSD, maximally mixed reference."""
