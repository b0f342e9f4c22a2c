"""Exception types shared across the package."""


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


def check_unit_interval(name: str, value: float) -> None:
    """Raise :class:`OutOfRange` unless 0 <= value <= 1; NaN is rejected too."""
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"{name}={value} outside [0, 1]")


class DomainError(ValueError):
    """Argument outside the domain of an entropy function."""


class BadChannelState(RuntimeError):
    """Extracted channel state fails a validity check: Hermitian, unit trace, PSD, maximally mixed reference."""
