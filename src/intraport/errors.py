"""Exception types shared across the package."""

import numbers


class IntraportError(Exception):
    """Base class for all package errors."""


class InvalidInput(IntraportError):
    pass


class NotNormalized(IntraportError):
    pass


class ChannelOutOfRange(IntraportError):
    pass


class InvalidGate(IntraportError):
    pass


class ShapeMismatch(IntraportError):
    pass


class ImpossibleBranch(IntraportError):
    """Raised when a projective branch has (numerically) zero probability."""

    def __init__(self, message: str, probability: float = 0.0):
        super().__init__(message)
        self.probability = probability


class UnsupportedSize(IntraportError):
    pass


class InvalidLayout(InvalidInput):
    """A malformed layout (see protocol.Layout) or channel rearrangement."""


class UnknownScenario(IntraportError):
    pass


def require_integer(name: str, value) -> None:
    """Refuse anything but an integer with InvalidInput, a bool included
    (Python counts True and False as the integers 1 and 0)."""
    if type(value) is int:  # skips the abstract-class check, many times slower
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
