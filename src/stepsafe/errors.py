"""Exception types shared across the package, and the one rule for integer inputs."""

import operator


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class DegeneratePairError(InvalidInputError):
    """A point pair is too close together for the midpoint quotient."""


class UnsupportedOperationError(InvalidInputError):
    """The requested operation is not available for this input."""


class NumericalFailureError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable numbers."""


def _as_integer(value, name: str) -> int:
    """value as an int when it is one (a Python or numpy integer, by operator.index), else
    InvalidInputError naming it: a count or seed such as 1e3 fails where it enters, not in numpy."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
