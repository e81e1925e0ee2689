"""Exception types shared across the package, and its two input rules: integer counts and owned arrays."""

import operator
from typing import NamedTuple

import numpy as np


class InvalidInputError(ValueError):
    """An argument violates an operation's preconditions."""


class DegeneratePairError(InvalidInputError):
    """A point pair is too close together for the midpoint quotient."""


class UnsupportedOperationError(InvalidInputError):
    """The requested operation is not available for this input."""


class NumericalFailureError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable numbers."""


def _as_count(value, name: str, least: int = 1) -> int:
    """value as an int (a Python or numpy integer, by operator.index, but not a bool) of at least ``least``,
    else InvalidInputError naming it: a count, width or seed such as 1e3, True or 0 fails where it enters."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InvalidInputError(f"{name} must be at least {least}")
    return value


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Drawn(NamedTuple):
    """A float array the package has just drawn and holds no other reference to, so no caller can write to it:
    _owned freezes it in place instead of copying it."""

    array: np.ndarray


def _owned(value, ndmin: int = 0, order: str = "K") -> np.ndarray:
    """A read-only float copy of value, at least ``ndmin``-dimensional, in memory ``order``: what a value object
    holds, so no caller's write, through the array it handed in or a view of it, can change it or its derivations."""
    return _frozen(value.array if isinstance(value, _Drawn) else np.array(value, float, ndmin=ndmin, order=order))
