"""Exception hierarchy shared across the toolkit, the count check every
scenario applies, and the real-number check the CLI applies to config
values."""

import math
import numbers


class MmfpError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(MmfpError, ValueError):
    """An argument violates an operation's preconditions."""


class DomainError(MmfpError):
    """A point lies outside the open domain of an objective term.

    Carries the offending term index when known.
    """

    def __init__(self, message: str, term_index: int | None = None):
        super().__init__(message)
        self.term_index = term_index


class IllConditionedError(MmfpError):
    """A matrix is too close to singular for a reliable inverse/solve."""


class NotPsdError(MmfpError):
    """A matrix expected to be positive semidefinite has a significantly
    negative eigenvalue."""


class InvalidStartError(MmfpError):
    """A solver was started from an infeasible or out-of-domain point."""


class MonotonicityError(MmfpError):
    """The objective decreased beyond tolerance across an MM iteration.

    Signals an implementation bug (the surrogate construction guarantees
    ascent), never a data condition.
    """


class ConfigError(MmfpError):
    """An experiment configuration is malformed or inconsistent."""


def count(name: str, value) -> int:
    """``value`` as an int: an int or numpy integer, never a bool or a
    float to truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(name: str, value):
    """``value`` as a float, or a nested list of them as a list of the same
    shape: ints, floats and numpy reals, never a bool or a string. The error
    on a string that reads as a float says how to write it, since YAML 1.1
    reads ``1e3`` and ``1.0e300`` as strings."""
    if isinstance(value, list):
        return [real(f"{name}[{i}]", v) for i, v in enumerate(value)]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}{_float_hint(value)}")
    return float(value)


def _float_hint(value) -> str:
    """How to write a string that reads as a finite float so that YAML 1.1
    reads it as a float too; empty for any other value."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        return ""
    if not (isinstance(value, str) and math.isfinite(x)):
        return ""
    text = repr(x) if "." in repr(x) else repr(x).replace("e", ".0e")
    return f" (write {text} for a number: YAML 1.1 reads a float only with a dot, and an exponent only with a sign)"
