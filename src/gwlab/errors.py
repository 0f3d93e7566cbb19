"""Exception types shared across the package, and the JSON field reader
that turns a malformed input document into one of them."""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

__all__ = [
    "GwError",
    "InvalidParameter",
    "NonIntegerSupport",
    "SupercriticalRequired",
    "BudgetExceeded",
    "SolverDidNotConverge",
    "DegenerateConditioning",
    "CouplingInfeasible",
    "MismatchedLaws",
    "json_field",
    "json_int",
]


class GwError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidParameter(GwError, ValueError):
    """A family parameter or configuration value is outside its domain."""


class NonIntegerSupport(GwError, ValueError):
    """An operation that needs integer atoms was given fractional ones."""


class SupercriticalRequired(GwError):
    """The operation is only defined for laws with mean offspring above one."""


class BudgetExceeded(GwError):
    """A step would pass one of the engine's cost caps, or its truncation would
    remove all mass; ``step`` is its generation (1 for a ``PowerCache`` power)."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class SolverDidNotConverge(GwError):
    """A root finder or LP solver failed to reach its target."""


class DegenerateConditioning(GwError):
    """Conditioning event has too little mass to renormalize reliably."""


class CouplingInfeasible(GwError):
    """No coupling achieves the requested band mass at the given radius."""

    def __init__(self, message: str, achievable: float):
        super().__init__(message)
        self.achievable = achievable


class MismatchedLaws(GwError):
    """Two joint laws disagree on horizon or start size and cannot be compared."""


def json_field(data: object, key: str, convert: Callable[[Any], Any], *default: Any) -> Any:
    """``convert(data[key])``, or ``default`` when given and the key is absent.

    A ``data`` that is not a JSON object, or a value that ``convert`` rejects
    with ``TypeError`` or ``ValueError``, raises ``InvalidParameter`` naming
    ``key``, and so does a missing key without a default.  An
    ``InvalidParameter`` from ``convert`` passes through.
    """
    if not isinstance(data, Mapping):
        kind = type(data).__name__
        raise InvalidParameter(f"expected a JSON object with field {key!r}, got {kind}")
    if key not in data:
        if default:
            return default[0]
        raise InvalidParameter(f"missing field {key!r}")
    try:
        return convert(data[key])
    except InvalidParameter:
        raise
    except (TypeError, ValueError):
        raise InvalidParameter(f"field {key!r} has an unusable value {data[key]!r:.80}") from None


def json_int(value: object) -> int:
    """``value`` as an ``int``: an integer, or a finite float with an integral value.

    ``bool``, NaN, infinities, fractional floats and non-numbers raise
    ``TypeError`` or ``ValueError``, which ``json_field`` reports as
    ``InvalidParameter`` naming the field.
    """
    if isinstance(value, bool):
        raise TypeError("a boolean is not an integer")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError("not an integral value")
        return int(value)
    return operator.index(value)
