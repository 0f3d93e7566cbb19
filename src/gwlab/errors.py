"""Exception types shared across the package."""

from __future__ import annotations

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
    """A law's tracked defect crossed the configured truncation budget."""

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

