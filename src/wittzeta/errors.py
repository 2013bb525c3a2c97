"""Exception types shared across the library.

The command line tool maps these onto process exit codes; the library
itself only raises them.
"""

from __future__ import annotations


class WittZetaError(Exception):
    """Base class for all library errors."""


class IntegralityError(WittZetaError):
    """An exact division by a positive integer left a remainder.

    Raised by ring ``divide_exact`` implementations and surfaced by ghost
    inversion and series n-th roots.  ``degree`` records the coefficient or
    ghost index at which the failure occurred, when known.
    """

    def __init__(self, message: str, degree: int | None = None):
        super().__init__(message)
        self.degree = degree


class InconsistentCountsError(IntegralityError):
    """Point counts that no variety over the given field can produce."""


class PrecisionError(WittZetaError):
    """Not enough precision or count range; ``required`` states what would do."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ReconstructionError(PrecisionError):
    """No rational function within the degree bound matches the series."""


class BudgetError(WittZetaError):
    """A point count would search a space larger than the configured budget."""

    def __init__(self, message: str, required: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class SpecError(WittZetaError, ValueError):
    """Malformed variety specification or input document."""
