"""Exception classes shared by the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat:
ValidationError covers bad inputs and broken invariants, ProfileParseError
adds a line number for malformed CSV, InfeasibleError marks sizing or
optimization problems with an empty feasible set.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Raised when an input value or invariant check fails."""


class ProfileParseError(ValidationError):
    """Malformed profile CSV. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleError(Exception):
    """No feasible point exists; names the binding constraint."""

    def __init__(self, message: str, binding_constraint: str = ""):
        super().__init__(message)
        self.binding_constraint = binding_constraint
