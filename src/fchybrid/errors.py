"""Exception classes shared by the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat:
ValidationError covers bad inputs and broken invariants, ProfileParseError
adds a line number for malformed CSV, InfeasibleError marks sizing or
optimization problems with an empty feasible set. require_finite is the
one check every spec's validator shares.
"""

from __future__ import annotations

import math
from dataclasses import fields


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


def require_finite(spec) -> None:
    """Reject a dataclass whose init fields hold a NaN or infinite float.

    Range checks such as ``x < 0`` are false for NaN, so each spec's
    ``__post_init__`` calls this before them.
    """
    for f in fields(spec):
        if f.init:
            value = getattr(spec, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
