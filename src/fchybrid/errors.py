"""Exception classes shared by the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat:
ValidationError covers bad inputs and broken invariants, ProfileParseError
adds a line number for malformed CSV, InfeasibleError marks sizing or
optimization problems with an empty feasible set. Specs declare field
ranges with bounded; check_fields is the one check their validators share.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, field, fields


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


# the test that rejects a value outside each range bounded accepts
_OUTSIDE = {
    ">= 0": lambda v: v < 0,
    "> 0": lambda v: v <= 0,
    "in (0, 1]": lambda v: not 0.0 < v <= 1.0,
}


def bounded(allowed: str, default=MISSING):
    """A dataclass field whose value must be ``allowed``: ">= 0", "> 0" or
    "in (0, 1]". check_fields enforces it."""
    return field(default=default, metadata={"range": allowed})


def check_fields(spec) -> None:
    """Reject a dataclass whose init fields hold a NaN or infinite float, or
    else a value outside the range its field declares with bounded: the
    first such field is named. A range test such as ``x < 0`` passes NaN."""
    outside = None
    for f in fields(spec):
        if f.init:
            value = getattr(spec, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
            allowed = f.metadata.get("range")
            if outside is None and allowed is not None and _OUTSIDE[allowed](value):
                outside = f"{f.name} must be {allowed}"
    if outside is not None:
        raise ValidationError(outside)
