"""Exception types shared across the package, and the checks of a scalar
parameter: :func:`is_real` (Python and numpy reals, bools excluded),
:func:`as_float` and :func:`positive_real`, and :func:`shown` for messages."""

from __future__ import annotations

import math
import numbers


class LipextError(Exception):
    """Base class for all package errors."""


class InstanceValidationError(LipextError):
    """A candidate instance violates a structural invariant.

    Carries the offending field name and, when applicable, the witness
    (index pair/triple or measured value) so callers can report it.
    """

    def __init__(self, reason: str, field: str, witness: dict | None = None):
        self.reason = reason
        self.field = field
        self.witness = dict(witness or {})
        msg = f"{field}: {reason}"
        if self.witness:
            msg += f" ({self.witness})"
        super().__init__(msg)

    def to_json(self) -> dict:
        return {"error": self.reason, "field": self.field, "witness": self.witness}


class ParameterError(LipextError):
    """Invalid parameter for an otherwise valid call."""


class ScheduleTooShallow(LipextError):
    """The stored scale range cannot serve a request.

    ``required_span_high`` says how high the schedule must be rebuilt.
    ``required_span_low`` is ``0.0`` when the request cannot be met in
    binary64 at all (underflow), and ``None`` when a stored range ran out.
    """

    def __init__(
        self,
        message: str,
        required_span_low: float | None = None,
        required_span_high: float | None = None,
    ):
        self.required_span_low = required_span_low
        self.required_span_high = required_span_high
        super().__init__(message)


def is_real(value) -> bool:
    """Whether ``value`` is a real number: any :class:`numbers.Real`, numpy scalars
    included, but not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_float(value) -> float:
    """``float(value)``, but ``inf`` of its sign for an integer beyond float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def positive_real(name: str, value) -> float:
    """``float(value)``; raises unless ``value`` is a positive finite real, so for bools
    and non-numbers.  Callers keep the result: a numpy float32 would compare in float32."""
    if not (is_real(value) and value > 0 and math.isfinite(as_float(value))):
        raise ParameterError(f"{name} must be a positive finite real")
    return float(value)


def shown(value, convert=repr) -> str:
    """``convert(value)``, or its type for an int longer than Python prints."""
    try:
        return convert(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
