"""Exception types shared across the package, and the checks of a scalar
parameter: :func:`is_real` (Python and numpy reals, bools excluded) and
:func:`positive_real`."""

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


class TrivialInstance(LipextError):
    """Signals L = 0: the constant shortcut applies and no scale schedule is built."""


class ScheduleTooShallow(LipextError):
    """The stored scale range cannot serve a request.

    ``required_span_low``/``required_span_high`` say how far the schedule
    must be rebuilt; ``0.0`` for ``required_span_low`` means the request
    cannot be met in binary64 at all (underflow).
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


def positive_real(name: str, value) -> None:
    """Raise unless ``value`` is a positive finite real; bools and non-numbers included."""
    if not (is_real(value) and value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be a positive finite real")
