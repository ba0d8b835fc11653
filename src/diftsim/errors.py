"""Exception types shared across the toolkit."""

from __future__ import annotations


class DiftError(Exception):
    """Base class for all toolkit errors."""


class InvalidType(DiftError):
    """Width or value outside the representable range of a declared type."""


class TypeMismatch(DiftError):
    """Operator applied to an operand or result type it does not accept."""


class WidthMismatch(DiftError):
    """Tags or masks of different widths were combined."""


class ArityMismatch(DiftError):
    """Operand count does not match the operator."""


class BadAddress(DiftError):
    """Register access outside the monitor register file."""


class WidthTooLarge(DiftError):
    """Exhaustive enumeration requested above the supported width cap."""


class EvalError(DiftError):
    """Runtime failure while executing a kernel; names the failing node."""

    def __init__(self, message: str, node_id: str | None = None, step: int | None = None):
        super().__init__(message)
        self.node_id = node_id
        self.step = step


class DivisionByZero(EvalError):
    """div or mod with a zero divisor."""


class OutOfBoundsAddress(EvalError):
    """Memory access at an address outside the declared cell range."""
