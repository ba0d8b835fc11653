"""The tagged datatype: a bit-accurate value paired with its taint tag.

Every operation produces result value and result tag in lockstep; the
value half is bit-identical to the plain untainted computation.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from . import taint
from .bitvalue import BitType, BitValue, OpKind, eval_binop
from .errors import InvalidType
from .taint import FineGrained, PropagationRule, Tag

_ON_EXCEPTION = ("record", "halt")


class DiftValue(NamedTuple):
    value: BitValue
    tag: Tag


class DiftConfig(namedtuple("DiftConfig", "tag_width mode on_exception")):
    """Tracking parameters for one instrumented kernel: tag size, the
    propagation mode (FineGrained or CoarseBoundary), and what a denying
    checkpoint does to the run ("record" or "halt")."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, tag_width: int, mode, on_exception: str = "record"):
        if not 1 <= tag_width <= taint.MAX_TAG_WIDTH:
            raise InvalidType(f"tag_width must be in 1..{taint.MAX_TAG_WIDTH}")
        if on_exception not in _ON_EXCEPTION:
            raise InvalidType(f"on_exception must be one of {_ON_EXCEPTION}")
        return tuple.__new__(cls, (tag_width, mode, on_exception))

    @property
    def rule(self) -> PropagationRule | None:
        return self.mode.rule if isinstance(self.mode, FineGrained) else None


def apply_binop(
    kind: OpKind,
    a: DiftValue,
    b: DiftValue,
    result_ty: BitType,
    rule: PropagationRule,
) -> DiftValue:
    value = eval_binop(kind, a.value, b.value, result_ty)
    tag = taint.propagate(rule, kind, [(a.value, a.tag), (b.value, b.tag)], result_ty)
    return DiftValue(value, tag)
