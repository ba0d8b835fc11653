"""The tagged datatype: the checked, user-facing layer over plain ints.

A DiftValue pairs a BitValue with its Tag, and every operation produces
result value and result tag in lockstep; the value half is bit-identical
to the plain untainted computation. Each function here checks its
arguments and then applies bitvalue.apply_op and taint.tag_bits, the
definitions that the simulator's walk runs on raw bits. Nothing in the
package below this module uses it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from .bitvalue import (
    BINARY_OPS,
    COMPARE_OPS,
    OP_ARITY,
    VALUE_OPS,
    BitType,
    BitValue,
    OpKind,
    apply_op,
)
from .errors import ArityMismatch, InvalidType, TypeMismatch, WidthMismatch
from .taint import MAX_TAG_WIDTH, PropagationRule, tag_bits


class Tag(namedtuple("Tag", "width bits")):
    """Bitset of taint labels; bits == 0 means untainted."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, width: int, bits: int):
        if not isinstance(width, int) or not 1 <= width <= MAX_TAG_WIDTH:
            raise InvalidType(f"tag width must be in 1..{MAX_TAG_WIDTH}, got {width!r}")
        if not isinstance(bits, int) or not 0 <= bits < (1 << width):
            raise InvalidType(f"tag bits {bits!r} out of range for width {width}")
        return tuple.__new__(cls, (width, bits))

    def __str__(self) -> str:
        return f"0b{self.bits:0{self.width}b}"


class DiftValue(NamedTuple):
    value: BitValue
    tag: Tag


def eval_binop(kind: OpKind, a: BitValue, b: BitValue, result_ty: BitType) -> BitValue:
    """Apply a binary operator and wrap the exact result into result_ty,
    as apply_op defines. Comparisons demand an unsigned 1-bit result type."""
    if kind not in BINARY_OPS:
        raise TypeMismatch(f"{kind.value} is not a binary value operator")
    if kind in COMPARE_OPS and (result_ty.width != 1 or result_ty.signed):
        raise TypeMismatch(f"comparison result must be u1, got {result_ty}")
    return BitValue(result_ty, apply_op(kind, (a.bits, b.bits), (a.ty, b.ty), result_ty))


def propagate(
    rule: PropagationRule,
    kind: OpKind,
    operands: Sequence[tuple[BitValue, Tag]],
    result_ty: BitType | None = None,
) -> Tag:
    """Tag of a value operation's result, from operand values and tags of
    one width, as tag_bits defines; result_ty defaults to the first
    operand's type."""
    if kind not in VALUE_OPS:
        raise TypeMismatch(f"{kind.value} does not produce a propagated tag")
    if len(operands) != OP_ARITY[kind]:
        raise ArityMismatch(
            f"{kind.value} takes {OP_ARITY[kind]} operands, got {len(operands)}"
        )
    width = operands[0][1].width
    for _, t in operands:
        if t.width != width:
            raise WidthMismatch(f"tag widths differ: {t.width} vs {width}")
    bits = tag_bits(
        rule,
        kind,
        [v.bits for v, _ in operands],
        [v.ty for v, _ in operands],
        [t.bits for _, t in operands],
        operands[0][0].ty if result_ty is None else result_ty,
    )
    return Tag(width, bits)


def apply_binop(
    kind: OpKind,
    a: DiftValue,
    b: DiftValue,
    result_ty: BitType,
    rule: PropagationRule,
) -> DiftValue:
    value = eval_binop(kind, a.value, b.value, result_ty)
    tag = propagate(rule, kind, [(a.value, a.tag), (b.value, b.tag)], result_ty)
    return DiftValue(value, tag)
