"""Bit-accurate integers with declared width, signedness, and wrap-around.

Values carry their type and are stored as canonical unsigned bit patterns;
signed numbers use two's complement. Every operation computes the exact
integer result and wraps it into an explicitly declared result type, the
way fixed-width hardware datapaths behave. Values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from functools import cached_property

from .errors import DivisionByZero, InvalidType, TypeMismatch

MAX_WIDTH = 64


@unique
class OpKind(Enum):
    """Closed operator set of the dataflow IR; parsers reject anything else."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    NOT = "not"
    NEG = "neg"
    MUX = "mux"
    LOAD = "load"
    STORE = "store"


COMPARE_OPS = frozenset(
    {OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE, OpKind.GT, OpKind.GE}
)
BINARY_OPS = (
    frozenset(
        {
            OpKind.ADD,
            OpKind.SUB,
            OpKind.MUL,
            OpKind.DIV,
            OpKind.MOD,
            OpKind.AND,
            OpKind.OR,
            OpKind.XOR,
            OpKind.SHL,
            OpKind.SHR,
        }
    )
    | COMPARE_OPS
)
UNARY_OPS = frozenset({OpKind.NOT, OpKind.NEG})
VALUE_OPS = BINARY_OPS | UNARY_OPS | {OpKind.MUX}


def op_arity(kind: OpKind) -> int:
    if kind in UNARY_OPS:
        return 1
    if kind in BINARY_OPS or kind is OpKind.LOAD:
        return 2
    return 3  # mux and store


@dataclass(frozen=True)
class BitType:
    """Declared width and signedness of a wire or storage cell."""

    width: int
    signed: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or not 1 <= self.width <= MAX_WIDTH:
            raise InvalidType(f"width must be in 1..{MAX_WIDTH}, got {self.width!r}")

    @cached_property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def __str__(self) -> str:
        return f"{'s' if self.signed else 'u'}{self.width}"


@dataclass(frozen=True)
class BitValue:
    """A canonical bit pattern of a BitType; bits is always in [0, 2^width)."""

    ty: BitType
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or not 0 <= self.bits <= self.ty.mask:
            raise InvalidType(f"bits {self.bits!r} not canonical for {self.ty}")

    def __str__(self) -> str:
        return f"{to_int(self)}:{self.ty}"


def make_bitvalue(ty: BitType, raw: int) -> BitValue:
    """Wrap an unbounded integer into ty; result bits = raw mod 2^width."""
    return BitValue(ty, raw & ty.mask)


def decode(bits: int, ty: BitType) -> int:
    """Numeric value of canonical bits of ty, two's-complement decoded when signed."""
    if ty.signed and bits >> (ty.width - 1):
        return bits - (1 << ty.width)
    return bits


def to_int(v: BitValue) -> int:
    """Numeric value: the raw bits, two's-complement decoded for signed types."""
    return decode(v.bits, v.ty)


def _div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("modulo by zero")
    q = abs(a) // abs(b)
    return a - b * (-q if (a < 0) != (b < 0) else q)


_ARITH = {
    OpKind.ADD: int.__add__,
    OpKind.SUB: int.__sub__,
    OpKind.MUL: int.__mul__,
    OpKind.DIV: _div,
    OpKind.MOD: _mod,
    OpKind.AND: int.__and__,
    OpKind.OR: int.__or__,
    OpKind.XOR: int.__xor__,
    OpKind.EQ: int.__eq__,
    OpKind.NE: int.__ne__,
    OpKind.LT: int.__lt__,
    OpKind.LE: int.__le__,
    OpKind.GT: int.__gt__,
    OpKind.GE: int.__ge__,
}


def apply_op(kind: OpKind, bits, types, result_ty: BitType) -> int:
    """Canonical result bits of a value operator; the one definition of
    value semantics, over canonical operand bits and their types.

    Operands are decoded by their own signedness and the exact result is
    wrapped into result_ty. div truncates toward zero and mod follows the
    dividend's sign; both raise DivisionByZero on a zero divisor. The
    shift amount is the unsigned bits of b reduced modulo the result
    width; shr is arithmetic when a is signed, logical otherwise.
    Comparisons yield 0 or 1. not complements a within its own width;
    neg negates its value. mux picks t when sel is nonzero, else f, and
    rewraps the chosen value into result_ty. Result types are not
    checked here; eval_binop and eval_unop check them.
    """
    mask = result_ty.mask
    if kind is OpKind.MUX:
        chosen = 1 if bits[0] else 2
        return decode(bits[chosen], types[chosen]) & mask
    if kind is OpKind.NOT:
        return ~bits[0] & types[0].mask & mask
    a = decode(bits[0], types[0])
    if kind is OpKind.NEG:
        return -a & mask
    if kind is OpKind.SHL:
        return (a << bits[1] % result_ty.width) & mask
    if kind is OpKind.SHR:
        return (a >> bits[1] % result_ty.width) & mask
    fn = _ARITH.get(kind)
    if fn is None:
        raise TypeMismatch(f"{kind.value} is not a value operator")
    return fn(a, decode(bits[1], types[1])) & mask


def eval_binop(kind: OpKind, a: BitValue, b: BitValue, result_ty: BitType) -> BitValue:
    """Apply a binary operator and wrap the exact result into result_ty,
    as apply_op defines. Comparisons demand an unsigned 1-bit result type."""
    if kind not in BINARY_OPS:
        raise TypeMismatch(f"{kind.value} is not a binary value operator")
    if kind in COMPARE_OPS and (result_ty.width != 1 or result_ty.signed):
        raise TypeMismatch(f"comparison result must be u1, got {result_ty}")
    return BitValue(result_ty, apply_op(kind, (a.bits, b.bits), (a.ty, b.ty), result_ty))


def eval_unop(kind: OpKind, a: BitValue, result_ty: BitType) -> BitValue:
    """not complements the bits within a's own width; neg negates the value."""
    if kind not in UNARY_OPS:
        raise TypeMismatch(f"{kind.value} is not a unary value operator")
    return BitValue(result_ty, apply_op(kind, (a.bits,), (a.ty,), result_ty))
