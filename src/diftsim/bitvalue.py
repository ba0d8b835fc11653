"""Bit-accurate integers with declared width, signedness, and wrap-around.

Values carry their type and are stored as canonical unsigned bit patterns;
signed numbers use two's complement. Every operation computes the exact
integer result and wraps it into an explicitly declared result type, the
way fixed-width hardware datapaths behave. Values are immutable.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from enum import Enum, unique
from functools import cached_property, lru_cache

from .errors import DivisionByZero, InvalidType, OutOfBoundsAddress, TypeMismatch

MAX_WIDTH = 64


@unique
class OpKind(Enum):
    """Closed operator set of the dataflow IR; parsers reject anything else."""

    # Members are singletons and compare by identity, so hashing by
    # identity agrees with ==; Enum's own __hash__ hashes the name in Python.
    __hash__ = object.__hash__

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


# Operand count of each operator: mux and store take three.
OP_ARITY = {
    kind: 1 if kind in UNARY_OPS else 2 if kind in BINARY_OPS or kind is OpKind.LOAD else 3
    for kind in OpKind
}


def op_arity(kind: OpKind) -> int:
    return OP_ARITY[kind]


class BitType(namedtuple("BitType", "width signed")):
    """Declared width and signedness of a wire or storage cell."""

    # No __slots__: mask is cached in the instance's __dict__.
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, width: int, signed: bool = False):
        if not isinstance(width, int) or not 1 <= width <= MAX_WIDTH:
            raise InvalidType(f"width must be in 1..{MAX_WIDTH}, got {width!r}")
        return tuple.__new__(cls, (width, signed))

    @cached_property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def __str__(self) -> str:
        return f"{'s' if self.signed else 'u'}{self.width}"


class BitValue(namedtuple("BitValue", "ty bits")):
    """A canonical bit pattern of a BitType; bits is always in [0, 2^width)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, ty: BitType, bits: int):
        if not isinstance(bits, int) or not 0 <= bits <= ty.mask:
            raise InvalidType(f"bits {bits!r} not canonical for {ty}")
        return tuple.__new__(cls, (ty, bits))

    def __str__(self) -> str:
        return f"{to_int(self)}:{self.ty}"


def make_bitvalue(ty: BitType, raw: int) -> BitValue:
    """Wrap an unbounded integer into ty; result bits = raw mod 2^width."""
    return BitValue(ty, raw & ty.mask)


def sign_bit(ty: BitType) -> int:
    """The sign bit of a signed ty, 0 for an unsigned one: canonical bits b
    decode to (b ^ s) - s."""
    return 1 << (ty.width - 1) if ty.signed else 0


def decode(bits: int, ty: BitType) -> int:
    """Numeric value of canonical bits of ty, two's-complement decoded when signed."""
    s = sign_bit(ty)
    return (bits ^ s) - s


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
    OpKind.ADD: operator.add,
    OpKind.SUB: operator.sub,
    OpKind.MUL: operator.mul,
    OpKind.DIV: _div,
    OpKind.MOD: _mod,
    OpKind.AND: operator.and_,
    OpKind.OR: operator.or_,
    OpKind.XOR: operator.xor,
    OpKind.SHL: operator.lshift,
    OpKind.SHR: operator.rshift,
    OpKind.EQ: operator.eq,
    OpKind.NE: operator.ne,
    OpKind.LT: operator.lt,
    OpKind.LE: operator.le,
    OpKind.GT: operator.gt,
    OpKind.GE: operator.ge,
}
# Operators whose result bits modulo 2^w depend only on their operands'
# bits modulo 2^w (mux on the selected operand's).
_WRAPPING = frozenset(
    {
        OpKind.ADD,
        OpKind.SUB,
        OpKind.MUL,
        OpKind.AND,
        OpKind.OR,
        OpKind.XOR,
        OpKind.SHL,
        OpKind.NEG,
        OpKind.MUX,
    }
)


def pad_operands(seq):
    """Three operands from one, two or three, repeating the last; the
    specialised functions of value_fn and taint.tag_fn take three."""
    return seq[0], seq[1 if len(seq) > 1 else 0], seq[-1]


# The factories below keep (a bounded number of) the functions they make,
# so nodes and kernels with the same parameters share one function.


@lru_cache(maxsize=1024)
def _arith(op, sx: int, sy: int, mask: int):
    if sx or sy:
        def arith(x, y, z):
            return op((x ^ sx) - sx, (y ^ sy) - sy) & mask
    else:
        def arith(x, y, z):
            return op(x, y) & mask
    return arith


@lru_cache(maxsize=1024)
def _shift(op, sx: int, width: int, mask: int):
    def shift(x, y, z):
        return op((x ^ sx) - sx, y % width) & mask
    return shift


@lru_cache(maxsize=1024)
def _not(mask: int):
    def not_(x, y, z):
        return ~x & mask
    return not_


@lru_cache(maxsize=1024)
def _neg(sx: int, mask: int):
    def neg(x, y, z):
        return -((x ^ sx) - sx) & mask
    return neg


@lru_cache(maxsize=1024)
def _mux(sy: int, sz: int, mask: int):
    def mux(x, y, z):
        return ((y ^ sy) - sy if x else (z ^ sz) - sz) & mask
    return mux


@lru_cache(maxsize=1024)
def _load(memory: str, size: int, sy: int):
    def load(cells, y, z):
        i = (y ^ sy) - sy
        if not 0 <= i < size:
            raise OutOfBoundsAddress(f"address {i} outside {memory}[0..{size})")
        return cells[i]
    return load


@lru_cache(maxsize=1024)
def _store(memory: str, size: int, sy: int, sz: int, mask: int):
    def store(cells, y, z):
        i = (y ^ sy) - sy
        if not 0 <= i < size:
            raise OutOfBoundsAddress(f"address {i} outside {memory}[0..{size})")
        cells[i] = bits = ((z ^ sz) - sz) & mask
        return bits
    return store


def value_fn(kind: OpKind, types, result_ty: BitType | None):
    """Specialise an operator to its operand and result types: the one
    definition of value semantics, as a function f(x, y, z) of canonical
    operand bits (pad_operands fills an arity below three) that returns
    the canonical result bits.

    Operands are decoded by their own signedness and the exact result is
    wrapped into result_ty. div truncates toward zero and mod follows the
    dividend's sign; both raise DivisionByZero on a zero divisor. The
    shift amount is the unsigned bits of y reduced modulo the result
    width; shr is arithmetic when x is signed, logical otherwise.
    Comparisons yield 0 or 1. not complements x within its own width;
    neg negates its value. mux picks y when x is nonzero, else z, and
    rewraps the chosen value into result_ty.

    For load and store, types[0] is the memory (its id, size and cell
    type) and x its list of cell bits. The address y must lie in
    [0, size), else OutOfBoundsAddress. load returns the cell; store
    wraps z into the cell type, writes it, and returns it. Result types
    are not checked here; eval_binop, eval_unop and validate check them.
    """
    if kind is OpKind.LOAD:
        mem = types[0]
        return _load(mem.id, mem.size, sign_bit(types[1]))
    if kind is OpKind.STORE:
        mem, data = types[0], types[2]
        s_data = sign_bit(data) if data.width < mem.cell.width else 0
        return _store(mem.id, mem.size, sign_bit(types[1]), s_data, mem.cell.mask)
    mask = result_ty.mask
    if kind in _WRAPPING:
        # An operand at least as wide as the result changes no result bit
        # by its sign, so it is not decoded.
        signs = [sign_bit(ty) if ty.width < result_ty.width else 0 for ty in types]
    else:
        signs = [sign_bit(ty) for ty in types]
    if kind is OpKind.MUX:
        return _mux(signs[1], signs[2], mask)
    if kind is OpKind.NOT:
        return _not(types[0].mask & mask)
    if kind is OpKind.NEG:
        return _neg(signs[0], mask)
    if kind is OpKind.SHL or kind is OpKind.SHR:
        return _shift(_ARITH[kind], signs[0], result_ty.width, mask)
    op = _ARITH.get(kind)
    if op is None:
        raise TypeMismatch(f"{kind.value} is not a value operator")
    return _arith(op, signs[0], signs[1], mask)


def apply_op(kind: OpKind, bits, types, result_ty: BitType) -> int:
    """Canonical result bits of a value operator over canonical operand
    bits and their types, as value_fn defines."""
    if kind not in VALUE_OPS:
        raise TypeMismatch(f"{kind.value} is not a value operator")
    return value_fn(kind, types, result_ty)(*pad_operands(bits))


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
