"""Bit-accurate integers with declared width, signedness, and wrap-around.

A value is a plain int, the canonical unsigned bit pattern of its
BitType; signed numbers use two's complement. value_fn defines every
operator on such ints: it computes the exact integer result and wraps it
into an explicitly declared result type, the way fixed-width hardware
datapaths behave. BitValue pairs bits with their type where a record
needs both, as a kernel's constants do.
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


# The members as module constants, read by the code that runs per node or
# per lowered signature: on CPython 3.11 EnumType defines __getattr__, so a
# read such as OpKind.STORE costs about ten reads of a module global.
ADD, SUB, MUL, DIV, MOD = OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD
AND, OR, XOR, SHL, SHR = OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR
EQ, NE, LT, LE, GT, GE = OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE, OpKind.GT, OpKind.GE
NOT, NEG, MUX, LOAD, STORE = OpKind.NOT, OpKind.NEG, OpKind.MUX, OpKind.LOAD, OpKind.STORE

COMPARE_OPS = frozenset({EQ, NE, LT, LE, GT, GE})
BINARY_OPS = frozenset({ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR}) | COMPARE_OPS
UNARY_OPS = frozenset({NOT, NEG})
VALUE_OPS = BINARY_OPS | UNARY_OPS | {MUX}


# Operand count of each operator: mux and store take three.
OP_ARITY = {
    kind: 1 if kind in UNARY_OPS else 2 if kind in BINARY_OPS or kind is LOAD else 3
    for kind in OpKind
}


class BitType(namedtuple("BitType", "width signed")):
    """Declared width and signedness of a wire or storage cell."""

    # No __slots__: mask is cached in the instance's __dict__.
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, width: int, signed: bool = False):
        if not isinstance(width, int) or isinstance(width, bool) or not 1 <= width <= MAX_WIDTH:
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
        return f"{decode(self.bits, self.ty)}:{self.ty}"


def sign_bit(ty: BitType) -> int:
    """The sign bit of a signed ty, 0 for an unsigned one: canonical bits b
    decode to (b ^ s) - s."""
    return 1 << (ty.width - 1) if ty.signed else 0


def decode(bits: int, ty: BitType) -> int:
    """Numeric value of canonical bits of ty, two's-complement decoded when signed."""
    s = sign_bit(ty)
    return (bits ^ s) - s


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
    ADD: operator.add,
    SUB: operator.sub,
    MUL: operator.mul,
    DIV: _div,
    MOD: _mod,
    AND: operator.and_,
    OR: operator.or_,
    XOR: operator.xor,
    SHL: operator.lshift,
    SHR: operator.rshift,
    EQ: operator.eq,
    NE: operator.ne,
    LT: operator.lt,
    LE: operator.le,
    GT: operator.gt,
    GE: operator.ge,
}
# Operators whose result bits modulo 2^w depend only on their operands'
# bits modulo 2^w (mux on the selected operand's).
_WRAPPING = frozenset({ADD, SUB, MUL, AND, OR, XOR, SHL, NEG, MUX})


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
def _load(memory: str, size: int, sy: int, mask: int):
    def load(cells, y, z):
        i = (y ^ sy) - sy
        if not 0 <= i < size:
            raise OutOfBoundsAddress(f"address {i} outside {memory}[0..{size})")
        return cells[i] & mask
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
    type) and x its list of cells. The address y must lie in [0, size),
    else OutOfBoundsAddress. A cell may hold a raw int of a memory
    override, so load wraps the cell into the cell type and returns it;
    store wraps z into the cell type, writes it, and returns it. Result
    types are not checked here; kernel_ir.validate checks them.
    """
    if kind is LOAD:
        mem = types[0]
        return _load(mem.id, mem.size, sign_bit(types[1]), mem.cell.mask)
    if kind is STORE:
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
    if kind is MUX:
        return _mux(signs[1], signs[2], mask)
    if kind is NOT:
        return _not(types[0].mask & mask)
    if kind is NEG:
        return _neg(signs[0], mask)
    if kind is SHL or kind is SHR:
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

