import itertools
import random

import pytest

from diftsim import (
    BINARY_OPS,
    COMPARE_OPS,
    BitType,
    BitValue,
    DivisionByZero,
    InvalidType,
    OpKind,
    TypeMismatch,
    eval_binop,
    to_int,
)
from diftsim.bitvalue import apply_op

U1 = BitType(1)
U4 = BitType(4)
S4 = BitType(4, signed=True)
U8 = BitType(8)
S8 = BitType(8, signed=True)


# Independent reference semantics, written from the documented contract and
# kept free of the implementation's helpers.


def ref_to_int(bits, width, signed):
    if signed and bits >= (1 << (width - 1)):
        return bits - (1 << width)
    return bits


def ref_wrap(x, width):
    return x % (1 << width)


def ref_binop(kind, a_bits, a_ty, b_bits, b_ty, r_ty):
    ia = ref_to_int(a_bits, a_ty.width, a_ty.signed)
    ib = ref_to_int(b_bits, b_ty.width, b_ty.signed)
    cmps = {
        OpKind.EQ: ia == ib,
        OpKind.NE: ia != ib,
        OpKind.LT: ia < ib,
        OpKind.LE: ia <= ib,
        OpKind.GT: ia > ib,
        OpKind.GE: ia >= ib,
    }
    if kind in cmps:
        return int(cmps[kind])
    if kind is OpKind.ADD:
        r = ia + ib
    elif kind is OpKind.SUB:
        r = ia - ib
    elif kind is OpKind.MUL:
        r = ia * ib
    elif kind is OpKind.DIV:
        if ib == 0:
            raise ZeroDivisionError
        r = int(ia / ib)  # trunc toward zero
    elif kind is OpKind.MOD:
        if ib == 0:
            raise ZeroDivisionError
        r = ia - ib * int(ia / ib)
    elif kind is OpKind.AND:
        r = ia & ib
    elif kind is OpKind.OR:
        r = ia | ib
    elif kind is OpKind.XOR:
        r = ia ^ ib
    elif kind is OpKind.SHL:
        r = ia * (1 << (b_bits % r_ty.width))
    elif kind is OpKind.SHR:
        s = b_bits % r_ty.width
        r = ia >> s  # floor shift == arithmetic; ia >= 0 when unsigned
    else:
        raise AssertionError(kind)
    return ref_wrap(r, r_ty.width)


def test_apply_op_wraps_into_result_type():
    assert apply_op(OpKind.ADD, (9, 8), (U4, U4), U4) == 1  # 17 mod 16
    assert apply_op(OpKind.NEG, (6,), (U4,), S4) == 10  # -6
    assert apply_op(OpKind.MUL, (7, 6), (U4, U4), U8) == 42  # widened, not wrapped at u4
    assert apply_op(OpKind.SUB, (0, 1), (U1, U1), U1) == 1


def test_to_int_round_trips():
    assert to_int(BitValue(S4, 10)) == -6
    assert to_int(BitValue(U4, 10)) == 10
    assert to_int(BitValue(S8, 0)) == 0


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 9):
        for signed in (False, True):
            ty = BitType(width, signed)
            low = -(1 << (width - 1)) if signed else 0
            for bits in range(1 << width):
                n = to_int(BitValue(ty, bits))
                assert low <= n < low + (1 << width) and n & ty.mask == bits


def test_invalid_widths_rejected():
    for width in (0, -1, 65):
        with pytest.raises(InvalidType):
            BitType(width)


def test_non_canonical_bits_rejected():
    with pytest.raises(InvalidType):
        BitValue(U4, 16)
    with pytest.raises(InvalidType):
        BitValue(U4, -1)


def test_binop_examples():
    assert eval_binop(OpKind.ADD, BitValue(U4, 9), BitValue(U4, 12), U4).bits == 5
    assert eval_binop(OpKind.MUL, BitValue(U4, 7), BitValue(U4, 6), U8).bits == 42
    # arithmetic shift: floor(-6 / 2) = -3
    assert eval_binop(OpKind.SHR, BitValue(S4, 10), BitValue(U4, 1), S4).bits == 13


def test_div_mod_truncate_toward_zero():
    cases = [(7, 3, 2, 1), (-7, 3, -2, -1), (7, -3, -2, 1), (-7, -3, 2, -1)]
    for ia, ib, q, r in cases:
        a, b = BitValue(S8, ia & S8.mask), BitValue(S8, ib & S8.mask)
        assert to_int(eval_binop(OpKind.DIV, a, b, S8)) == q
        assert to_int(eval_binop(OpKind.MOD, a, b, S8)) == r


def test_division_by_zero():
    a, b = BitValue(U4, 5), BitValue(U4, 0)
    with pytest.raises(DivisionByZero):
        eval_binop(OpKind.DIV, a, b, U4)
    with pytest.raises(DivisionByZero):
        eval_binop(OpKind.MOD, a, b, U4)


def test_comparison_requires_u1_result():
    a, b = BitValue(U4, 3), BitValue(U4, 5)
    assert eval_binop(OpKind.LT, a, b, U1).bits == 1
    with pytest.raises(TypeMismatch):
        eval_binop(OpKind.LT, a, b, U4)
    with pytest.raises(TypeMismatch):
        eval_binop(OpKind.EQ, a, b, BitType(1, signed=True))


def test_shift_amount_mod_result_width():
    a = BitValue(U4, 3)
    assert eval_binop(OpKind.SHL, a, BitValue(U4, 4), U4).bits == 3  # 4 % 4 == 0
    assert eval_binop(OpKind.SHL, a, BitValue(U4, 1), U4).bits == 6


def test_mux_load_store_rejected_as_binop():
    a = BitValue(U4, 1)
    for kind in (OpKind.MUX, OpKind.LOAD, OpKind.STORE, OpKind.NOT):
        with pytest.raises(TypeMismatch):
            eval_binop(kind, a, a, U4)


def test_unop_examples():
    assert apply_op(OpKind.NOT, (0b0101,), (U4,), U4) == 0b1010
    assert apply_op(OpKind.NOT, (0b01,), (BitType(2),), U4) == 0b10  # within x's own width
    assert apply_op(OpKind.NEG, (3,), (S4,), S4) == 13
    assert apply_op(OpKind.NEG, (0,), (U4,), U4) == 0
    for kind in (OpKind.LOAD, OpKind.STORE):
        with pytest.raises(TypeMismatch):
            apply_op(kind, (1, 1, 1), (U4, U4, U4), U4)


def test_binop_exhaustive_width_4_against_reference():
    # Equal operand and result widths up to 4, then every mix of operand and
    # result widths up to 3. Deeper widths are swept by the acceptance suite.
    shapes = {(w, w, w) for w in range(1, 5)} | set(itertools.product(range(1, 4), repeat=3))
    for wa, wb, wr in sorted(shapes):
        for sa, sb, sr in itertools.product((False, True), repeat=3):
            a_ty, b_ty = BitType(wa, sa), BitType(wb, sb)
            for kind in BINARY_OPS:
                if kind in COMPARE_OPS and sr:
                    continue
                r_ty = BitType(1) if kind in COMPARE_OPS else BitType(wr, sr)
                for a_bits in range(1 << wa):
                    for b_bits in range(1 << wb):
                        a, b = BitValue(a_ty, a_bits), BitValue(b_ty, b_bits)
                        try:
                            expected = ref_binop(kind, a_bits, a_ty, b_bits, b_ty, r_ty)
                        except ZeroDivisionError:
                            with pytest.raises(DivisionByZero):
                                eval_binop(kind, a, b, r_ty)
                            continue
                        assert eval_binop(kind, a, b, r_ty).bits == expected, (
                            f"{kind.value} {a_bits}:{a_ty} {b_bits}:{b_ty} -> {r_ty}"
                        )


def test_outputs_always_canonical():
    rng = random.Random(1234)
    kinds = sorted(BINARY_OPS, key=lambda k: k.value)
    for _ in range(2000):
        wa, wb = rng.randint(1, 16), rng.randint(1, 16)
        a_ty = BitType(wa, rng.random() < 0.5)
        b_ty = BitType(wb, rng.random() < 0.5)
        kind = rng.choice(kinds)
        r_ty = BitType(1) if kind in COMPARE_OPS else BitType(rng.randint(1, 16), rng.random() < 0.5)
        a = BitValue(a_ty, rng.randrange(1 << wa))
        b = BitValue(b_ty, rng.randrange(1 << wb))
        try:
            out = eval_binop(kind, a, b, r_ty)
        except DivisionByZero:
            continue
        assert 0 <= out.bits <= r_ty.mask
        if kind in COMPARE_OPS:
            assert out.bits in (0, 1)
