import random

import pytest

from diftsim import (
    BitType,
    BitValue,
    DivisionByZero,
    OpKind,
    TypeMismatch,
    eval_binop,
)
from diftsim.bitvalue import BINARY_OPS, COMPARE_OPS, apply_op, decode

U1 = BitType(1)
U4 = BitType(4)
S4 = BitType(4, signed=True)
S8 = BitType(8, signed=True)


def test_decode_round_trips():
    assert decode(10, S4) == -6
    assert decode(10, U4) == 10
    assert decode(0, S8) == 0
    assert str(BitValue(S4, 10)) == "-6:s4"


def test_round_trip_exhaustive_small_widths():
    for width in range(1, 9):
        for signed in (False, True):
            ty = BitType(width, signed)
            low = -(1 << (width - 1)) if signed else 0
            for bits in range(1 << width):
                n = decode(bits, ty)
                assert low <= n < low + (1 << width) and n & ty.mask == bits


def test_comparison_requires_u1_result():
    a, b = BitValue(U4, 3), BitValue(U4, 5)
    assert eval_binop(OpKind.LT, a, b, U1).bits == 1
    with pytest.raises(TypeMismatch):
        eval_binop(OpKind.LT, a, b, U4)
    with pytest.raises(TypeMismatch):
        eval_binop(OpKind.EQ, a, b, BitType(1, signed=True))


def test_mux_load_store_rejected_as_binop():
    a = BitValue(U4, 1)
    for kind in (OpKind.MUX, OpKind.LOAD, OpKind.STORE, OpKind.NOT):
        with pytest.raises(TypeMismatch):
            eval_binop(kind, a, a, U4)
    for kind in (OpKind.LOAD, OpKind.STORE):  # not value operators either
        with pytest.raises(TypeMismatch):
            apply_op(kind, (1, 1, 1), (U4, U4, U4), U4)


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
