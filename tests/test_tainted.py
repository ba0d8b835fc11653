import random

import pytest

from diftsim import (
    BitType,
    BitValue,
    DiftValue,
    DivisionByZero,
    OpKind,
    PropagationRule,
    Tag,
    apply_binop,
    eval_binop,
)
from diftsim.bitvalue import BINARY_OPS, COMPARE_OPS

U4 = BitType(4)
U8 = BitType(8)

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE


def dv(raw, tag_bits, ty=U4, width=4):
    return DiftValue(BitValue(ty, raw), Tag(width, tag_bits))


def test_apply_binop_examples():
    got = apply_binop(OpKind.ADD, dv(9, 0b1), dv(12, 0), U4, UNION)
    assert (got.value.bits, got.tag.bits) == (5, 0b1)
    got = apply_binop(OpKind.AND, dv(0, 0), dv(7, 0b1), U4, PRECISE)
    assert (got.value.bits, got.tag.bits) == (0, 0)
    got = apply_binop(OpKind.MUL, dv(3, 0b01), dv(5, 0b10), U8, UNION)
    assert (got.value.bits, got.tag.bits) == (15, 0b11)


def _random_operand(rng, width=4):
    ty = BitType(width, rng.random() < 0.5)
    return DiftValue(BitValue(ty, rng.randrange(1 << width)), Tag(4, rng.randrange(16)))


def test_functional_transparency_random():
    rng = random.Random(99)
    kinds = sorted(BINARY_OPS, key=lambda k: k.value)
    for _ in range(2000):
        kind = rng.choice(kinds)
        rule = rng.choice((UNION, PRECISE))
        a, b = _random_operand(rng), _random_operand(rng)
        r_ty = BitType(1) if kind in COMPARE_OPS else BitType(4, rng.random() < 0.5)
        try:
            plain = eval_binop(kind, a.value, b.value, r_ty)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                apply_binop(kind, a, b, r_ty, rule)
            continue
        assert apply_binop(kind, a, b, r_ty, rule).value == plain
