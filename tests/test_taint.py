import pytest

from diftsim import (
    ArityMismatch,
    BitType,
    BitValue,
    OpKind,
    PropagationRule,
    Tag,
    TypeMismatch,
    WidthMismatch,
    propagate,
)

U4 = BitType(4)

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE


def _ops(*pairs):
    return [(BitValue(U4, v), Tag(4, bits)) for v, bits in pairs]


def test_propagate_arity_and_kind_checks():
    with pytest.raises(ArityMismatch):
        propagate(UNION, OpKind.ADD, _ops((1, 0)))
    with pytest.raises(TypeMismatch):
        propagate(UNION, OpKind.LOAD, _ops((1, 0), (1, 0)))
    with pytest.raises(WidthMismatch):
        propagate(UNION, OpKind.ADD, [(BitValue(U4, 1), Tag(4, 1)), (BitValue(U4, 1), Tag(8, 1))])


def test_propagate_defaults_the_result_type_to_the_first_operand():
    # An untainted u2 3 is all ones at a u2 result, which kills the or's
    # taint, but not at a u4 one.
    ops = [(BitValue(BitType(2), 3), Tag(2, 0)), (BitValue(U4, 9), Tag(2, 0b1))]
    assert propagate(PRECISE, OpKind.OR, ops) == Tag(2, 0)
    assert propagate(PRECISE, OpKind.OR, ops, U4) == Tag(2, 0b1)
