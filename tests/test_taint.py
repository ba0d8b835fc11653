import random

import pytest

from diftsim import (
    ArityMismatch,
    BitType,
    BitValue,
    InvalidType,
    OpKind,
    PropagationRule,
    Tag,
    TypeMismatch,
    WidthMismatch,
    eval_binop,
    propagate,
)
from diftsim.taint import tag_bits

U4 = BitType(4)
S4 = BitType(4, signed=True)

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE


def t(bits, width=4):
    return Tag(width, bits)


def test_tag_bounds():
    with pytest.raises(InvalidType):
        Tag(0, 0)
    with pytest.raises(InvalidType):
        Tag(33, 0)
    with pytest.raises(InvalidType):
        Tag(4, 16)


def _union(*tags):  # not, add or mux, by the number of operands
    kind = (OpKind.NOT, OpKind.ADD, OpKind.MUX)[len(tags) - 1]
    return tag_bits(UNION, kind, [0] * len(tags), [U4] * len(tags), tags, U4)


def test_join_examples():
    # The join of two tags is the union rule's tag for a binary op.
    assert _union(0b0101, 0b0011) == 0b0111
    assert _union(0, 0b1010) == 0b1010
    assert _union(0b11, 0b11) == 0b11
    with pytest.raises(WidthMismatch):
        propagate(UNION, OpKind.OR, [(BitValue(U4, 1), Tag(4, 1)), (BitValue(U4, 1), Tag(8, 1))])


def test_boundary_tag():
    # The coarse boundary tag is the same join over input and memory tags.
    assert _union(0, 0) == 0
    assert _union(0b01, 0b10, 0) == 0b11
    assert _union(0b10) == 0b10


def _ops(*pairs):
    return [(BitValue(U4, v), tag) for v, tag in pairs]


def test_propagate_union():
    assert propagate(UNION, OpKind.MUL, _ops((3, t(0b01)), (5, t(0b10)))) == t(0b11)
    assert propagate(UNION, OpKind.ADD, _ops((0, t(0)), (0, t(0)))) == t(0)
    # mux joins selector and both branches
    got = propagate(UNION, OpKind.MUX, _ops((1, t(0b001)), (7, t(0b010)), (2, t(0b100))))
    assert got == t(0b111)


def test_propagate_arity_and_kind_checks():
    with pytest.raises(ArityMismatch):
        propagate(UNION, OpKind.ADD, _ops((1, t(0))))
    with pytest.raises(TypeMismatch):
        propagate(UNION, OpKind.LOAD, _ops((1, t(0)), (1, t(0))))
    with pytest.raises(WidthMismatch):
        propagate(UNION, OpKind.ADD, [(BitValue(U4, 1), Tag(4, 1)), (BitValue(U4, 1), Tag(8, 1))])


def test_precise_kill_untainted_zero():
    for kind in (OpKind.AND, OpKind.MUL):
        assert propagate(PRECISE, kind, _ops((0, t(0)), (7, t(0b1)))) == t(0)
        assert propagate(PRECISE, kind, _ops((7, t(0b1)), (0, t(0)))) == t(0)
        # a tainted zero does not trigger the kill
        assert propagate(PRECISE, kind, _ops((0, t(0b1)), (7, t(0b10)))) == t(0b11)
        # untainted nonzero does not trigger it either
        assert propagate(PRECISE, kind, _ops((3, t(0)), (7, t(0b1)))) == t(0b1)


def test_precise_kill_or_all_ones():
    assert propagate(PRECISE, OpKind.OR, _ops((15, t(0)), (7, t(0b1)))) == t(0)
    signed_all_ones = BitValue(S4, 0b1111)  # -1
    assert propagate(PRECISE, OpKind.OR, [(signed_all_ones, t(0)), (BitValue(U4, 9), t(0b1))]) == t(0)
    assert propagate(PRECISE, OpKind.OR, _ops((14, t(0)), (7, t(0b1)))) == t(0b1)


def test_precise_kill_verified_by_enumeration():
    # Wherever the precise rule reports independence, brute force over all
    # values of the tainted operand must show a constant result.
    killed = propagate(PRECISE, OpKind.AND, _ops((0, t(0)), (7, t(0b1)))) == t(0)
    assert killed
    fixed = BitValue(U4, 0)
    results = {
        eval_binop(OpKind.AND, fixed, BitValue(U4, bits), U4).bits for bits in range(16)
    }
    assert results == {0}


def test_precise_mux_selected_branch_only():
    sel_taken = _ops((1, t(0b1)), (7, t(0)), (2, t(0b10)))
    assert propagate(PRECISE, OpKind.MUX, sel_taken) == t(0b1)
    sel_not_taken = _ops((0, t(0)), (7, t(0b10)), (2, t(0)))
    assert propagate(PRECISE, OpKind.MUX, sel_not_taken) == t(0)


def test_precise_subset_of_union_random():
    rng = random.Random(7)
    kinds = sorted(
        (k for k in OpKind if k not in (OpKind.LOAD, OpKind.STORE, OpKind.NOT, OpKind.NEG, OpKind.MUX)),
        key=lambda k: k.value,
    )
    for _ in range(2000):
        kind = rng.choice(kinds)
        ops = _ops(
            (rng.randrange(16), t(rng.randrange(16))),
            (rng.randrange(16), t(rng.randrange(16))),
        )
        precise = propagate(PRECISE, kind, ops)
        union = propagate(UNION, kind, ops)
        assert precise.bits & ~union.bits == 0


def test_unary_passthrough_via_propagate():
    assert propagate(UNION, OpKind.NOT, _ops((5, t(0b10)))) == t(0b10)
    assert propagate(PRECISE, OpKind.NEG, _ops((5, t(0b01)))) == t(0b01)
