"""Taint tags and the propagation-rule algebra.

A tag is a fixed-width bitset of independent labels; bitwise OR is the
lattice join and all-zero means untainted. Propagation is either a plain
union of operand tags or a precise variant that additionally drops taint
where an untainted operand forces the result no matter what the tainted
operands hold (x*0, x&0, x|all-ones, and the unselected mux branch). The
precise rule is a word-level form of GLIFT's precise shadow logic
(Tiwari et al., ASPLOS 2009): no kill unless the result is independent
of the tainted operands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .bitvalue import VALUE_OPS, BitType, BitValue, OpKind, op_arity, pad_operands, sign_bit
from .errors import ArityMismatch, InvalidType, TypeMismatch, WidthMismatch

MAX_TAG_WIDTH = 32


@dataclass(frozen=True)
class Tag:
    """Bitset of taint labels; bits == 0 means untainted."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or not 1 <= self.width <= MAX_TAG_WIDTH:
            raise InvalidType(f"tag width must be in 1..{MAX_TAG_WIDTH}, got {self.width!r}")
        if not isinstance(self.bits, int) or not 0 <= self.bits < (1 << self.width):
            raise InvalidType(f"tag bits {self.bits!r} out of range for width {self.width}")

    @classmethod
    def zero(cls, width: int) -> "Tag":
        return cls(width, 0)

    def __str__(self) -> str:
        return f"0b{self.bits:0{self.width}b}"


class PropagationRule(Enum):
    UNION = "union"
    PRECISE = "precise"


@dataclass(frozen=True)
class FineGrained:
    """Per-operation tag tracking under the given rule."""

    rule: PropagationRule


@dataclass(frozen=True)
class CoarseBoundary:
    """Tags computed only at the component boundary: every output and
    checkpoint observes the join of all input and initial memory tags."""


DiftMode = FineGrained | CoarseBoundary


def join(a: Tag, b: Tag) -> Tag:
    """Lattice join: bitwise OR of equal-width tags."""
    if a.width != b.width:
        raise WidthMismatch(f"tag widths differ: {a.width} vs {b.width}")
    return Tag(a.width, a.bits | b.bits)


def _join_all(tags: Iterable[Tag]) -> Tag:
    it = iter(tags)
    acc = next(it)
    for t in it:
        acc = join(acc, t)
    return acc


def _join(x, y, z, tx, ty, tz):
    return tx | ty | tz


def _zero_kill(x, y, z, tx, ty, tz):
    if (tx == 0 and x == 0) or (ty == 0 and y == 0):
        return 0
    return tx | ty


def _mux_select(x, y, z, tx, ty, tz):
    return tx | (ty if x else tz)


# As in bitvalue, the factories keep the functions they make, for sharing.
@lru_cache(maxsize=1024)
def _ones_kill(kx: int, ky: int):
    def ones_kill(x, y, z, tx, ty, tz):
        if (tx == 0 and (x & kx) == kx) or (ty == 0 and (y & ky) == ky):
            return 0
        return tx | ty
    return ones_kill


@lru_cache(maxsize=1024)
def _load(sy: int):
    def load(cells, addr, z, cell_tags, addr_tag, tz):
        return addr_tag | cell_tags[(addr ^ sy) - sy]
    return load


@lru_cache(maxsize=1024)
def _store(sy: int, precise: bool):
    def store(cells, addr, data, cell_tags, addr_tag, data_tag):
        cell_tags[(addr ^ sy) - sy] = tag = data_tag if precise else addr_tag | data_tag
        return tag
    return store


def _all_ones_mask(ty: BitType, result_ty: BitType) -> int:
    """k such that bits b of ty, decoded and wrapped to result_ty, are all
    ones there iff b & k == k: a narrower signed operand must be -1, any
    other must cover the result's bits (never, if unsigned and narrower)."""
    return ty.mask if ty.signed and ty.width < result_ty.width else result_ty.mask


def tag_fn(rule: PropagationRule, kind: OpKind, types: Sequence, result_ty: BitType | None):
    """Specialise the tag rule of one operator to its operand and result
    types: the one definition of the tag rules, as a function
    f(x, y, z, tx, ty, tz) of the operand bits and tag bits laid out as
    for bitvalue.value_fn, returning the result tag bits.

    UNION joins every operand tag (for mux: selector and both branches).
    PRECISE starts from the union and applies the taint-kill identities
    listed in the module docstring; x|c kills only when the untainted c,
    decoded by its own signedness and wrapped to result_ty, is all ones
    there. Memory operations join tags alone: load returns its address
    tag joined with the addressed cell's tag (x is the cell list and tx
    the cells' tags) under either rule; store writes the cell's new tag,
    the address and value tags joined, under PRECISE the value tag alone,
    and returns it. Store runs after the value function has checked the
    address.
    """
    if kind is OpKind.LOAD:
        return _load(sign_bit(types[1]))
    if kind is OpKind.STORE:
        return _store(sign_bit(types[1]), rule is PropagationRule.PRECISE)
    if rule is PropagationRule.PRECISE:
        if kind is OpKind.MUX:
            return _mux_select
        if kind is OpKind.MUL or kind is OpKind.AND:
            return _zero_kill
        if kind is OpKind.OR:
            return _ones_kill(
                _all_ones_mask(types[0], result_ty), _all_ones_mask(types[1], result_ty)
            )
    return _join


def tag_bits(
    rule: PropagationRule,
    kind: OpKind,
    bits: Sequence[int],
    types: Sequence[BitType],
    tags: Sequence[int],
    result_ty: BitType,
) -> int:
    """Result tag bits of one value operation, as tag_fn defines."""
    return tag_fn(rule, kind, types, result_ty)(*pad_operands(bits), *pad_operands(tags))


def propagate(
    rule: PropagationRule,
    kind: OpKind,
    operands: Sequence[tuple[BitValue, Tag]],
    result_ty: BitType | None = None,
) -> Tag:
    """Tag of a value operation's result, from operand values and tags,
    as tag_bits defines; result_ty defaults to the first operand's type."""
    if kind not in VALUE_OPS:
        raise TypeMismatch(f"{kind.value} does not produce a propagated tag")
    if len(operands) != op_arity(kind):
        raise ArityMismatch(
            f"{kind.value} takes {op_arity(kind)} operands, got {len(operands)}"
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


def boundary_tag(
    input_tags: Sequence[Tag],
    initial_memory_tags: Sequence[Tag] = (),
    *,
    width: int | None = None,
) -> Tag:
    """Join of every input tag and every initial memory tag.

    width is only needed when both sequences are empty; when given it must
    agree with the tags' width.
    """
    tags = list(input_tags) + list(initial_memory_tags)
    if not tags:
        if width is None:
            raise WidthMismatch("no tags given and no width to make an empty join")
        return Tag.zero(width)
    acc = _join_all(tags)
    if width is not None and acc.width != width:
        raise WidthMismatch(f"tag widths differ: {acc.width} vs {width}")
    return acc
