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
from typing import Iterable, Sequence

from .bitvalue import VALUE_OPS, BitType, BitValue, OpKind, decode, op_arity
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


def tag_bits(
    rule: PropagationRule,
    kind: OpKind,
    bits: Sequence[int],
    types: Sequence[BitType],
    tags: Sequence[int],
    result_ty: BitType,
) -> int:
    """Result tag bits of one operation; the one definition of the tag rules.

    UNION joins every operand tag (for mux: selector and both branches).
    PRECISE starts from the union and applies the taint-kill identities
    listed in the module docstring; x|c kills only when the untainted c,
    decoded by its own signedness and wrapped to result_ty, is all ones
    there. Memory operations use tags alone: (address, cell) for load,
    joined under either rule, and (address, value) for store, whose
    result is the cell's new tag: under PRECISE the value tag alone.
    """
    if rule is PropagationRule.PRECISE:
        if kind is OpKind.MUX:
            return tags[0] | tags[1 if bits[0] else 2]
        if kind is OpKind.MUL or kind is OpKind.AND:
            if any(t == 0 and b == 0 for b, t in zip(bits, tags)):
                return 0
        elif kind is OpKind.OR:
            mask = result_ty.mask
            if any(
                t == 0 and decode(b, ty) & mask == mask for b, ty, t in zip(bits, types, tags)
            ):
                return 0
        elif kind is OpKind.STORE:
            return tags[1]
    acc = 0
    for t in tags:
        acc |= t
    return acc


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
