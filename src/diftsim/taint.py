"""Taint tags, the propagation-rule algebra, and the tracking configuration.

A tag is a plain int, a bitset of independent labels no wider than the
kernel's tag width; bitwise OR is the lattice join and 0 means
untainted. Propagation is either a plain union of operand tags or a
precise variant that additionally drops taint where an untainted operand
forces the result no matter what the tainted operands hold (x*0, x&0,
x|all-ones, and the unselected mux branch). The precise rule is a
word-level form of GLIFT's precise shadow logic (Tiwari et al., ASPLOS
2009): no kill unless the result is independent of the tainted operands.
A DiftConfig picks per-operation tracking under one rule (FineGrained)
or one boundary tag for the whole kernel (CoarseBoundary).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from functools import lru_cache

from .bitvalue import AND, LOAD, MUL, MUX, OR, STORE, BitType, OpKind, sign_bit
from .errors import InvalidType

MAX_TAG_WIDTH = 32


class PropagationRule(Enum):
    UNION = "union"
    PRECISE = "precise"


# Read as module constants where it counts, as bitvalue's OpKind members are.
UNION, PRECISE = PropagationRule.UNION, PropagationRule.PRECISE


class FineGrained(namedtuple("FineGrained", "rule")):
    """Per-operation tag tracking under the given rule, a PropagationRule."""

    __slots__ = ()


class CoarseBoundary(namedtuple("CoarseBoundary", "")):
    """Tags computed only at the component boundary: every output and
    checkpoint observes the join of all input and initial memory tags."""

    __slots__ = ()


_ON_EXCEPTION = ("record", "halt")


class DiftConfig(namedtuple("DiftConfig", "tag_width mode on_exception")):
    """Tracking parameters for one instrumented kernel: tag size, the
    propagation mode (FineGrained or CoarseBoundary), and what a denying
    checkpoint does to the run ("record" or "halt")."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, tag_width: int, mode, on_exception: str = "record"):
        if (
            not isinstance(tag_width, int)
            or isinstance(tag_width, bool)
            or not 1 <= tag_width <= MAX_TAG_WIDTH
        ):
            raise InvalidType(f"tag_width must be in 1..{MAX_TAG_WIDTH}")
        if not (
            isinstance(mode, CoarseBoundary)
            or isinstance(mode, FineGrained) and isinstance(mode.rule, PropagationRule)
        ):
            raise InvalidType(
                f"mode must be CoarseBoundary() or FineGrained(PropagationRule), got {mode!r}"
            )
        if on_exception not in _ON_EXCEPTION:
            raise InvalidType(f"on_exception must be one of {_ON_EXCEPTION}")
        return tuple.__new__(cls, (tag_width, mode, on_exception))

    @property
    def rule(self) -> PropagationRule | None:
        return self.mode.rule if isinstance(self.mode, FineGrained) else None


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
    if kind is LOAD:
        return _load(sign_bit(types[1]))
    if kind is STORE:
        return _store(sign_bit(types[1]), rule is PRECISE)
    if rule is PRECISE:
        if kind is MUX:
            return _mux_select
        if kind is MUL or kind is AND:
            return _zero_kill
        if kind is OR:
            return _ones_kill(
                _all_ones_mask(types[0], result_ty), _all_ones_mask(types[1], result_ty)
            )
    return _join
