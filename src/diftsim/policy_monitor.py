"""Security checkpoints, policies, and the monitor state machine.

The monitor receives the tag bits a checkpoint observes, never the
value, judges them by the checkpoint's policy, and on deny queues a
SecurityException, raises the interrupt-pending flag, and mirrors its
state into a four-word I/O register file through which software
observes and clears it. checkpoint judges one observation; record
queues a run's denials in one transition, as checkpoint's calls would.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import BadAddress

REG_STATUS = 0  # bit 0 = irq pending; writing bit 0 clears irq and the queue
REG_EXC_COUNT = 1  # read-only: exception queue length
REG_TAG_IN = 2  # software-written tag word, may override input tags
REG_TAG_OUT = 3  # tag bits of the most recent denied checkpoint

_WORD_MASK = 0xFFFFFFFF
_ADDRESSES = (REG_STATUS, REG_EXC_COUNT, REG_TAG_IN, REG_TAG_OUT)


class PolicyKind(Enum):
    DENY_IF_ANY = "deny_if_any"
    DENY_IF_MASK = "deny_if_mask"
    ALLOW_ALL = "allow_all"


class Policy(namedtuple("Policy", "name kind mask", defaults=(None,))):
    """A named PolicyKind; mask, tag bits, is meaningful for deny_if_mask only."""

    # No __slots__: denied_bits is cached in the instance's __dict__.

    @cached_property
    def denied_bits(self) -> int:
        """The tag bits whose presence denies: none, any, or the mask's.
        A deny_if_mask policy must have a mask (kernel_ir.validate)."""
        if self.kind is PolicyKind.ALLOW_ALL:
            return 0
        if self.kind is PolicyKind.DENY_IF_ANY:
            return -1
        return self.mask


class SecurityException(NamedTuple):
    checkpoint_id: str
    node_id: str
    tag_bits: int
    step: int
    policy_name: str


class MonitorState:
    """Single-writer monitor: one simulation run mutates it at a time. It
    holds no policies (each checkpoint brings its own), so one state can
    serve runs of different kernels in turn."""

    __slots__ = ("exceptions", "irq", "registers")

    def __init__(self, exceptions=None, irq: bool = False, registers=None) -> None:
        self.exceptions: list[SecurityException] = [] if exceptions is None else exceptions
        self.irq = irq
        self.registers: list[int] = [0, 0, 0, 0] if registers is None else registers  # words 0..3


def _sync_registers(state: MonitorState) -> None:
    state.registers[REG_STATUS] = 1 if state.irq else 0
    state.registers[REG_EXC_COUNT] = len(state.exceptions)


def checkpoint(
    state: MonitorState,
    checkpoint_id: str,
    node_id: str,
    policy: Policy,
    tag_bits: int,
    step: int,
) -> SecurityException | None:
    """Submit the tag bits a checkpoint observed; returns the exception
    when its policy denies them, after recording it. Checkpoints never
    modify the observed value."""
    if not tag_bits & policy.denied_bits:
        return None
    exc = SecurityException(checkpoint_id, node_id, tag_bits, step, policy.name)
    record(state, (exc,))
    return exc


def record(state: MonitorState, exceptions) -> None:
    """Queue a run's denials, a sequence of SecurityException in arrival
    order. Unless there are none, raise irq and set three registers once:
    REG_STATUS to 1 (irq pending), REG_EXC_COUNT to the queue length, and
    REG_TAG_OUT to the last denial's tag bits."""
    if not exceptions:
        return
    queue = state.exceptions
    queue += exceptions
    state.irq = True
    registers = state.registers
    registers[REG_STATUS] = 1
    registers[REG_EXC_COUNT] = len(queue)
    registers[REG_TAG_OUT] = exceptions[-1].tag_bits & _WORD_MASK


def reg_read(state: MonitorState, addr: int) -> int:
    if addr not in _ADDRESSES:
        raise BadAddress(f"no register at address {addr}")
    return state.registers[addr]


def reg_write(state: MonitorState, addr: int, word: int) -> None:
    """Write a register. REG_STATUS with bit 0 set clears irq and empties
    the queue; REG_TAG_IN stores the word; the other two are read-only."""
    if addr not in _ADDRESSES:
        raise BadAddress(f"no register at address {addr}")
    word &= _WORD_MASK
    if addr == REG_STATUS:
        if word & 1:
            state.exceptions.clear()
            state.irq = False
            _sync_registers(state)
    elif addr == REG_TAG_IN:
        state.registers[REG_TAG_IN] = word
    # REG_EXC_COUNT and REG_TAG_OUT are monitor-owned; writes are ignored.


def drain_exceptions(state: MonitorState) -> list[SecurityException]:
    """Return and remove all queued exceptions in arrival order; clears irq."""
    drained = list(state.exceptions)
    state.exceptions.clear()
    state.irq = False
    _sync_registers(state)
    return drained
