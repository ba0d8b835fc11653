import json
import random

import pytest

from diftsim import (
    REG_EXC_COUNT,
    REG_STATUS,
    REG_TAG_IN,
    REG_TAG_OUT,
    BadAddress,
    DiftConfig,
    FineGrained,
    InvalidType,
    MonitorState,
    Policy,
    PolicyKind,
    PropagationRule,
    RunInputs,
    drain_exceptions,
    reg_read,
    reg_write,
    run_dift,
)
from diftsim.policy_monitor import SecurityException, checkpoint, record
from conftest import load_inputs

UNION_CFG = lambda tw: DiftConfig(tw, FineGrained(PropagationRule.UNION))
DENY_ANY = Policy("deny_any", PolicyKind.DENY_IF_ANY)


def test_checkpoint_judges_each_policy_kind():
    masked = Policy("m", PolicyKind.DENY_IF_MASK, mask=0b01)
    allow_all = Policy("a", PolicyKind.ALLOW_ALL)
    for policy, tag_bits, denies in (
        (DENY_ANY, 0, False),
        (DENY_ANY, 0b10, True),
        (masked, 0b10, False),
        (masked, 0b11, True),
        (allow_all, 0, False),
        (allow_all, 0b11, False),
    ):
        state = MonitorState()
        exc = checkpoint(state, "cp0", "n0", policy, tag_bits, 3)
        assert exc == (SecurityException("cp0", "n0", tag_bits, 3, policy.name) if denies else None)
        assert state.irq is denies
        assert state.exceptions == ([exc] if denies else [])
        assert [reg_read(state, a) for a in (REG_STATUS, REG_EXC_COUNT)] == [int(denies)] * 2
        if denies:
            assert reg_read(state, REG_TAG_OUT) == tag_bits


def test_two_denying_checkpoints_queue_in_run_order(overflow_demo):
    # Both idx and val tainted: cp_addr fires at step 1, cp_enc at step 4.
    inputs = load_inputs("overflow_tainted.json")
    inputs = inputs._replace(tags={"idx": 1, "val": 2})
    rep = run_dift(overflow_demo, inputs, UNION_CFG(2))
    assert [(e.checkpoint_id, e.step) for e in rep.exceptions] == [("cp_addr", 1), ("cp_enc", 4)]


def test_one_monitor_serves_runs_of_different_kernels(overflow_demo, fir4):
    # The monitor holds no policies of its own, so one state can watch a
    # tainted overflow_demo run and then a fir4 run; both runs' exceptions
    # queue in run order.
    monitor = MonitorState()
    first = run_dift(overflow_demo, load_inputs("overflow_tainted.json"), UNION_CFG(2), monitor)
    assert [e.checkpoint_id for e in first.exceptions] == ["cp_addr"]
    assert reg_read(monitor, REG_EXC_COUNT) == 1
    assert reg_read(monitor, REG_TAG_OUT) == first.exceptions[0].tag_bits
    # x1's default tag 0b0010 reaches y, which mask_label1 (mask 0b0010) denies.
    second = run_dift(fir4, load_inputs("fir4_inputs.json"), UNION_CFG(4), monitor)
    assert second.exceptions[:1] == first.exceptions
    fir_excs = second.exceptions[1:]
    assert [(e.checkpoint_id, e.policy_name) for e in fir_excs] == [("cp_y", "mask_label1")]
    assert monitor.exceptions == list(second.exceptions)
    assert second.irq is True
    assert reg_read(monitor, REG_EXC_COUNT) == 2
    assert reg_read(monitor, REG_TAG_OUT) == fir_excs[0].tag_bits == 0b0010


def monitor_state(state):
    return (list(state.exceptions), state.irq, [reg_read(state, a) for a in range(4)])


@pytest.mark.parametrize("preloaded", [False, True])
def test_record_is_one_transition_for_its_checkpoints(preloaded):
    # Recording n denials at once leaves the queue, irq and all four
    # registers as n checkpoint calls leave them; an empty batch, like no
    # call, leaves the registers untouched.
    def new_state():
        state = MonitorState()
        reg_write(state, REG_TAG_IN, 0x5A)
        if preloaded:
            checkpoint(state, "cp_old", "n_old", DENY_ANY, 0b100, 2)
        return state

    rng = random.Random(11)
    for n in range(5):
        batch = [
            SecurityException(f"cp{i}", f"n{i}", rng.randrange(1, 1 << 40), i, DENY_ANY.name)
            for i in range(n)
        ]
        one_by_one, at_once = new_state(), new_state()
        before = monitor_state(at_once)
        for e in batch:
            assert checkpoint(one_by_one, e.checkpoint_id, e.node_id, DENY_ANY, e.tag_bits, e.step) == e
        record(at_once, batch)
        assert monitor_state(at_once) == monitor_state(one_by_one)
        if not batch:
            assert monitor_state(at_once) == before
        else:
            assert reg_read(at_once, REG_TAG_OUT) == batch[-1].tag_bits & 0xFFFFFFFF
            assert reg_read(at_once, REG_EXC_COUNT) == n + preloaded
        assert reg_read(at_once, REG_TAG_IN) == 0x5A


def test_register_clear_semantics():
    state = MonitorState()
    checkpoint(state, "cp0", "n0", DENY_ANY, 0b1, 1)
    assert reg_read(state, REG_EXC_COUNT) == 1
    reg_write(state, REG_STATUS, 1)
    assert reg_read(state, REG_STATUS) == 0
    assert reg_read(state, REG_EXC_COUNT) == 0
    assert state.exceptions == []
    assert state.irq is False


def test_register_tag_in_and_read_only_words():
    state = MonitorState()
    reg_write(state, REG_TAG_IN, 0xABC)
    assert reg_read(state, REG_TAG_IN) == 0xABC
    reg_write(state, REG_EXC_COUNT, 99)
    assert reg_read(state, REG_EXC_COUNT) == 0
    reg_write(state, REG_TAG_OUT, 99)
    assert reg_read(state, REG_TAG_OUT) == 0
    # writing STATUS without bit 0 is a no-op
    checkpoint(state, "cp0", "n0", DENY_ANY, 0b1, 1)
    reg_write(state, REG_STATUS, 2)
    assert reg_read(state, REG_EXC_COUNT) == 1


def test_bad_register_address():
    state = MonitorState()
    with pytest.raises(BadAddress):
        reg_read(state, 4)
    with pytest.raises(BadAddress):
        reg_write(state, -1, 0)
    # Only an int other than a bool is an address: True is not REG_EXC_COUNT,
    # nor 2.0 REG_TAG_IN, and 1.0 is no tuple index.
    for addr in (True, False, 1.0, 2.0, "2", None):
        with pytest.raises(BadAddress):
            reg_read(state, addr)
        with pytest.raises(BadAddress):
            reg_write(state, addr, 5)
    for word in (1.5, 5.0, True, "5", None):
        with pytest.raises(InvalidType):
            reg_write(state, REG_TAG_IN, word)
    with pytest.raises(InvalidType):
        reg_write(state, REG_STATUS, 1.5)
    assert (state.tag_in, state.exceptions) == (0, [])


def test_drain_exceptions_order():
    state = MonitorState()
    assert drain_exceptions(state) == []
    for i, cp in enumerate(("cp0", "cp1", "cp2")):
        checkpoint(state, cp, f"n{i}", DENY_ANY, 0b1, i + 1)
    drained = drain_exceptions(state)
    assert [e.checkpoint_id for e in drained] == ["cp0", "cp1", "cp2"]
    assert state.exceptions == []
    assert state.irq is False
    assert reg_read(state, REG_EXC_COUNT) == 0


def test_monitor_keeps_denies_of_a_run_that_then_traps():
    # cp_a denies at step 0 and cp_n at step 1; q then divides by zero.
    # The caller's monitor holds both denies, as queued before the trap.
    from diftsim import DivisionByZero, parse_kernel

    doc = {
        "name": "deny_then_trap",
        "tag_width": 3,
        "inputs": [{"id": "a", "width": 4}, {"id": "b", "width": 4}],
        "nodes": [
            {"id": "n", "op": "add", "args": ["a", "b"], "width": 4},
            {"id": "q", "op": "div", "args": ["a", "b"], "width": 4},
        ],
        "policies": [{"name": "any", "kind": "deny_if_any"}],
        "checkpoints": [
            {"id": "cp_a", "arg": "a", "policy": "any"},
            {"id": "cp_n", "arg": "n", "policy": "any"},
        ],
        "outputs": [{"id": "out", "source": "q"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    monitor = MonitorState()
    ri = RunInputs(values={"a": 3, "b": 0}, tags={"a": 0b001, "b": 0b100})
    with pytest.raises(DivisionByZero):
        run_dift(kernel, ri, UNION_CFG(3), monitor)
    first, second = monitor.exceptions
    assert first.checkpoint_id == "cp_a"
    assert first.node_id == "a"
    assert first.tag_bits == 0b001
    assert first.step == 0
    assert first.policy_name == "any"
    assert (second.checkpoint_id, second.node_id, second.tag_bits, second.step) == (
        "cp_n",
        "n",
        0b101,
        1,
    )
    assert monitor.irq is True
    assert reg_read(monitor, REG_STATUS) == 1
    assert reg_read(monitor, REG_EXC_COUNT) == 2
    assert reg_read(monitor, REG_TAG_OUT) == 0b101
