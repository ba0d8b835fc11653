import gc
import itertools
import json
import random

import pytest

import diftsim.taint
from conftest import drop_dead_traps, fold_watched_nodes, load_inputs, load_kernel
from diftsim import (
    BINARY_OPS,
    ArityMismatch,
    COMPARE_OPS,
    BitType,
    BitValue,
    CoarseBoundary,
    DiftConfig,
    DiftError,
    DiftValue,
    DivisionByZero,
    EvalError,
    FineGrained,
    MonitorState,
    OpKind,
    OutOfBoundsAddress,
    PropagationRule,
    REG_TAG_IN,
    RunInputs,
    SimulationReport,
    Tag,
    WidthTooLarge,
    check_consistency,
    fuzz_properties,
    independence_oracle,
    parse_inputs,
    propagate,
    reg_read,
    reg_write,
    run_baseline,
    run_dift,
    sample_inputs,
)
from diftsim.simulator import _zero_tag_kernel
from test_bitvalue import ref_binop, ref_to_int, ref_wrap

U4 = BitType(4)
S4 = BitType(4, signed=True)
U8 = BitType(8)

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE


def fine(tag_width, rule=UNION, on_exception="record"):
    return DiftConfig(tag_width, FineGrained(rule), on_exception)


def coarse(tag_width):
    return DiftConfig(tag_width, CoarseBoundary())


def tiny_add_kernel():
    from diftsim import parse_kernel

    doc = {
        "name": "tiny",
        "tag_width": 2,
        "inputs": [
            {"id": "a", "width": 4, "signed": False},
            {"id": "b", "width": 4, "signed": False},
        ],
        "nodes": [{"id": "sum", "op": "add", "args": ["a", "b"], "width": 4, "signed": False}],
        "outputs": [{"id": "out", "source": "sum"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def mem_kernel(addr_tagged_load=False, size=4):
    from diftsim import parse_kernel

    doc = {
        "name": "memdemo",
        "tag_width": 2,
        "inputs": [
            {"id": "addr", "width": 2, "signed": False},
            {"id": "v", "width": 8, "signed": False},
        ],
        "constants": [{"id": "two", "width": 2, "signed": False, "value": 2}],
        "memories": [{"id": "m", "size": size, "width": 8, "signed": False}],
        "nodes": [
            {"id": "st", "op": "store", "args": ["m", "addr", "v"]},
            {
                "id": "ld",
                "op": "load",
                "args": ["m", "addr" if addr_tagged_load else "two"],
                "width": 8,
                "signed": False,
            },
        ],
        "outputs": [{"id": "out", "source": "ld"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def op_kernel(op, operand_types, result_ty, tag_width=4):
    """One node applying op to inputs x0, x1, ... of the given types."""
    from diftsim import parse_kernel

    args = [f"x{i}" for i in range(len(operand_types))]
    doc = {
        "name": op,
        "tag_width": tag_width,
        "inputs": [
            {"id": a, "width": t.width, "signed": t.signed} for a, t in zip(args, operand_types)
        ],
        "nodes": [
            {
                "id": "n",
                "op": op,
                "args": args,
                "width": result_ty.width,
                "signed": result_ty.signed,
            }
        ],
        "outputs": [{"id": "out", "source": "n"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def test_mux_and_unary_result_widths_against_reference():
    # Independent reference: decode by the operand's own signedness, then
    # wrap into the result width; not complements within the operand width.
    def signed_value(bits, ty):
        return bits - (1 << ty.width) if ty.signed and bits >> (ty.width - 1) else bits

    types = [BitType(w, s) for w in range(1, 4) for s in (False, True)]
    for a_ty, r_ty in itertools.product(types, types):
        if a_ty.width == r_ty.width:
            continue
        wrap = (1 << r_ty.width) - 1
        for op, ref in (
            ("not", lambda a: ~a & ((1 << a_ty.width) - 1)),
            ("neg", lambda a: -signed_value(a, a_ty)),
        ):
            kernel = op_kernel(op, [a_ty], r_ty)
            for a in range(1 << a_ty.width):
                got = run_baseline(kernel, RunInputs(values={"x0": a}))
                assert got == {"out": ref(a) & wrap}, (op, a, a_ty, r_ty)
        kernel = op_kernel("mux", [BitType(1), a_ty, a_ty], r_ty)
        for sel, t, f in itertools.product((0, 1), range(1 << a_ty.width), range(1 << a_ty.width)):
            got = run_baseline(kernel, RunInputs(values={"x0": sel, "x1": t, "x2": f}))
            assert got == {"out": signed_value(t if sel else f, a_ty) & wrap}
    # The selected s4 value -6 sign-extends into u8.
    kernel = op_kernel("mux", [BitType(1), S4, S4], U8)
    assert run_baseline(kernel, RunInputs(values={"x0": 1, "x1": 10, "x2": 0})) == {"out": 250}


def test_unary_tag_passthrough():
    for op, a_ty, r_ty, value, expected in (
        ("not", U4, U4, 0b0101, 0b1010),
        ("neg", S4, S4, 3, 13),
        ("not", U4, U8, 0b0101, 0b1010),
        ("neg", S4, U8, 3, 253),
    ):
        kernel = op_kernel(op, [a_ty], r_ty)
        for rule in (UNION, PRECISE):
            for tag in (0, 0b10):
                ri = RunInputs(values={"x0": value}, tags={"x0": tag})
                assert run_dift(kernel, ri, fine(4, rule)).outputs == {"out": (expected, tag)}


def test_mux_tag_rules():
    kernel = op_kernel("mux", [BitType(1), U4, U4], U4)
    ri = RunInputs(values={"x0": 1, "x1": 7, "x2": 2}, tags={"x0": 0b1, "x1": 0, "x2": 0b10})
    # precise: selector and the chosen branch only; union: all three
    assert run_dift(kernel, ri, fine(4, PRECISE)).outputs == {"out": (7, 0b1)}
    assert run_dift(kernel, ri, fine(4, UNION)).outputs == {"out": (7, 0b11)}
    quiet = RunInputs(values={"x0": 0, "x1": 7, "x2": 2}, tags={"x1": 0b10})
    assert run_dift(kernel, quiet, fine(4, PRECISE)).outputs == {"out": (2, 0)}


def test_precise_or_kill_judged_at_result_type():
    # A u4 constant 15 is all ones in u4 but not in the u8 result: OR with a
    # tainted u8 keeps the taint, since the result still depends on it.
    from diftsim import parse_kernel

    doc = {
        "name": "or_widths",
        "tag_width": 2,
        "inputs": [{"id": "x", "width": 8, "signed": False}],
        "constants": [{"id": "c", "width": 4, "signed": False, "value": 15}],
        "nodes": [{"id": "n", "op": "or", "args": ["c", "x"], "width": 8, "signed": False}],
        "outputs": [{"id": "out", "source": "n"}],
    }
    kernel, _ = parse_kernel(json.dumps(doc))
    ri = RunInputs(values={"x": 0x30}, tags={"x": 0b1})
    assert run_dift(kernel, ri, fine(2, PRECISE)).outputs == {"out": (63, 0b1)}
    # The same constant as s4 is -1, all ones in every width: the kill holds.
    doc["constants"][0]["signed"] = True
    kernel, _ = parse_kernel(json.dumps(doc))
    assert run_dift(kernel, ri, fine(2, PRECISE)).outputs == {"out": (255, 0)}
    u2, u4 = BitType(2), BitType(4)
    assert independence_oracle(OpKind.OR, [u2, u4], {1}, {0: 3}, result_ty=u4) is False
    ops = [(BitValue(u2, 3), Tag(2, 0)), (BitValue(u4, 9), Tag(2, 0b1))]
    assert propagate(PRECISE, OpKind.OR, ops, u4) == Tag(2, 0b1)


def test_run_baseline_add():
    kernel = tiny_add_kernel()
    got = run_baseline(kernel, RunInputs(values={"a": 9, "b": 12}))
    assert got == {"out": 5}


def test_run_baseline_fir4_committed_vector(fir4):
    inputs = load_inputs("fir4_inputs.json")
    # 10*2 + (-5)*(-3) + 3*4 + 7*1 = 54, by hand
    assert run_baseline(fir4, inputs) == {"y_out": 54}


def test_missing_input_defaults_to_zero_with_warning():
    kernel = tiny_add_kernel()
    diags = []
    got = run_baseline(kernel, RunInputs(values={"a": 3}), diags)
    assert got == {"out": 3}
    assert any(d.severity == "warning" and d.location == "b" for d in diags)


def test_out_of_bounds_store_names_node_and_step():
    kernel = mem_kernel(size=3)  # addresses go up to 3, memory stops at 2
    with pytest.raises(OutOfBoundsAddress) as exc_info:
        run_baseline(kernel, RunInputs(values={"addr": 3, "v": 1}))
    assert exc_info.value.node_id == "st"
    assert exc_info.value.step == 1
    with pytest.raises(OutOfBoundsAddress):
        run_dift(kernel, RunInputs(values={"addr": 3, "v": 1}), fine(2))


def test_memory_override_too_long_rejected():
    # Bad input, found before any node runs: a DiftError, not a trap.
    kernel = mem_kernel()
    ri = RunInputs(values={"addr": 0, "v": 1}, memory={"m": [0] * 5})
    for run in (lambda: run_baseline(kernel, ri), lambda: run_dift(kernel, ri, fine(2))):
        with pytest.raises(DiftError) as exc_info:
            run()
        assert not isinstance(exc_info.value, EvalError)
        assert str(exc_info.value) == "memory override for m has 5 cells, size is 4"
    full = RunInputs(values={"addr": 0, "v": 1}, memory={"m": [7] * 4})
    assert run_baseline(kernel, full) == {"out": 7}


def test_run_dift_union_tag_flows():
    kernel = tiny_add_kernel()
    rep = run_dift(kernel, RunInputs(values={"a": 9, "b": 12}, tags={"a": 0b1}), fine(2))
    assert rep.outputs == {"out": (5, 0b1)}
    assert rep.exceptions == ()
    assert rep.irq is False


def test_store_load_tag_rules():
    # Tainted address, untainted value: union keeps the address taint in the
    # cell, precise stores only the value tag; the load then joins the
    # (untainted) constant address.
    kernel = mem_kernel()
    ri = RunInputs(values={"addr": 2, "v": 9}, tags={"addr": 0b1, "v": 0})
    union_rep = run_dift(kernel, ri, fine(2, UNION))
    precise_rep = run_dift(kernel, ri, fine(2, PRECISE))
    assert union_rep.outputs == {"out": (9, 0b1)}
    assert precise_rep.outputs == {"out": (9, 0)}
    # Tainted address on the load side joins under both rules.
    kernel2 = mem_kernel(addr_tagged_load=True)
    for rule in (UNION, PRECISE):
        rep = run_dift(kernel2, ri, fine(2, rule))
        assert rep.outputs["out"][1] & 0b1


@pytest.mark.parametrize("addr_tagged_load", [False, True])
def test_a_load_after_a_tainted_store_carries_its_tag(addr_tagged_load):
    kernel = mem_kernel(addr_tagged_load)
    ri = RunInputs(values={"addr": 2, "v": 9}, tags={"v": 0b01, "addr": 0b10})
    # The loaded cell carries the store's union tag: value | address.
    assert run_dift(kernel, ri, fine(2, UNION)).outputs["out"] == (9, 0b11)


def test_overflow_demo_hand_trace(overflow_demo):
    tainted = load_inputs("overflow_tainted.json")
    rep = run_dift(overflow_demo, tainted, fine(2))
    assert rep.outputs == {"stored": (93, 0), "slot": (4, 1)}
    assert len(rep.exceptions) == 1
    exc = rep.exceptions[0]
    assert (exc.checkpoint_id, exc.node_id, exc.tag_bits, exc.step) == ("cp_addr", "off", 1, 1)
    assert rep.irq is True

    clean = load_inputs("overflow_clean.json")
    rep = run_dift(overflow_demo, clean, fine(2))
    assert rep.exceptions == () and rep.irq is False


def test_dot8_rule_difference(dot8):
    inputs = load_inputs("dot8_inputs.json")
    union_rep = run_dift(dot8, inputs, fine(2, UNION))
    precise_rep = run_dift(dot8, inputs, fine(2, PRECISE))
    # vb[3] is 0 and untainted, so the precise rule kills va[3]'s taint.
    assert union_rep.outputs == {"out": (137, 1)}
    assert precise_rep.outputs == {"out": (137, 0)}
    assert len(union_rep.exceptions) == 1
    assert precise_rep.exceptions == ()


def test_coarse_mode_boundary_tags(fir4):
    inputs = load_inputs("fir4_inputs.json")
    rep = run_dift(fir4, inputs, coarse(4))
    expected = 0
    for inp in fir4.inputs:
        expected |= inputs.tags.get(inp.id, inp.default_tag)
    for m in fir4.memories:
        for t in m.init_tags:
            expected |= t
    assert expected != 0
    assert rep.outputs["y_out"] == (54, expected)
    assert rep.mode == "coarse" and rep.rule is None
    assert rep.checkpoint_tags == (("cp_y", expected),)


def test_step_zero_checkpoint_on_input():
    from diftsim import parse_kernel

    doc = {
        "name": "watch_input",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 4, "signed": False}],
        "policies": [{"name": "any", "kind": "deny_if_any"}],
        "checkpoints": [{"id": "cp_a", "arg": "a", "policy": "any"}],
        "outputs": [{"id": "out", "source": "a"}],
    }
    kernel, _ = parse_kernel(json.dumps(doc))
    rep = run_dift(kernel, RunInputs(values={"a": 1}, tags={"a": 1}), fine(2))
    assert [(e.checkpoint_id, e.step) for e in rep.exceptions] == [("cp_a", 0)]


def test_reg_tag_in_overrides_default_tags(fir4):
    inputs = load_inputs("fir4_inputs.json")
    monitor = MonitorState()
    reg_write(monitor, REG_TAG_IN, 0b0100)
    rep = run_dift(fir4, inputs, fine(4), monitor=monitor)
    # every input tag becomes 0b0100; the masked policy (mask 0b0010) allows
    assert rep.outputs["y_out"][1] == 0b0100
    assert rep.exceptions == ()


def test_report_json_schema(overflow_demo):
    rep = run_dift(overflow_demo, load_inputs("overflow_tainted.json"), fine(2))
    doc = json.loads(rep.to_json())
    assert list(doc) == ["outputs", "exceptions", "irq", "steps", "mode", "rule"]
    assert doc["exceptions"][0] == {
        "checkpoint": "cp_addr",
        "node": "off",
        "tag": 1,
        "step": 1,
        "policy": "no_tainted_addr",
    }
    assert doc["mode"] == "fine" and doc["rule"] == "union"


def test_parse_inputs_rejects_unknown_keys():
    inputs, diags = parse_inputs('{"values": {}, "bogus": 1}')
    assert inputs is None and any("bogus" in d.message for d in diags)
    inputs, diags = parse_inputs('{"values": {"a": "x"}}')
    assert inputs is None
    inputs, diags = parse_inputs("{nope")
    assert inputs is None and diags[0].location.startswith("line ")


def test_check_consistency_fixtures(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        for cfg in (fine(kernel.tag_width), fine(kernel.tag_width, PRECISE), coarse(kernel.tag_width)):
            report = check_consistency(kernel, cfg, samples=100, seed=1)
            assert report.ok, report.mismatches[:3]


def test_check_consistency_deterministic(fir4):
    a = check_consistency(fir4, fine(4), samples=50, seed=9)
    b = check_consistency(fir4, fine(4), samples=50, seed=9)
    assert a == b


def test_independence_oracle():
    u4 = BitType(4)
    assert independence_oracle(OpKind.AND, [u4, u4], {0}, {1: 0}) is True
    assert independence_oracle(OpKind.ADD, [u4, u4], {0}, {1: 3}) is False
    assert independence_oracle(OpKind.OR, [u4, u4], {0}, {1: 15}) is True
    assert independence_oracle(OpKind.MUL, [u4, u4], {1}, {0: 0}) is True
    with pytest.raises(WidthTooLarge):
        independence_oracle(OpKind.ADD, [BitType(7), BitType(7)], {0}, {1: 3})
    with pytest.raises(ArityMismatch, match="add takes 2 operand types"):
        independence_oracle(OpKind.ADD, [u4], {0}, {})
    with pytest.raises(ArityMismatch, match="must cover all operands"):
        independence_oracle(OpKind.ADD, [u4, u4], {0}, {})


def test_fuzz_properties_pass_on_fixtures(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        report = fuzz_properties(kernel, trials=100, seed=2)
        assert report.ok, report.counterexamples[:3]


def test_fuzz_reproducible(fir4):
    assert fuzz_properties(fir4, 50, seed=4) == fuzz_properties(fir4, 50, seed=4)


def test_mutant_rule_caught_by_monotonicity(monkeypatch):
    # A broken tag rule that drops joint label bits (xor instead of or)
    # must be flagged by the union-rule monotonicity property.
    def xor_tag_fn(rule, kind, types, result_ty):
        return lambda x, y, z, tx, ty, tz: tx ^ ty  # fir4's nodes are all binary

    monkeypatch.setattr(diftsim.taint, "tag_fn", xor_tag_fn)
    # Parsed here, not the session fixture, whose plan may already exist.
    fir4 = load_kernel("fir4.json")
    report = fuzz_properties(fir4, trials=200, seed=5)
    assert any(c.property == "monotonicity" for c in report.counterexamples)


def test_halted_run_reports_no_outputs(overflow_demo):
    rep = run_dift(
        overflow_demo,
        load_inputs("overflow_tainted.json"),
        fine(2, on_exception="halt"),
    )
    assert rep.halted and rep.outputs == {} and rep.steps_executed == 1


SWEEP_TYPES = [BitType(w, s) for w in range(1, 4) for s in (False, True)]


def sweep_kernel(op, operand_types, result_types):
    """Inputs x0, x1, ... of the operand types and one node rj = op(x0, ...)
    per result type, each read by its output oj."""
    from diftsim import parse_kernel

    args = [f"x{i}" for i in range(len(operand_types))]
    doc = {
        "name": f"sweep_{op}",
        "tag_width": 4,
        "inputs": [
            {"id": a, "width": t.width, "signed": t.signed} for a, t in zip(args, operand_types)
        ],
        "nodes": [
            {"id": f"r{j}", "op": op, "args": args, "width": r.width, "signed": r.signed}
            for j, r in enumerate(result_types)
        ],
        "outputs": [{"id": f"o{j}", "source": f"r{j}"} for j in range(len(result_types))],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def sweep_through_walk(kind, operand_types, ref):
    """Every operand value: run_baseline against ref(values, result type);
    union tags the OR of the operand tags; every precise kill confirmed by
    independence_oracle. Returns the number of kills seen."""
    result_types = [BitType(1)] if kind in COMPARE_OPS else SWEEP_TYPES
    kernel = sweep_kernel(kind.value, operand_types, result_types)
    args = [f"x{i}" for i in range(len(operand_types))]
    all_tags = (1 << len(args)) - 1
    kills = 0
    for values in itertools.product(*(range(1 << t.width) for t in operand_types)):
        vals = dict(zip(args, values))
        try:
            want = {f"o{j}": ref(values, r) for j, r in enumerate(result_types)}
        except ZeroDivisionError:
            with pytest.raises(DivisionByZero):
                run_baseline(kernel, RunInputs(values=vals))
            continue
        assert run_baseline(kernel, RunInputs(values=vals)) == want, (kind, operand_types, values)
        tags = {a: 1 << i for i, a in enumerate(args)}
        rep = run_dift(kernel, RunInputs(vals, tags), fine(4, UNION))
        assert rep.outputs == {r: (v, all_tags) for r, v in want.items()}
        for pos, a in enumerate(args):
            rep = run_dift(kernel, RunInputs(vals, {a: 1}), fine(4, PRECISE))
            for j, r_ty in enumerate(result_types):
                value, tag = rep.outputs[f"o{j}"]
                assert value == want[f"o{j}"] and tag in (0, 1)
                if tag == 0:
                    kills += 1
                    fixed = {p: v for p, v in enumerate(values) if p != pos}
                    assert independence_oracle(kind, operand_types, {pos}, fixed, r_ty), (
                        kind, operand_types, r_ty, pos, values
                    )
    return kills


def test_every_value_opcode_through_the_walk():
    # One kernel per opcode and operand types, with one node per result
    # type: the specialised value and tag functions of every signature run
    # through run_baseline and run_dift, against the test-local references.
    kills = 0
    for kind in sorted(BINARY_OPS, key=lambda k: k.value):
        for a_ty, b_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):

            def ref(values, r_ty, kind=kind, a_ty=a_ty, b_ty=b_ty):
                return ref_binop(kind, values[0], a_ty, values[1], b_ty, r_ty)

            kills += sweep_through_walk(kind, [a_ty, b_ty], ref)
    for a_ty in SWEEP_TYPES:
        kills += sweep_through_walk(
            OpKind.NOT, [a_ty], lambda v, r, a_ty=a_ty: ref_wrap(~v[0] & a_ty.mask, r.width)
        )
        kills += sweep_through_walk(
            OpKind.NEG,
            [a_ty],
            lambda v, r, a_ty=a_ty: ref_wrap(-ref_to_int(v[0], a_ty.width, a_ty.signed), r.width),
        )
    for t_ty, f_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):

        def mux_ref(v, r, t_ty=t_ty, f_ty=f_ty):
            bits, ty = (v[1], t_ty) if v[0] else (v[2], f_ty)
            return ref_wrap(ref_to_int(bits, ty.width, ty.signed), r.width)

        kills += sweep_through_walk(OpKind.MUX, [BitType(1), t_ty, f_ty], mux_ref)
    assert kills > 0


def test_memory_opcodes_through_the_walk():
    # load and store for every address and data type of widths 1..3,
    # against a local reference: the address decodes by its own signedness
    # and must lie in [0, 3); a store wraps the data into the u2 cell.
    from diftsim import parse_kernel

    init, init_tags = [1, 2, 3], [4, 0, 8]
    for a_ty, d_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):
        doc = {
            "name": "memsweep",
            "tag_width": 4,
            "inputs": [
                {"id": "a", "width": a_ty.width, "signed": a_ty.signed},
                {"id": "d", "width": d_ty.width, "signed": d_ty.signed},
            ],
            "constants": [{"id": "zero", "width": 1, "value": 0}],
            "memories": [
                {"id": "m", "size": 3, "width": 2, "init": init, "init_tags": init_tags}
            ],
            "nodes": [
                {"id": "ld", "op": "load", "args": ["m", "a"], "width": 2},
                {"id": "st", "op": "store", "args": ["m", "a", "d"]},
                {"id": "ld0", "op": "load", "args": ["m", "zero"], "width": 2},
            ],
            "outputs": [{"id": "before", "source": "ld"}, {"id": "cell0", "source": "ld0"}],
        }
        kernel, diags = parse_kernel(json.dumps(doc))
        assert kernel is not None, diags
        for a, d in itertools.product(range(1 << a_ty.width), range(1 << d_ty.width)):
            ri = RunInputs({"a": a, "d": d}, {"a": 1, "d": 2})
            i = ref_to_int(a, a_ty.width, a_ty.signed)
            if not 0 <= i < 3:
                for run in (
                    lambda: run_baseline(kernel, ri),
                    lambda: run_dift(kernel, ri, fine(4, UNION)),
                    lambda: run_dift(kernel, ri, fine(4, PRECISE)),
                ):
                    with pytest.raises(OutOfBoundsAddress) as e:
                        run()
                    assert (e.value.node_id, e.value.step) == ("ld", 1)
                    assert str(e.value) == f"address {i} outside m[0..3) (node ld, step 1)"
                continue
            stored = ref_wrap(ref_to_int(d, d_ty.width, d_ty.signed), 2)
            cell0 = stored if i == 0 else init[0]
            assert run_baseline(kernel, ri) == {"before": init[i], "cell0": cell0}
            union = run_dift(kernel, ri, fine(4, UNION)).outputs
            precise = run_dift(kernel, ri, fine(4, PRECISE)).outputs
            # load: address tag | cell tag; store: the cell's tag becomes
            # address | data under union, data alone under precise.
            assert union["before"] == precise["before"] == (init[i], 1 | init_tags[i])
            assert union["cell0"] == (cell0, 0b11 if i == 0 else init_tags[0])
            assert precise["cell0"] == (cell0, 0b10 if i == 0 else init_tags[0])


def trap_kernel():
    """load (step 1), div (2), mod (3), store (4); inputs pick which traps."""
    from diftsim import parse_kernel

    doc = {
        "name": "traps",
        "tag_width": 2,
        "inputs": [
            {"id": "la", "width": 4},
            {"id": "a", "width": 4},
            {"id": "b", "width": 4},
            {"id": "c", "width": 4},
            {"id": "sa", "width": 4, "signed": True},
        ],
        "memories": [{"id": "m", "size": 4, "width": 8}],
        "policies": [{"name": "any", "kind": "deny_if_any"}],
        "nodes": [
            {"id": "ld", "op": "load", "args": ["m", "la"], "width": 8},
            {"id": "q", "op": "div", "args": ["a", "b"], "width": 4},
            {"id": "r", "op": "mod", "args": ["a", "c"], "width": 4},
            {"id": "st", "op": "store", "args": ["m", "sa", "ld"]},
        ],
        "checkpoints": [{"id": "cp_q", "arg": "q", "policy": "any"}],
        "outputs": [{"id": "out", "source": "r"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


@pytest.mark.parametrize(
    "values, exc_type, node, step, message",
    [
        ({"la": 5}, OutOfBoundsAddress, "ld", 1, "address 5 outside m[0..4) (node ld, step 1)"),
        ({"b": 0}, DivisionByZero, "q", 2, "division by zero (node q, step 2)"),
        ({"c": 0}, DivisionByZero, "r", 3, "modulo by zero (node r, step 3)"),
        ({"sa": 15}, OutOfBoundsAddress, "st", 4, "address -1 outside m[0..4) (node st, step 4)"),
    ],
)
def test_traps_name_their_node_step_and_message(values, exc_type, node, step, message):
    kernel = trap_kernel()
    ri = RunInputs(values={"la": 1, "a": 7, "b": 2, "c": 3, "sa": 2, **values})
    runs = [lambda: run_baseline(kernel, ri)]
    for on_exception in ("record", "halt"):
        for cfg in (
            fine(2, UNION, on_exception),
            fine(2, PRECISE, on_exception),
            DiftConfig(2, CoarseBoundary(), on_exception),
        ):
            runs.append(lambda cfg=cfg: run_dift(kernel, ri, cfg))
    for run in runs:
        with pytest.raises(EvalError) as e:
            run()
        assert type(e.value) is exc_type
        assert (e.value.node_id, e.value.step, str(e.value)) == (node, step, message)


def test_halting_runs_walk_no_value_past_their_deny(monkeypatch):
    # q (step 2) is tainted and denied; r traps at step 3. A halting run
    # stops at q and never traps, as its value pass is walked only as far
    # as it replays: no step past 2 of the 4. A recording run reaches the trap.
    from diftsim import simulator

    walked = []
    execute = simulator._execute

    def recording_execute(k, vals, start=0, stop=None):
        walked.append((start, stop))
        return execute(k, vals, start, stop)

    monkeypatch.setattr(simulator, "_execute", recording_execute)
    kernel = trap_kernel()
    ri = RunInputs(values={"la": 1, "a": 7, "b": 2, "c": 0, "sa": 2}, tags={"a": 1})
    for cfg in (fine(2, UNION, "halt"), DiftConfig(2, CoarseBoundary(), "halt")):
        walked.clear()
        rep = run_dift(kernel, ri, cfg)
        assert rep.halted and rep.steps_executed == 2 and len(rep.exceptions) == 1
        assert walked and all(stop is not None and stop <= 2 for _, stop in walked), walked
    with pytest.raises(DivisionByZero):
        run_dift(kernel, ri, fine(2, UNION))


def garbage_left_by(run):
    """What gc.collect() frees after run, with the collector off while it
    runs: the objects that only reference cycles kept alive."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def trapped(run, *args):
    try:
        run(*args)
    except EvalError:
        return
    raise AssertionError("the run did not trap")


def test_a_trap_leaves_no_garbage():
    # A trap kept as an exception object in a run's value pass forms a cycle
    # through its traceback's frames, which holds the run's slot lists until
    # the cyclic collector runs.
    kernel = trap_kernel()
    ri = RunInputs(values={"a": 7, "b": 0}, tags={"a": 1})
    for cfg in five_configs(2):
        trapped(run_dift, kernel, ri, cfg)  # lowers the plan once, outside the count
        assert garbage_left_by(lambda: trapped(run_dift, kernel, ri, cfg)) == 0, cfg
    for cfg in five_configs(2):
        assert garbage_left_by(lambda: check_consistency(kernel, cfg, 20, 1)) == 0, cfg
    assert garbage_left_by(lambda: fuzz_properties(kernel, 20, 1)) == 0


def test_a_caught_trap_holds_no_run_state():
    # One load at an out-of-range address of a 65536-cell memory traps in
    # every mode. A caught exception whose traceback reached the run's
    # frames would keep its cell list (512 KB of slots) and, in a fine
    # run, its tag lists alive for as long as the caller holds it.
    import tracemalloc

    from diftsim import parse_kernel

    doc = {
        "name": "big_load",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 32}],
        "memories": [{"id": "m", "size": 65536, "width": 8}],
        "nodes": [{"id": "ld", "op": "load", "args": ["m", "a"], "width": 8}],
        "outputs": [{"id": "out", "source": "ld"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    ri = RunInputs(values={"a": 1 << 20}, tags={"a": 1})
    runs = [lambda: run_baseline(kernel, ri)]
    runs += [lambda cfg=cfg: run_dift(kernel, ri, cfg) for cfg in five_configs(2)]
    trapped(runs[0])  # lowers the plan once, outside the count
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        caught = []
        for run in runs:
            with pytest.raises(OutOfBoundsAddress) as info:
                run()
            caught.append(info.value)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert [str(e) for e in caught] == ["address 1048576 outside m[0..65536) (node ld, step 1)"] * 6
    assert held < 256 * 1024, held


def twin_memory_kernel():
    """Two memories of one size and cell type: each store and each load has
    the same operand and result types as its twin on the other memory."""
    from diftsim import parse_kernel

    doc = {
        "name": "twins",
        "tag_width": 2,
        "inputs": [
            {"id": a, "width": 4} for a in ("sa1", "sa2", "la1", "la2")
        ] + [{"id": "v", "width": 8}, {"id": "w", "width": 8}],
        "memories": [{"id": "m1", "size": 4, "width": 8}, {"id": "m2", "size": 4, "width": 8}],
        "nodes": [
            {"id": "s1", "op": "store", "args": ["m1", "sa1", "v"]},
            {"id": "s2", "op": "store", "args": ["m2", "sa2", "w"]},
            {"id": "l1", "op": "load", "args": ["m1", "la1"], "width": 8},
            {"id": "l2", "op": "load", "args": ["m2", "la2"], "width": 8},
        ],
        "outputs": [{"id": "o1", "source": "l1"}, {"id": "o2", "source": "l2"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def test_twin_memories_keep_their_own_cells_and_names():
    kernel = twin_memory_kernel()
    values = {"sa1": 1, "sa2": 1, "la1": 1, "la2": 1, "v": 5, "w": 9}
    ri = RunInputs(values=values, tags={"v": 0b01, "w": 0b10})
    assert run_baseline(kernel, ri) == {"o1": 5, "o2": 9}
    for rule in (UNION, PRECISE):
        assert run_dift(kernel, ri, fine(2, rule)).outputs == {"o1": (5, 0b01), "o2": (9, 0b10)}
    for bad, node, step, message in [
        ({"sa1": 5}, "s1", 1, "address 5 outside m1[0..4) (node s1, step 1)"),
        ({"sa2": 5}, "s2", 2, "address 5 outside m2[0..4) (node s2, step 2)"),
        ({"la1": 6}, "l1", 3, "address 6 outside m1[0..4) (node l1, step 3)"),
        ({"la2": 6}, "l2", 4, "address 6 outside m2[0..4) (node l2, step 4)"),
    ]:
        ri = RunInputs(values={**values, **bad})
        for run in (
            lambda: run_baseline(kernel, ri),
            lambda: run_dift(kernel, ri, fine(2, UNION)),
            lambda: run_dift(kernel, ri, coarse(2)),
        ):
            with pytest.raises(OutOfBoundsAddress) as e:
                run()
            assert (e.value.node_id, e.value.step, str(e.value)) == (node, step, message)


def test_equal_kernels_stay_equal_after_a_run():
    a, b = tiny_add_kernel(), tiny_add_kernel()
    assert run_baseline(a, RunInputs(values={"a": 1, "b": 2})) == {"out": 3}
    assert a == b and hash(a) == hash(b)
    assert a == a._replace(name=a.name)


def test_zero_tag_kernel_shares_the_plan_not_the_tags():
    # A plan holds no tags, so the zeroed copy runs the original's plan;
    # its memory's initial tags are gone: the load of a tagged cell stays
    # untainted there, and the original still sees the tag.
    from diftsim import parse_kernel

    doc = {
        "name": "tagged_cell",
        "tag_width": 2,
        "inputs": [{"id": "i", "width": 1}],
        "memories": [{"id": "m", "size": 2, "width": 4, "init": [5], "init_tags": [0b10]}],
        "nodes": [{"id": "ld", "op": "load", "args": ["m", "i"], "width": 4}],
        "outputs": [{"id": "out", "source": "ld"}],
    }
    kernel, _ = parse_kernel(json.dumps(doc))
    ri = RunInputs(values={"i": 0}, tags={"i": 0})
    assert run_dift(kernel, ri, fine(2)).outputs == {"out": (5, 0b10)}
    zeroed = _zero_tag_kernel(kernel)
    assert zeroed.plan is kernel.plan
    assert run_dift(zeroed, ri, fine(2)).outputs == {"out": (5, 0)}
    assert run_dift(kernel, ri, fine(2)).outputs == {"out": (5, 0b10)}


def test_fuzz_lowers_the_kernel_once(monkeypatch, dot8):
    # The zeroed kernel reuses the plan: one fuzz_properties call on a
    # kernel never run lowers it once, and on a kernel already lowered
    # not at all.
    from diftsim import kernel_ir

    lowered = []
    lower = kernel_ir.lower

    def counting_lower(k):
        lowered.append(k.name)
        return lower(k)

    monkeypatch.setattr(kernel_ir, "lower", counting_lower)
    fresh = dot8._replace(name="fresh")  # a new instance, with no cached plan
    assert fuzz_properties(fresh, trials=3, seed=0).ok
    assert lowered == ["fresh"]
    assert fuzz_properties(fresh, trials=3, seed=1).ok
    assert lowered == ["fresh"]


def test_runs_build_no_values_tags_or_tagged_values(monkeypatch):
    # Runs work on int slots and hand the monitor tag bits: once a kernel
    # is parsed, lowering it and running it in every mode builds no
    # BitValue, Tag or DiftValue.
    runs = [
        (load_kernel(f"{name}.json"), load_inputs(inputs))
        for name, inputs in (
            ("fir4", "fir4_inputs.json"),
            ("dot8", "dot8_inputs.json"),
            ("overflow_demo", "overflow_tainted.json"),
        )
    ]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built during a run")

    for cls in (BitValue, Tag, DiftValue):
        monkeypatch.setattr(cls, "__init__", refuse)
    for kernel, ri in runs:
        tw = kernel.tag_width
        run_baseline(kernel, ri)
        for on_exception in ("record", "halt"):
            for cfg in (
                fine(tw, UNION, on_exception),
                fine(tw, PRECISE, on_exception),
                DiftConfig(tw, CoarseBoundary(), on_exception),
            ):
                run_dift(kernel, ri, cfg)


def cells_kernel():
    """A six-cell u4 memory with a two-cell init; every cell is loaded."""
    from diftsim import parse_kernel

    doc = {
        "name": "cells",
        "tag_width": 2,
        "memories": [{"id": "m", "size": 6, "width": 4, "init": [9, 10]}],
        "constants": [{"id": f"a{i}", "width": 3, "value": i} for i in range(6)],
        "nodes": [
            {"id": f"ld{i}", "op": "load", "args": ["m", f"a{i}"], "width": 4} for i in range(6)
        ],
        "outputs": [{"id": f"c{i}", "source": f"ld{i}"} for i in range(6)],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


@pytest.mark.parametrize(
    "override, cells",
    [
        (None, [9, 10, 0, 0, 0, 0]),  # no override: init, then zeros
        ([1], [1, 10, 0, 0, 0, 0]),  # shorter than init: the init tail, then zeros
        ([1, 2, 3], [1, 2, 3, 0, 0, 0]),  # longer than init
        ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]),  # exactly the memory's size
        ([17, -1, 0x1F3], [1, 15, 3, 0, 0, 0]),  # wider than the cell: masked to u4
    ],
)
def test_memory_set_up_in_every_mode(override, cells):
    kernel = cells_kernel()
    ri = RunInputs(memory={} if override is None else {"m": override})
    kept = None if override is None else list(override)
    expected = {f"c{i}": v for i, v in enumerate(cells)}
    assert run_baseline(kernel, ri) == expected
    for on_exception in ("record", "halt"):
        for cfg in (
            fine(2, UNION, on_exception),
            fine(2, PRECISE, on_exception),
            DiftConfig(2, CoarseBoundary(), on_exception),
        ):
            rep = run_dift(kernel, ri, cfg)
            assert {oid: v for oid, (v, _) in rep.outputs.items()} == expected
    assert ri.memory.get("m") == kept  # a run never writes the caller's override


def test_fuzz_passes_trials_that_trap_alike(monkeypatch):
    # u4 a / u4 b traps whenever b is 0; every run of such a trial traps on
    # q, so the trial passes, and its wide-run draws are still taken: the
    # same trials on a kernel that cannot trap see the same inputs. Each
    # run is a replay through _track, which records them.
    from diftsim import simulator

    seen = []
    track = simulator._track

    def recording_track(k, ri, cfg, *args, **kwargs):
        seen.append(ri)
        return track(k, ri, cfg, *args, **kwargs)

    monkeypatch.setattr(simulator, "_track", recording_track)
    u4 = BitType(4)
    divide = op_kernel("div", [u4, u4], u4, tag_width=2)
    assert fuzz_properties(divide, trials=50, seed=0).counterexamples == ()
    assert any(ri.values["x1"] == 0 for ri in seen), "no trial drew a zero divisor"
    divide_inputs = list(seen)
    seen.clear()
    assert fuzz_properties(op_kernel("add", [u4, u4], u4, tag_width=2), 50, seed=0).ok
    assert seen == divide_inputs


def test_fuzz_reports_runs_that_trap_differently(monkeypatch):
    # A coarse run that traps where the fine runs do not is a "trap"
    # counterexample carrying the trial's inputs. Replays share one value
    # pass, so the disagreement is injected where each run is replayed, as
    # the trap a replay returns.
    from diftsim import simulator

    track = simulator._track

    def coarse_traps(k, ri, cfg, *args, **kwargs):
        if cfg.rule is None:
            return None, (DivisionByZero, "division by zero", None, None)
        return track(k, ri, cfg, *args, **kwargs)

    monkeypatch.setattr(simulator, "_track", coarse_traps)
    report = fuzz_properties(tiny_add_kernel(), trials=3, seed=1)
    assert [c.property for c in report.counterexamples] == ["trap"] * 3
    cex = report.counterexamples[0]
    assert cex.trial == 0 and set(cex.inputs.values) == {"a", "b"}
    assert cex.detail == (
        "runs disagree: ok, ok, DivisionByZero at None, ok, ok, DivisionByZero at None, ok"
    )


def five_configs(tag_width):
    """Union, precise and coarse in record mode; union and coarse in halt mode."""
    return [
        fine(tag_width, UNION),
        fine(tag_width, PRECISE),
        coarse(tag_width),
        fine(tag_width, UNION, "halt"),
        DiftConfig(tag_width, CoarseBoundary(), "halt"),
    ]


def report_or_trap(run):
    """A run's SimulationReport, or its trap as (type, node, step, message)."""
    try:
        return run()
    except EvalError as e:
        return (type(e), e.node_id, e.step, str(e))


def test_check_accepts_a_halt_before_the_baseline_trap():
    # n1 = a + a is watched and n2 = a / d is the output. With a tainted and
    # d zero, a halting run stops at step 1, before the baseline's trap at
    # n2: consistent, not an "error" mismatch.
    from diftsim import parse_kernel

    doc = {
        "name": "halt_first",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 4}, {"id": "d", "width": 4}],
        "nodes": [
            {"id": "n1", "op": "add", "args": ["a", "a"], "width": 4},
            {"id": "n2", "op": "div", "args": ["a", "d"], "width": 4},
        ],
        "policies": [{"name": "p", "kind": "deny_if_any"}],
        "checkpoints": [{"id": "cp", "arg": "n1", "policy": "p"}],
        "outputs": [{"id": "o", "source": "n2"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    ri = RunInputs(values={"a": 3, "d": 0}, tags={"a": 1})
    with pytest.raises(DivisionByZero):
        run_baseline(kernel, ri)
    rep = run_dift(kernel, ri, fine(2, UNION, "halt"))
    assert rep.halted and rep.steps_executed == 1
    for mode in (FineGrained(UNION), FineGrained(PRECISE), CoarseBoundary()):
        for on_exception in ("record", "halt"):
            report = check_consistency(kernel, DiftConfig(2, mode, on_exception), 200, 0)
            assert report.mismatches == (), report.mismatches[:2]


# A run judges its checkpoints apart from its replay: a recording run in
# one pass after it, a halting run at each watched step. It must report and
# leave the monitor exactly as a walk that computes each tag beside its
# value and submits each observation through checkpoint right after its
# step, whether its value pass is its own or one other runs already walked.


def fired_in_order(k, ri, cfg, monitor):
    """run_dift as a walk that fires each checkpoint after its step: the
    report, or the trap as report_or_trap gives it."""
    from diftsim import checkpoint, simulator

    vals = simulator._values(k, ri)[0]
    input_tags = simulator._input_tags(k, ri, monitor)
    tags = None if cfg.rule is None else simulator._init_tags(k, input_tags)
    boundary = 0
    for t in [*input_tags, *(t for m in k.memories for t in m.init_tags)]:
        boundary |= t
    slots = {d.id: slot for slot, d in enumerate([*k.inputs, *k.constants, *k.memories, *k.nodes])}
    step_of = {n.id: step for step, n in enumerate(k.nodes, start=1)}
    policies = {p.name: p for p in k.policies}
    observations = []

    def fire(step):  # True: halt
        for cp in k.checkpoints:
            if step_of.get(cp.arg, 0) == step:
                tag = boundary if tags is None else tags[slots[cp.arg]]
                observations.append((cp.id, tag))
                policy = policies[cp.policy]
                if checkpoint(monitor, cp.id, cp.arg, policy, tag, step) and cfg.on_exception == "halt":
                    return True
        return False

    steps, halted = 0, fire(0)
    for step, (out, value_of, x, y, z, union_of, precise_of) in enumerate(k.plan.steps, start=1):
        if halted:
            break
        try:
            vals[out] = value_of(vals[x], vals[y], vals[z])
            if tags is not None:
                tag_of = precise_of if cfg.rule is PRECISE else union_of
                tags[out] = tag_of(vals[x], vals[y], vals[z], tags[x], tags[y], tags[z])
        except EvalError as e:
            node = k.nodes[step - 1].id
            return (type(e), node, step, f"{e} (node {node}, step {step})")
        steps, halted = step, fire(step)
    outputs = {} if halted else {
        oid: (vals[slot], boundary if tags is None else tags[slot]) for oid, slot in k.plan.outputs
    }
    return SimulationReport(
        outputs,
        tuple(monitor.exceptions),
        monitor.irq,
        steps,
        "coarse" if cfg.rule is None else "fine",
        None if cfg.rule is None else cfg.rule.value,
        tuple(observations),
        halted,
    )


def preloaded_monitor():
    """A caller's monitor that already holds a denial and a REG_TAG_IN word."""
    from diftsim.policy_monitor import SecurityException, record

    monitor = MonitorState()
    record(monitor, [SecurityException("cp_old", "n_old", 0b1, 3, "old")])
    reg_write(monitor, REG_TAG_IN, 0b10)
    return monitor


def monitor_words(monitor):
    """The queue and the four register words, as software reads them."""
    return monitor.exceptions, [reg_read(monitor, addr) for addr in range(4)]


def assert_fires_in_order(kernel, ri, preloaded=False, reverse=False):
    """run_dift, and replays of one value pass that five_configs share in
    their order or reversed (halting configs first, so recording replays
    extend a pass a halting replay left part-walked), equal fired_in_order
    under every config, in report or trap and in the caller's monitor;
    returns the outcomes in five_configs' order."""
    from diftsim import simulator

    new_monitor = preloaded_monitor if preloaded else MonitorState
    values = simulator._values(kernel, ri)
    cfgs = five_configs(kernel.tag_width)
    outcomes = [None] * len(cfgs)
    for i in sorted(range(len(cfgs)), reverse=reverse):
        cfg = cfgs[i]
        want_monitor = new_monitor()
        want = fired_in_order(kernel, ri, cfg, want_monitor)

        def replay(m):
            rep, trap = simulator._track(kernel, ri, cfg, m, values=values)
            if trap is None:
                return rep
            error, message, node, step = trap
            return (error, node, step, message)

        for run in (lambda m: report_or_trap(lambda: run_dift(kernel, ri, cfg, m)), replay):
            monitor = new_monitor()
            got = run(monitor)
            assert type(got) is type(want) and got == want, cfg
            assert monitor_words(monitor) == monitor_words(want_monitor), cfg
        outcomes[i] = want
    return outcomes


def deny_style_kernel(seed, nodes=40):
    """A seeded checkpoint-dense kernel over one 16-cell memory, in the
    style of the benchmark's deny-storm kernels: loads and stores at
    tainted computed addresses, one or two checkpoints on most values
    under all three policy kinds, and divisions and addresses that can
    trap."""
    from diftsim import parse_kernel

    rng = random.Random(seed)
    doc = {
        "name": f"deny_style_{seed}",
        "tag_width": 3,
        "inputs": [
            {"id": f"in{i}", "width": w, "default_tag": rng.randrange(8)}
            for i, w in enumerate((1, 4, 4, 8))
        ],
        "constants": [{"id": "k", "width": 4, "value": 3}],
        "memories": [
            {"id": "m", "size": 16, "width": 8, "init_tags": [rng.randrange(8) for _ in range(6)]}
        ],
        "policies": [
            {"name": "any", "kind": "deny_if_any"},
            {"name": "mask", "kind": "deny_if_mask", "mask": 0b010},
            {"name": "allow", "kind": "allow_all"},
        ],
        "nodes": [],
        "checkpoints": [{"id": "cp_in3", "arg": "in3", "policy": "mask"}],
        "outputs": [],
    }
    pool = [("in0", 1), ("in1", 4), ("in2", 4), ("in3", 8), ("k", 4)]
    ops = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "lt", "eq",
           "not", "neg", "mux", "load", "load", "store", "store")

    def pick():
        return rng.choice(pool)[0]

    for i in range(nodes):
        op, nid = rng.choice(ops), f"n{i}"
        if op in ("load", "store"):
            # A value of at most 4 bits addresses a cell; one in ten may not.
            addr = rng.choice([v for v, w in pool if w <= 4]) if rng.random() < 0.9 else pick()
            if op == "store":
                doc["nodes"].append({"id": nid, "op": op, "args": ["m", addr, pick()]})
                continue
            args, width = ["m", addr], 8
        else:
            args = [pick() for _ in range(3 if op == "mux" else 1 if op in ("not", "neg") else 2)]
            width = 1 if op in ("lt", "eq") else rng.choice((4, 8))
        doc["nodes"].append({"id": nid, "op": op, "args": args, "width": width})
        pool.append((nid, width))
        for j in range(rng.choice((0, 1, 1, 1, 2))):
            policy = rng.choice(("any", "mask", "allow"))
            doc["checkpoints"].append({"id": f"cp_{nid}_{j}", "arg": nid, "policy": policy})
    doc["outputs"] = [{"id": f"o{j}", "source": v} for j, (v, _) in enumerate(pool[-3:])]
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


@pytest.mark.parametrize("preloaded", [False, True])
def test_runs_fire_in_order_on_fixtures(preloaded):
    for name in ("fir4.json", "dot8.json", "overflow_demo.json"):
        kernel = load_kernel(name)
        rng = random.Random(5)
        for i in range(25):
            assert_fires_in_order(kernel, sample_inputs(kernel, rng), preloaded, reverse=i % 2 == 1)


def test_runs_fire_in_order_on_every_opcode():
    # Two checkpoints watch mux_as, and two watch an input and a constant.
    from diftsim import parse_kernel
    from test_kernel_ir import ALL_OPS_DOC

    kernel, diags = parse_kernel(json.dumps(ALL_OPS_DOC))
    assert kernel is not None, diags
    rng = random.Random(29)
    for i in range(60):
        ri = sample_inputs(kernel, rng)
        if i % 2:  # an address in range runs every node
            ri.values["s"] = 1 + i % 3
        assert_fires_in_order(kernel, ri, preloaded=i % 3 == 0, reverse=i % 4 >= 2)


@pytest.mark.parametrize("table", ["empty", "step_zero", "trapping"])
def test_runs_fire_in_order_on_edge_tables(table):
    # A recording run judges the prefix of its checkpoint columns that ran
    # with a few calls over whole columns. The tables: none, one that fires
    # entirely at step 0, and one whose watched div8 (step 4) traps when s
    # is 0, so its checkpoints and every later one go unobserved while
    # those before, mul8's at step 3 too, deny.
    from diftsim import parse_kernel
    from test_kernel_ir import ALL_OPS_DOC

    def cp(cp_id, arg, policy):
        return {"id": cp_id, "arg": arg, "policy": policy}

    checkpoints = {
        "empty": [],
        "step_zero": [cp("cp_k", "k", "any"), cp("cp_a", "a", "one"), cp("cp_s", "s", "allow"),
                      cp("cp_a2", "a", "any")],
        "trapping": [cp("cp_div", "div8", "one"), cp("cp_a", "a", "allow"),
                     cp("cp_mul", "mul8", "any"), cp("cp_div2", "div8", "any"),
                     cp("cp_mod", "mod8", "one"), cp("cp_mux", "mux_as", "any")],
    }[table]
    policies = [*ALL_OPS_DOC["policies"], {"name": "allow", "kind": "allow_all"}]
    doc = dict(ALL_OPS_DOC, policies=policies, checkpoints=checkpoints)
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    rng = random.Random(41)
    traps = 0
    for i in range(30):
        ri = sample_inputs(kernel, rng)
        ri.values["s"] = i % 3  # in range of both memories; 0 traps at div8
        outcomes = assert_fires_in_order(kernel, ri, preloaded=i % 2 == 1, reverse=i % 4 >= 2)
        traps += sum(isinstance(o, tuple) for o in outcomes)
    assert traps >= 30  # each record config on each of the ten samples with s 0


def test_runs_fire_in_order_on_deny_style_kernels():
    traps = halts = shared = 0
    for seed in range(12):
        kernel = deny_style_kernel(seed)
        per_node = [cp.arg for cp in kernel.checkpoints]
        shared += len(per_node) - len(set(per_node))
        rng = random.Random(seed)
        for i in range(6):
            ri = sample_inputs(kernel, rng)
            if i % 3 == 0:
                ri.tags.clear()  # default tags, or REG_TAG_IN's word
            outcomes = assert_fires_in_order(kernel, ri, preloaded=i % 2 == 0, reverse=i % 4 >= 2)
            traps += any(isinstance(o, tuple) for o in outcomes)
            halts += any(isinstance(o, SimulationReport) and o.halted for o in outcomes)
    assert traps and halts and shared  # each case the kernels are drawn for occurs


def test_halt_on_a_step_zero_checkpoint_runs_no_step():
    from diftsim import parse_kernel

    doc = {
        "name": "watch_input_first",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 4}, {"id": "b", "width": 4}],
        "nodes": [{"id": "q", "op": "div", "args": ["a", "b"], "width": 4}],
        "policies": [{"name": "any", "kind": "deny_if_any"}],
        "checkpoints": [
            {"id": "cp_q", "arg": "q", "policy": "any"},
            {"id": "cp_b", "arg": "b", "policy": "any"},
        ],
        "outputs": [{"id": "out", "source": "q"}],
    }
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    # b is tainted and 0: a halting run stops before q divides by zero.
    ri = RunInputs(values={"a": 3, "b": 0}, tags={"a": 0, "b": 1})
    for preloaded, reverse in itertools.product((False, True), repeat=2):
        outcomes = assert_fires_in_order(kernel, ri, preloaded, reverse)
        union_halt, coarse_halt = outcomes[3:]
        for rep in (union_halt, coarse_halt):
            assert rep.halted and rep.steps_executed == 0 and rep.outputs == {}
            assert rep.exceptions[-1][:2] == ("cp_b", "b") and rep.checkpoint_tags == (("cp_b", 1),)
        assert all(outcome[0] is DivisionByZero for outcome in outcomes[:3])


def test_halt_mode_traps_before_the_first_watched_step():
    # ld traps at step 1; cp_q watches step 2 and never fires.
    ri = RunInputs(values={"la": 5, "a": 7, "b": 2, "c": 3, "sa": 2}, tags={"a": 1})
    for preloaded, reverse in itertools.product((False, True), repeat=2):
        outcomes = assert_fires_in_order(trap_kernel(), ri, preloaded, reverse)
        assert [o[:3] for o in outcomes] == [(OutOfBoundsAddress, "ld", 1)] * 5


def reference_check(k, cfg, samples, seed):
    """check_consistency's mismatches, computed run by run: per sample,
    run_baseline, then run_dift on k and on k optimized by the defective
    passes."""
    from diftsim import Mismatch

    def sig(e):
        return (type(e).__name__, e.node_id)

    def seq(rep):
        return [(e.checkpoint_id, e.node_id, e.tag_bits, e.policy_name) for e in rep.exceptions]

    rng = random.Random(seed)
    opt = drop_dead_traps(fold_watched_nodes(k))
    found = []
    for i in range(samples):
        ri = sample_inputs(k, rng)
        base_err = dift_err = opt_err = None
        try:
            base = run_baseline(k, ri)
        except EvalError as e:
            base_err = sig(e)
        try:
            rep = run_dift(k, ri, cfg)
        except EvalError as e:
            dift_err = sig(e)
        try:
            rep_opt = run_dift(opt, ri, cfg)
        except EvalError as e:
            opt_err = sig(e)
        if base_err or dift_err:
            if base_err != dift_err:
                found.append(Mismatch(i, "error", f"baseline {base_err} vs dift {dift_err}", ri))
        elif not rep.halted:
            for oid, value in base.items():
                got = rep.outputs[oid][0]
                if got != value:
                    found.append(
                        Mismatch(i, "value", f"output {oid}: baseline {value}, dift {got}", ri)
                    )
        if dift_err or opt_err:
            if dift_err != opt_err:
                found.append(
                    Mismatch(i, "error", f"unoptimized {dift_err} vs optimized {opt_err}", ri)
                )
            continue
        if seq(rep) != seq(rep_opt):
            found.append(
                Mismatch(
                    i, "opt_exceptions", f"unoptimized {seq(rep)} vs optimized {seq(rep_opt)}", ri
                )
            )
        if rep.halted or rep_opt.halted:
            if rep.halted != rep_opt.halted:
                found.append(Mismatch(i, "opt_value", "halt state differs", ri))
            continue
        for oid, (value, tag) in rep.outputs.items():
            ovalue, otag = rep_opt.outputs[oid]
            if value != ovalue:
                found.append(Mismatch(i, "opt_value", f"output {oid}: {value} vs {ovalue}", ri))
            if tag != otag:
                found.append(Mismatch(i, "opt_tag", f"output {oid} tag: {tag} vs {otag}", ri))
    return tuple(found)


def test_check_consistency_compares_baseline_values(monkeypatch):
    # Replays never change values, so only a broken baseline can differ;
    # the comparison with the real run_baseline must still report it.
    from diftsim import simulator

    baseline = simulator.run_baseline

    def off_by_one(k, ri, diags=None):
        return {oid: value + 1 for oid, value in baseline(k, ri, diags).items()}

    monkeypatch.setattr(simulator, "run_baseline", off_by_one)
    report = check_consistency(tiny_add_kernel(), fine(2), samples=3, seed=0)
    assert [(m.sample, m.kind) for m in report.mismatches] == [(0, "value"), (1, "value"), (2, "value")]
    assert report.mismatches[0].detail.startswith("output out: baseline ")


def test_check_consistency_matches_a_run_by_run_reference(defective_passes):
    from diftsim import parse_kernel
    from test_kernel_ir import DEAD_DIVISION_DOC, FOLDED_CHECKPOINT_DOC

    kernels = [load_kernel(n) for n in ("fir4.json", "dot8.json", "overflow_demo.json")]
    kernels += [parse_kernel(json.dumps(d))[0] for d in (DEAD_DIVISION_DOC, FOLDED_CHECKPOINT_DOC)]
    kinds = set()
    for kernel in kernels:
        for cfg in five_configs(kernel.tag_width):
            report = check_consistency(kernel, cfg, samples=60, seed=4)
            assert report.mismatches == reference_check(kernel, cfg, 60, 4), (kernel.name, cfg)
            kinds |= {m.kind for m in report.mismatches}
    # The defective passes give the last two kernels mismatches to compare.
    assert {"error", "opt_exceptions"} <= kinds
