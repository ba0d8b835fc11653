import itertools
import json
import random

import pytest

import diftsim.taint
from conftest import load_inputs, load_kernel
from diftsim import (
    BINARY_OPS,
    COMPARE_OPS,
    BitType,
    BitValue,
    CoarseBoundary,
    DiftConfig,
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
    Tag,
    WidthTooLarge,
    boundary_tag,
    check_consistency,
    fuzz_properties,
    independence_oracle,
    make_bitvalue,
    parse_inputs,
    propagate,
    reg_write,
    run_baseline,
    run_dift,
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
    ops = [(make_bitvalue(u2, 3), Tag(2, 0)), (make_bitvalue(u4, 9), Tag(2, 0b1))]
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
    kernel = mem_kernel()
    with pytest.raises(OutOfBoundsAddress):
        run_baseline(kernel, RunInputs(values={"addr": 0, "v": 1}, memory={"m": [0] * 5}))


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
    expected = boundary_tag([Tag(4, inp.default_tag) for inp in fir4.inputs], width=4)
    assert rep.outputs["y_out"] == (54, expected.bits)
    assert rep.mode == "coarse" and rep.rule is None
    assert rep.checkpoint_tags == (("cp_y", expected.bits),)


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


def test_zero_tag_kernel_runs_its_own_plan():
    # The zeroed copy must not run the original's plan, whose memory holds
    # initial tags: the load of a tagged cell stays untainted there.
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
    assert run_dift(zeroed, ri, fine(2)).outputs == {"out": (5, 0)}
    assert zeroed.plan is not kernel.plan
    assert run_dift(kernel, ri, fine(2)).outputs == {"out": (5, 0b10)}


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
