import gc
import itertools
import json
import random

import pytest

import diftsim.taint
import gen
import reference_model as model
from conftest import (
    drop_dead_traps, fold_watched_nodes, load_doc, load_inputs, load_kernel, tainting_tag_fn,
)
from diftsim import (
    BitType,
    BitValue,
    CoarseBoundary,
    Diagnostic,
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
    WidthMismatch,
    check_consistency,
    fuzz_properties,
    parse_inputs,
    parse_kernel,
    reg_read,
    reg_write,
    run_baseline,
    run_dift,
    sample_inputs,
)
from diftsim.bitvalue import BINARY_OPS, COMPARE_OPS
from diftsim.simulator import check_configs
from test_kernel_ir import ALL_OPS_DOC, DEAD_DIVISION_DOC, FOLDED_CHECKPOINT_DOC

U4 = BitType(4)

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE


def fine(tag_width, rule=UNION, on_exception="record"):
    return DiftConfig(tag_width, FineGrained(rule), on_exception)


def coarse(tag_width):
    return DiftConfig(tag_width, CoarseBoundary())


def parsed(doc):
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None, diags
    return kernel


def five_configs(tag_width):
    """Union, precise and coarse in record mode; union and coarse in halt mode."""
    return [
        fine(tag_width, UNION),
        fine(tag_width, PRECISE),
        coarse(tag_width),
        fine(tag_width, UNION, "halt"),
        DiftConfig(tag_width, CoarseBoundary(), "halt"),
    ]


# The reference model (tests/reference_model.py) is the oracle of run
# semantics: these helpers put a simulator run and the model's side by side.


def inputs_doc(ri):
    return {"values": ri.values, "tags": ri.tags, "memory": ri.memory}


def model_run(doc, ri, cfg, tag_in=0):
    """The model's run of the kernel document doc on ri under cfg."""
    mode = "coarse" if cfg.rule is None else cfg.rule.value
    return model.evaluate(doc, inputs_doc(ri), mode, cfg.on_exception == "halt", tag_in)


def outcome(run):
    """What run returns, or the trap it raises as (kind, node, step)."""
    try:
        return run()
    except EvalError as e:
        return (type(e).__name__, e.node_id, e.step)


def model_outcome(doc, ri, cfg=None):
    """The model's run_dift outputs under cfg, or with no cfg its
    run_baseline outputs, the values alone; or its trap."""
    run = model_run(doc, ri, cfg or fine(doc["tag_width"]))
    if run["trap"] is not None:
        return run["trap"]
    return run["outputs"] if cfg else {oid: value for oid, (value, _) in run["outputs"].items()}


def tiny_add_kernel():
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
    return parsed(doc)


def mem_kernel(addr_tagged_load=False, size=4):
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
    return parsed(doc)


def op_kernel(op, operand_types, result_ty, tag_width=4):
    """One node applying op to inputs x0, x1, ... of the given types."""
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
    return parsed(doc)


def test_run_baseline_fir4_committed_vector(fir4):
    inputs = load_inputs("fir4_inputs.json")
    # 10*2 + (-5)*(-3) + 3*4 + 7*1 = 54, by hand; the model must agree too.
    assert run_baseline(fir4, inputs) == {"y_out": 54}
    assert model.evaluate(load_doc("fir4.json"), inputs_doc(inputs))["outputs"]["y_out"][0] == 54


def test_missing_input_defaults_to_zero_with_warning():
    kernel = tiny_add_kernel()
    diags = []
    got = run_baseline(kernel, RunInputs(values={"a": 3}), diags)
    assert got == {"out": 3}
    assert any(d.severity == "warning" and d.location == "b" for d in diags)


def test_run_warnings_list_unknown_ids_then_unassigned_inputs():
    # The unknown value, tag and memory ids in the inputs document's order,
    # then the inputs left unassigned in declaration order.
    u4 = {"width": 4}
    kernel = parsed(
        {
            "name": "warned",
            "tag_width": 2,
            "inputs": [{"id": "c", **u4}, {"id": "b", **u4}, {"id": "a", **u4}],
            "memories": [{"id": "m", "size": 2, **u4}],
            "nodes": [{"id": "s", "op": "add", "args": ["a", "b"], **u4}],
            "outputs": [{"id": "out", "source": "s"}],
        }
    )
    ri = RunInputs(
        values={"zz": 1, "b": 2, "yy": 3},
        tags={"ww": 1, "c": 1, "xx": 2},
        memory={"vv": [1], "m": [3], "uu": []},
    )
    expected = [
        ("zz", "value for unknown input ignored"),
        ("yy", "value for unknown input ignored"),
        ("ww", "tag for unknown input ignored"),
        ("xx", "tag for unknown input ignored"),
        ("vv", "override for unknown memory ignored"),
        ("uu", "override for unknown memory ignored"),
        ("c", "input not assigned; defaulting to 0"),
        ("a", "input not assigned; defaulting to 0"),
    ]
    for run in (run_baseline, lambda k, ri, diags: run_dift(k, ri, fine(2), diags=diags)):
        diags = []
        run(kernel, ri, diags)
        assert diags == [Diagnostic("warning", loc, msg) for loc, msg in expected]


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
    # The hand-traced run, by the simulator and by the model.
    doc = load_doc("overflow_demo.json")
    tainted = load_inputs("overflow_tainted.json")
    rep = run_dift(overflow_demo, tainted, fine(2))
    want = model.evaluate(doc, inputs_doc(tainted))
    assert rep.outputs == want["outputs"] == {"stored": (93, 0), "slot": (4, 1)}
    assert [e[:4] for e in rep.exceptions] == [e[:4] for e in want["exceptions"]] == [
        ("cp_addr", "off", 1, 1)
    ]
    assert rep.irq is True

    clean = load_inputs("overflow_clean.json")
    rep = run_dift(overflow_demo, clean, fine(2))
    assert rep.exceptions == () and rep.irq is False
    assert model.evaluate(doc, inputs_doc(clean))["exceptions"] == []


def test_dot8_rule_difference(dot8):
    inputs = load_inputs("dot8_inputs.json")
    union_rep = run_dift(dot8, inputs, fine(2, UNION))
    precise_rep = run_dift(dot8, inputs, fine(2, PRECISE))
    # vb[3] is 0 and untainted, so the precise rule kills va[3]'s taint.
    assert union_rep.outputs == {"out": (137, 1)}
    assert precise_rep.outputs == {"out": (137, 0)}
    for mode, tag in (("union", 1), ("precise", 0)):
        run = model.evaluate(load_doc("dot8.json"), inputs_doc(inputs), mode)
        assert run["outputs"] == {"out": (137, tag)}
    assert len(union_rep.exceptions) == 1
    assert precise_rep.exceptions == ()


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


def test_independence_oracle():
    # The model's independent, the oracle of every precise kill.
    u2, u4 = (2, False), (4, False)
    assert model.independent("and", [u4, u4], {0}, {1: 0}, u4)
    assert model.independent("mul", [u4, u4], {1}, {0: 0}, u4)
    assert model.independent("or", [u4, u4], {0}, {1: 15}, u4)
    assert not model.independent("add", [u4, u4], {0}, {1: 3}, u4)
    # 3 is all ones as a u2, not in the u4 result.
    assert not model.independent("or", [u2, u4], {1}, {0: 3}, u4)
    # The branches 2 and 0 differ as u4 results but agree in the u1
    # selector's bit.
    assert not model.independent("mux", [(1, False), u4, u4], {0}, {1: 2, 2: 0}, u4)
    # 0 div t is 0, or a trap when t is 0: a trap is one more outcome.
    assert not model.independent("div", [u2, u2], {1}, {0: 0}, u2)
    assert model.independent("div", [u2, u2], {0}, {1: 0}, u2)  # it always traps


def test_fuzz_properties_pass_on_fixtures(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        report = fuzz_properties(kernel, trials=100, seed=2)
        assert report.ok, report.counterexamples[:3]


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


@pytest.mark.parametrize("prop, rule, bit, detail", [
    ("closure", UNION, 1,
     "mode=fine rule=union tainted outputs=['out'] exceptions=1 (input and initial memory tags zero)"),
    ("precise_subset", PRECISE, 2, "output out: precise 0x3 not within union 0x1"),
    ("coarse_subset", PRECISE, 2, "output out: fine(precise) 0x3 not within boundary 0x1"),
])
def test_mutant_rules_caught_by_closure_and_subsets(monkeypatch, prop, rule, bit, detail):
    # A rule that taints every value node's result breaks closure; a precise
    # one that adds a bit no union tag holds breaks both subset properties.
    monkeypatch.setattr(diftsim.taint, "tag_fn", tainting_tag_fn(rule, bit))
    report = fuzz_properties(load_kernel("dot8.json"), trials=20, seed=0)
    assert next(c.detail for c in report.counterexamples if c.property == prop) == detail


def watched_add_kernel(source):
    """n = a + a under a deny_if_any checkpoint; the output reads source."""
    doc = {
        "name": "watched_add",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 4}],
        "nodes": [{"id": "n", "op": "add", "args": ["a", "a"], "width": 4}],
        "policies": [{"name": "p", "kind": "deny_if_any"}],
        "checkpoints": [{"id": "cp", "arg": "n", "policy": "p"}],
        "outputs": [{"id": "out", "source": source}],
    }
    return parsed(doc)


def test_closure_reports_a_rule_that_taints_only_a_checkpoint(monkeypatch):
    # The output reads the input, so only the checkpoint sees the taint.
    monkeypatch.setattr(diftsim.taint, "tag_fn", tainting_tag_fn(UNION, 1))
    report = fuzz_properties(watched_add_kernel("a"), trials=2, seed=0)
    assert [(c.property, c.detail) for c in report.counterexamples] == [
        ("closure", "mode=fine rule=union tainted outputs=[] exceptions=1 "
                    "(input and initial memory tags zero)")
    ] * 2


def test_a_tag_wider_than_the_kernel_is_cut_to_its_tag_width(fir4):
    # parse_inputs accepts any int as a tag; a run keeps only the bits
    # below the kernel's tag width.
    text = json.dumps({"values": {"x0": 1}, "tags": {"x0": 2**40 | 1}})
    wide, diags = parse_inputs(text)
    assert diags == [] and wide.tags == {"x0": 2**40 | 1}
    narrow = RunInputs({"x0": 1}, {"x0": 1})
    for cfg in five_configs(fir4.tag_width):
        assert run_dift(fir4, wide, cfg) == run_dift(fir4, narrow, cfg)


def test_a_config_of_another_tag_width_is_refused(dot8):
    with pytest.raises(WidthMismatch) as e:
        run_dift(dot8, RunInputs(), DiftConfig(3, CoarseBoundary()))
    assert str(e.value) == "config tag width 3 does not match kernel 2"


def test_halted_run_reports_no_outputs(overflow_demo):
    rep = run_dift(
        overflow_demo,
        load_inputs("overflow_tainted.json"),
        fine(2, on_exception="halt"),
    )
    assert rep.halted is True and rep.outputs == {} and rep.steps_executed == 1
    assert len(rep.exceptions) == 1  # cp_addr denies right after the first node


SWEEP_TYPES = [BitType(w, s) for w in range(1, 4) for s in (False, True)]


def sweep_doc(op, operand_types, result_types):
    """Inputs x0, x1, ... of the operand types and one node rj = op(x0, ...)
    per result type, each read by its output oj."""
    args = [f"x{i}" for i in range(len(operand_types))]
    return {
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


def sweep_through_walk(kind, operand_types):
    """Every operand value, against the model: run_baseline, run_dift's
    union tags with each operand tagged by its own bit, and its precise
    tags with one operand tainted at a time. Every precise kill is also
    confirmed by the model's independent. Returns the number of kills seen."""
    result_types = [BitType(1)] if kind in COMPARE_OPS else SWEEP_TYPES
    doc = sweep_doc(kind.value, operand_types, result_types)
    kernel = parsed(doc)
    args = [f"x{i}" for i in range(len(operand_types))]
    union, precise = fine(4, UNION), fine(4, PRECISE)
    kills = 0
    for values in itertools.product(*(range(1 << t.width) for t in operand_types)):
        vals = dict(zip(args, values))
        ri = RunInputs(vals, {a: 1 << i for i, a in enumerate(args)})
        want = model_run(doc, ri, union)
        if want["trap"] is not None:  # the same in every mode
            assert outcome(lambda: run_baseline(kernel, ri)) == want["trap"]
            continue
        want = want["outputs"]
        assert run_baseline(kernel, ri) == {o: v for o, (v, _) in want.items()}, (kind, values)
        assert run_dift(kernel, ri, union).outputs == want
        for pos, a in enumerate(args):
            ri = RunInputs(vals, {a: 1})
            got = run_dift(kernel, ri, precise).outputs
            assert got == model_outcome(doc, ri, precise), (kind, operand_types, values)
            for j, r_ty in enumerate(result_types):
                if got[f"o{j}"][1] == 0:
                    kills += 1
                    fixed = {p: v for p, v in enumerate(values) if p != pos}
                    assert model.independent(kind.value, operand_types, {pos}, fixed, r_ty), (
                        kind, operand_types, r_ty, pos, values
                    )
    return kills


def test_every_value_opcode_through_the_walk():
    # One kernel per opcode and operand types, with one node per result
    # type: the specialised value and tag functions of every signature run
    # through run_baseline and run_dift, against the model.
    kills = 0
    for kind in sorted(BINARY_OPS, key=lambda k: k.value):
        for a_ty, b_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):
            kills += sweep_through_walk(kind, [a_ty, b_ty])
    for a_ty in SWEEP_TYPES:
        kills += sweep_through_walk(OpKind.NOT, [a_ty]) + sweep_through_walk(OpKind.NEG, [a_ty])
    for t_ty, f_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):
        kills += sweep_through_walk(OpKind.MUX, [BitType(1), t_ty, f_ty])
    assert kills > 0


def test_memory_opcodes_through_the_walk():
    # load and store for every address and data type of widths 1..3, against
    # the model: values, union and precise tags, and traps where the address
    # falls outside the three cells.
    for a_ty, d_ty in itertools.product(SWEEP_TYPES, SWEEP_TYPES):
        doc = {
            "name": "memsweep",
            "tag_width": 4,
            "inputs": [
                {"id": "a", "width": a_ty.width, "signed": a_ty.signed},
                {"id": "d", "width": d_ty.width, "signed": d_ty.signed},
            ],
            "constants": [{"id": "zero", "width": 1, "value": 0}],
            "memories": [{"id": "m", "size": 3, "width": 2, "init": [1, 2, 3], "init_tags": [4, 0, 8]}],
            "nodes": [
                {"id": "ld", "op": "load", "args": ["m", "a"], "width": 2},
                {"id": "st", "op": "store", "args": ["m", "a", "d"]},
                {"id": "ld0", "op": "load", "args": ["m", "zero"], "width": 2},
            ],
            "outputs": [{"id": "before", "source": "ld"}, {"id": "cell0", "source": "ld0"}],
        }
        kernel = parsed(doc)
        for a, d in itertools.product(range(1 << a_ty.width), range(1 << d_ty.width)):
            ri = RunInputs({"a": a, "d": d}, {"a": 1, "d": 2})
            assert outcome(lambda: run_baseline(kernel, ri)) == model_outcome(doc, ri)
            for cfg in (fine(4, UNION), fine(4, PRECISE)):
                got = outcome(lambda: run_dift(kernel, ri, cfg).outputs)
                assert got == model_outcome(doc, ri, cfg), (a_ty, d_ty, a, d, cfg)


# load (step 1), div (2), mod (3), store (4); inputs pick which traps.
TRAP_DOC = {
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


def trap_kernel():
    return parsed(TRAP_DOC)


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

    doc = {
        "name": "big_load",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 32}],
        "memories": [{"id": "m", "size": 65536, "width": 8}],
        "nodes": [{"id": "ld", "op": "load", "args": ["m", "a"], "width": 8}],
        "outputs": [{"id": "out", "source": "ld"}],
    }
    kernel = parsed(doc)
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
    return parsed(doc)


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


def test_fuzz_lowers_the_kernel_once(monkeypatch, dot8):
    # Every run replays the kernel's own plan, the zero-tag runs too: one
    # fuzz_properties call on a kernel never run lowers it once, and on a
    # kernel already lowered not at all.
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
    """A six-cell u4 memory with a two-cell init; every cell is loaded,
    then the u8 constant 0xAB is stored over cell 0 and cell 0 loaded again."""
    doc = {
        "name": "cells",
        "tag_width": 2,
        "memories": [{"id": "m", "size": 6, "width": 4, "init": [9, 10]}],
        "constants": [
            *({"id": f"a{i}", "width": 3, "value": i} for i in range(6)),
            {"id": "wide", "width": 8, "value": 0xAB},
        ],
        "nodes": [
            *({"id": f"ld{i}", "op": "load", "args": ["m", f"a{i}"], "width": 4} for i in range(6)),
            {"id": "st", "op": "store", "args": ["m", "a0", "wide"]},
            {"id": "again", "op": "load", "args": ["m", "a0"], "width": 4},
        ],
        "outputs": [
            *({"id": f"c{i}", "source": f"ld{i}"} for i in range(6)),
            {"id": "stored", "source": "again"},
        ],
    }
    return parsed(doc)


@pytest.mark.parametrize(
    "override, cells",
    [
        (None, [9, 10, 0, 0, 0, 0]),  # no override: init, then zeros
        ([1], [1, 10, 0, 0, 0, 0]),  # shorter than init: the init tail, then zeros
        ([1, 2, 3], [1, 2, 3, 0, 0, 0]),  # longer than init
        ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6]),  # exactly the memory's size
        ([17, -1, 0x1F3], [1, 15, 3, 0, 0, 0]),  # wider than the cell: wrapped to u4
        # Negative and wider than 64 bits: a load wraps the raw int it reads.
        ([-1, -16, 2**64 + 7, -(2**70) + 3], [15, 0, 7, 3, 0, 0]),
        ([-(2**65) - 1, 2**100 + 9, -6, -7, 2**64, -(2**64) + 12], [15, 9, 10, 9, 0, 12]),
    ],
)
def test_memory_set_up_in_every_mode(override, cells):
    # Every output reads the cells a run set up; "stored" reads the
    # store's wrapped data (0xAB -> 0xB) back from cell 0, an override cell
    # when there is an override.
    kernel = cells_kernel()
    ri = RunInputs(memory={} if override is None else {"m": override})
    kept = None if override is None else list(override)
    expected = {f"c{i}": v for i, v in enumerate(cells)} | {"stored": 0xB}
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


def last_cell_tag_kernel():
    """A kernel whose only initial tag is 0b100 on a memory's last cell; its
    one node, a + a, reads no memory, and a checkpoint watches it under a
    policy that never denies that tag."""
    doc = {
        "name": "last_cell_tag",
        "tag_width": 3,
        "inputs": [{"id": "a", "width": 4}],
        "memories": [{"id": "m", "size": 8, "width": 4, "init_tags": [0] * 7 + [0b100]}],
        "nodes": [{"id": "n", "op": "add", "args": ["a", "a"], "width": 4}],
        "policies": [{"name": "p", "kind": "deny_if_mask", "mask": 0b1}],
        "checkpoints": [{"id": "cp", "arg": "n", "policy": "p"}],
        "outputs": [{"id": "o", "source": "n"}],
    }
    return parsed(doc)


def test_coarse_boundary_joins_the_last_initial_memory_tag():
    # The plan joins each memory's initial tags once; a coarse run's
    # boundary is built from those joins, so the last cell's tag reaches
    # every output and checkpoint, while the closure runs, replayed from no
    # memory tags, stay untainted.
    kernel = last_cell_tag_kernel()
    for on_exception in ("record", "halt"):
        rep = run_dift(kernel, RunInputs({"a": 3}), DiftConfig(3, CoarseBoundary(), on_exception))
        assert rep.outputs == {"o": (6, 0b100)}
        assert rep.checkpoint_tags == (("cp", 0b100),)
        assert not rep.halted and rep.exceptions == ()
    assert fuzz_properties(kernel, trials=20, seed=0).counterexamples == ()


def test_fuzz_passes_trials_that_trap_alike(monkeypatch):
    # u4 a / u4 b traps whenever b is 0; every run of such a trial traps on
    # q, so the trial passes, and its wide-run draws are still taken: the
    # same trials on a kernel that cannot trap see the same inputs. A
    # trial's runs replay one value pass, which _values builds from the
    # trial's inputs and records here.
    from diftsim import simulator

    seen = []
    values = simulator._values

    def recording_values(k, ri, *args):
        seen.append(ri)
        return values(k, ri, *args)

    monkeypatch.setattr(simulator, "_values", recording_values)
    u4 = BitType(4)
    divide = op_kernel("div", [u4, u4], u4, tag_width=2)
    assert fuzz_properties(divide, trials=50, seed=0).counterexamples == ()
    assert any(ri.values["x1"] == 0 for ri in seen), "no trial drew a zero divisor"
    divide_inputs = list(seen)
    seen.clear()
    assert fuzz_properties(op_kernel("add", [u4, u4], u4, tag_width=2), 50, seed=0).ok
    assert seen == divide_inputs


def test_check_accepts_a_halt_before_the_baseline_trap():
    # n1 = a + a is watched and n2 = a / d is the output. With a tainted and
    # d zero, a halting run stops at step 1, before the baseline's trap at
    # n2: consistent, as check compares no baseline value with a halted run.
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
    kernel = parsed(doc)
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
# one pass after it, a halting run at each watched step. It must report,
# and leave the caller's monitor, as the model does, which observes each
# checkpoint right after its step.


def preloaded_monitor():
    """A caller's monitor that already holds a denial and a REG_TAG_IN word."""
    from diftsim.policy_monitor import SecurityException, record

    monitor = MonitorState()
    record(monitor, [SecurityException("cp_old", "n_old", 0b1, 3, "old")])
    reg_write(monitor, REG_TAG_IN, 0b10)
    return monitor


def assert_runs_match_model(kernel, doc, ri, preloaded=False):
    """run_dift of kernel, parsed from doc, under each of five_configs equals
    the model in report or trap, and leaves the caller's monitor, new or
    preloaded, with the model's denials queued and all four register words
    as they imply. Returns the model's runs in five_configs' order."""
    runs = []
    for cfg in five_configs(kernel.tag_width):
        monitor = preloaded_monitor() if preloaded else MonitorState()
        queue, tag_in, tag_out = list(monitor.exceptions), monitor.tag_in, monitor.tag_out
        run = model_run(doc, ri, cfg, tag_in)
        queue += run["exceptions"]
        if run["exceptions"]:
            tag_out = run["exceptions"][-1][2]
        mode, rule = ("coarse", None) if cfg.rule is None else ("fine", cfg.rule.value)
        want = run["trap"] or SimulationReport(
            run["outputs"], tuple(queue), bool(queue), run["steps"], mode, rule,
            tuple(run["observations"]), run["halted"],
        )
        assert outcome(lambda: run_dift(kernel, ri, cfg, monitor)) == want, cfg
        assert monitor.exceptions == queue, cfg
        words = [int(bool(queue)), len(queue), tag_in, tag_out]
        assert [reg_read(monitor, addr) for addr in range(4)] == words, cfg
        runs.append(run)
    return runs


@pytest.mark.parametrize("preloaded", [False, True])
def test_runs_fire_in_order_on_fixtures(preloaded):
    for name in ("fir4.json", "dot8.json", "overflow_demo.json"):
        doc = load_doc(name)
        kernel = parsed(doc)
        rng = random.Random(5)
        for i in range(25):
            ri = sample_inputs(kernel, rng)
            if i % 4 == 0:
                ri.tags.clear()  # default tags, or REG_TAG_IN's word
            assert_runs_match_model(kernel, doc, ri, preloaded)


def test_runs_fire_in_order_on_every_opcode():
    # Two checkpoints watch mux_as, and two watch an input and a constant.
    # Rotated declares cp_ld, on a later node, first, and cp_mux2 before
    # cp_mux; unwatched has no checkpoint.
    cps = ALL_OPS_DOC["checkpoints"]
    rotated = dict(ALL_OPS_DOC, checkpoints=cps[3:] + cps[:3])
    unwatched = dict(ALL_OPS_DOC, checkpoints=[])
    for doc in (ALL_OPS_DOC, rotated, unwatched):
        kernel = parsed(doc)
        assert {n.op for n in kernel.nodes} == set(OpKind)
        rng = random.Random(29)
        for i in range(60):
            ri = sample_inputs(kernel, rng)
            if i % 2:  # an address in range runs every node
                ri.values["s"] = 1 + i % 3
            assert_runs_match_model(kernel, doc, ri, preloaded=i % 3 == 0)


def edge_table_doc(table):
    """ALL_OPS_DOC under one of three checkpoint tables: none, one that
    fires entirely at step 0, and one whose watched div8 (step 4) traps when
    s is 0, with two checkpoints on div8 and mul8's at step 3 before it."""

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
    return dict(ALL_OPS_DOC, policies=policies, checkpoints=checkpoints)


@pytest.mark.parametrize("table", ["empty", "step_zero", "trapping"])
def test_runs_fire_in_order_on_edge_tables(table):
    # A recording run judges the prefix of its checkpoint columns that ran
    # with a few calls over whole columns. When div8 traps, its checkpoints
    # and every later one go unobserved while those before it deny.
    doc = edge_table_doc(table)
    kernel = parsed(doc)
    rng = random.Random(41)
    traps = 0
    for i in range(30):
        ri = sample_inputs(kernel, rng)
        ri.values["s"] = i % 3  # in range of both memories; 0 traps at div8
        runs = assert_runs_match_model(kernel, doc, ri, preloaded=i % 2 == 1)
        traps += sum(run["trap"] is not None for run in runs)
    assert traps >= 30  # each record config on each of the ten samples with s 0


def test_runs_fire_in_order_on_deny_style_kernels():
    # The benchmark's deny-storm kernels: checkpoints on most values under
    # all three policy kinds, loads and stores at tainted computed
    # addresses, and divisions and addresses that can trap.
    traps = halts = 0
    for seed in range(12):
        doc = gen.deny(seed, 120)
        kernel = parsed(doc)
        rng = random.Random(seed)
        for i in range(6):
            ri = sample_inputs(kernel, rng)
            if i % 3 == 0:
                ri.tags.clear()  # default tags, or REG_TAG_IN's word
            runs = assert_runs_match_model(kernel, doc, ri, preloaded=i % 2 == 0)
            traps += any(run["trap"] for run in runs)
            halts += any(run["halted"] for run in runs)
    assert traps and halts  # each case the kernels are drawn for occurs


def test_check_configs_replays_one_value_pass_as_each_check_alone():
    # check_configs replays every configuration over one value pass per
    # sample. In five_configs' order recording replays walk it first;
    # reversed, halting replays leave it part-walked and the recording
    # replays after them extend it. Either way each report equals the one
    # check_consistency makes under that configuration alone.
    docs = [load_doc(name) for name in ("fir4.json", "dot8.json", "overflow_demo.json")]
    docs += [TRAP_DOC, edge_table_doc("trapping"), *(gen.deny(seed, 120) for seed in range(4))]
    for doc in docs:
        kernel = parsed(doc)
        cfgs = five_configs(kernel.tag_width)
        alone = [check_consistency(kernel, cfg, 20, 7) for cfg in cfgs]
        assert check_configs(kernel, cfgs, 20, 7) == alone, doc["name"]
        assert check_configs(kernel, cfgs[::-1], 20, 7) == alone[::-1], doc["name"]


def test_halt_on_a_step_zero_checkpoint_runs_no_step():
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
    # b is tainted and 0: a halting run stops before q divides by zero.
    ri = RunInputs(values={"a": 3, "b": 0}, tags={"a": 0, "b": 1})
    for preloaded in (False, True):
        runs = assert_runs_match_model(parsed(doc), doc, ri, preloaded)
        for run in runs[3:]:
            assert run["halted"] and run["steps"] == 0 and run["outputs"] == {}
            assert run["exceptions"][-1][:2] == ("cp_b", "b") and run["observations"] == [("cp_b", 1)]
        assert [run["trap"][0] for run in runs[:3]] == ["DivisionByZero"] * 3


def test_halt_mode_traps_before_the_first_watched_step():
    # ld traps at step 1; cp_q watches step 2 and never fires.
    ri = RunInputs(values={"la": 5, "a": 7, "b": 2, "c": 3, "sa": 2}, tags={"a": 1})
    for preloaded in (False, True):
        runs = assert_runs_match_model(trap_kernel(), TRAP_DOC, ri, preloaded)
        assert [run["trap"] for run in runs] == [("OutOfBoundsAddress", "ld", 1)] * 5


def test_the_model_agrees_with_the_benchmark_reference():
    # benchmarks/reference.py is a second plain-int evaluator, with union
    # tags only, that the benchmark checks its runs against. Until the two
    # are one, any drift between them fails here.
    import reference as bench

    traps = 0
    for seed in range(3):
        for doc in (gen.fir(24, seed), gen.dot(16, seed), gen.deny(seed, 60)):
            rng = random.Random(seed)
            for i in range(6):
                inputs = gen.inputs(doc, rng, memory=i % 2 == 1)
                for mode, halt in (("union", False), ("coarse", False), ("union", True)):
                    ours = model.evaluate(doc, inputs, mode, halt)
                    theirs = bench.evaluate(doc, inputs, mode, halt)
                    where = (doc["name"], seed, i, mode, halt)
                    trap = ours["trap"] and ours["trap"][:2]
                    assert (trap, ours["steps"], len(ours["observations"])) == (
                        theirs.get("trap"), theirs["steps"], theirs["observed"]
                    ), where
                    if trap:
                        traps += 1
                        continue
                    assert (ours["outputs"], ours["exceptions"], ours["halted"]) == (
                        theirs["outputs"], theirs["exceptions"], theirs["halted"]
                    ), where
    assert traps


def reference_check(k, cfg, samples, seed):
    """check_consistency's mismatches, computed run by run: per sample,
    run_baseline, then run_dift on k and on k optimized by the defective
    passes."""
    from diftsim.simulator import Mismatch

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
    # The optimized output values are compared with run_baseline's, so an
    # off-by-one baseline is an opt_value mismatch on every sample.
    from diftsim import simulator

    baseline = simulator.run_baseline

    def off_by_one(k, ri, diags=None):
        return {oid: value + 1 for oid, value in baseline(k, ri, diags).items()}

    monkeypatch.setattr(simulator, "run_baseline", off_by_one)
    kernel = tiny_add_kernel()
    report = check_consistency(kernel, fine(2), samples=3, seed=0)
    assert [(m.sample, m.kind) for m in report.mismatches] == [(i, "opt_value") for i in range(3)]
    out = baseline(kernel, report.mismatches[0].inputs)["out"]
    assert report.mismatches[0].detail == f"output out: {out + 1} vs {out}"


def add_zero_kernel():
    doc = {
        "name": "add_zero",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 4}, {"id": "b", "width": 4}],
        "constants": [{"id": "zero", "width": 4, "value": 0}],
        "nodes": [
            {"id": "z", "op": "mul", "args": ["b", "zero"], "width": 4},
            {"id": "n", "op": "add", "args": ["a", "zero"], "width": 4},
        ],
        "outputs": [{"id": "out", "source": "n"}],
    }
    return parsed(doc)


def test_check_reports_a_pass_that_only_adds_taint(monkeypatch):
    # A defective pass makes n = a + zero read z = b * zero instead: the
    # same value, and b's tag added. A strict superset is a tag mismatch.
    from diftsim import simulator
    from diftsim.simulator import Mismatch

    def add_taint(k, diags=None):
        z, n = k.nodes
        return k._replace(nodes=(z, n._replace(args=("a", "z"))))

    monkeypatch.setattr(simulator, "const_fold", add_taint)
    kernel = add_zero_kernel()
    report = check_consistency(kernel, fine(2), samples=20, seed=0)
    rng = random.Random(0)
    expected = []
    for i in range(20):
        ri = sample_inputs(kernel, rng)
        ta, tb = ri.tags["a"], ri.tags["b"]
        if tb & ~ta:
            expected.append(Mismatch(i, "opt_tag", f"output out tag: {ta} vs {ta | tb}", ri))
    assert expected and report.mismatches == tuple(expected)


def test_check_reports_a_pass_that_halts_only_one_kernel(monkeypatch):
    # A defective pass that drops the checkpoint: the unoptimized run halts
    # at its deny and the optimized one runs to the end.
    from diftsim import simulator

    def drop_checkpoints(k, diags=None):
        return k._replace(checkpoints=())

    monkeypatch.setattr(simulator, "const_fold", drop_checkpoints)
    kernel = watched_add_kernel("n")
    report = check_consistency(kernel, fine(2, UNION, "halt"), samples=20, seed=0)
    rng = random.Random(0)
    tainted = [i for i in range(20) if sample_inputs(kernel, rng).tags["a"]]
    assert tainted, "no sample was tainted"
    assert [(m.sample, m.kind) for m in report.mismatches] == [
        (i, kind) for i in tainted for kind in ("opt_exceptions", "opt_value")
    ]
    assert {m.detail for m in report.mismatches if m.kind == "opt_value"} == {"halt state differs"}


def test_check_consistency_matches_a_run_by_run_reference(defective_passes):
    kernels = [load_kernel(n) for n in ("fir4.json", "dot8.json", "overflow_demo.json")]
    kernels += [parsed(d) for d in (DEAD_DIVISION_DOC, FOLDED_CHECKPOINT_DOC)]
    kinds = set()
    for kernel in kernels:
        for cfg in five_configs(kernel.tag_width):
            report = check_consistency(kernel, cfg, samples=60, seed=4)
            assert report.mismatches == reference_check(kernel, cfg, 60, 4), (kernel.name, cfg)
            kinds |= {m.kind for m in report.mismatches}
    # The defective passes give the last two kernels mismatches to compare.
    assert {"error", "opt_exceptions"} <= kinds


def reference_fuzz(k, trials, seed):
    """fuzz_properties' report, computed run by run: per trial, run_dift on
    fresh RunInputs for each run, the closure runs on a copy of k without
    initial memory tags."""
    from diftsim.simulator import Counterexample, PropertyReport

    rng = random.Random(seed)
    tw = k.tag_width
    cfgs = [fine(tw, UNION), fine(tw, PRECISE), coarse(tw)]
    zeroed = k._replace(memories=tuple(m._replace(init_tags=()) for m in k.memories))
    cexs = []
    for trial in range(trials):
        ri = sample_inputs(k, rng)

        def fresh(tags):
            return RunInputs(dict(ri.values), tags, dict(ri.memory))

        zero_ri = fresh({i.id: 0 for i in k.inputs})
        runs = [(zeroed, fresh(dict(zero_ri.tags)), cfg) for cfg in cfgs]
        runs += [(k, fresh(dict(ri.tags)), cfg) for cfg in cfgs]
        if k.inputs:
            picked = rng.choice(k.inputs).id
            extra = rng.randrange(1 << tw)
            wide_ri = fresh({**ri.tags, picked: ri.tags[picked] | extra})
            runs.append((k, fresh(dict(wide_ri.tags)), cfgs[0]))
        outcomes = [outcome(lambda: run_dift(*run)) for run in runs]
        traps = [o for o in outcomes if not isinstance(o, SimulationReport)]
        if traps:
            if len(traps) < len(outcomes) or len(set(traps)) > 1:
                detail = ", ".join(
                    "ok" if isinstance(o, SimulationReport) else f"{o[0]} at {o[1]}"
                    for o in outcomes
                )
                cexs.append(Counterexample("trap", trial, ri, f"runs disagree: {detail}"))
            continue
        for rep in outcomes[:3]:
            bad = [oid for oid, (_, t) in rep.outputs.items() if t]
            if bad or rep.exceptions:
                detail = (f"mode={rep.mode} rule={rep.rule} tainted outputs={bad} "
                          f"exceptions={len(rep.exceptions)}")
                cexs.append(Counterexample("closure", trial, zero_ri, detail))
        rep_u, rep_p, rep_c = outcomes[3:6]
        for oid, (_, t_p) in rep_p.outputs.items():
            t_u = rep_u.outputs[oid][1]
            if t_p & ~t_u:
                detail = f"output {oid}: precise {t_p:#x} not within union {t_u:#x}"
                cexs.append(Counterexample("precise_subset", trial, ri, detail))
        for rep in (rep_u, rep_p):
            for oid, (_, t) in rep.outputs.items():
                t_c = rep_c.outputs[oid][1]
                if t & ~t_c:
                    detail = f"output {oid}: fine({rep.rule}) {t:#x} not within boundary {t_c:#x}"
                    cexs.append(Counterexample("coarse_subset", trial, ri, detail))
        if k.inputs:
            for oid, (_, base_tag) in rep_u.outputs.items():
                wide_tag = outcomes[6].outputs[oid][1]
                if base_tag & ~wide_tag:
                    detail = (f"output {oid}: widening {picked} shrank the tag "
                              f"{base_tag:#x} -> {wide_tag:#x}")
                    cexs.append(Counterexample("monotonicity", trial, wide_ri, detail))
    return PropertyReport(k.name, trials, tuple(cexs))


def test_fuzz_matches_a_run_by_run_reference(monkeypatch):
    kernels = [load_kernel(n) for n in ("fir4.json", "dot8.json", "overflow_demo.json")]
    kernels += [parsed(d) for d in (DEAD_DIVISION_DOC, FOLDED_CHECKPOINT_DOC)]
    kernels.append(trap_kernel())
    for kernel in kernels:
        assert fuzz_properties(kernel, 60, seed=3) == reference_fuzz(kernel, 60, 3), kernel.name

    # The xor tag-rule mutant (see test_mutant_rule_caught_by_monotonicity)
    # gives counterexamples to compare.
    def xor_tag_fn(rule, kind, types, result_ty):
        return lambda x, y, z, tx, ty, tz: tx ^ ty  # fir4's nodes are all binary

    monkeypatch.setattr(diftsim.taint, "tag_fn", xor_tag_fn)
    fir4 = load_kernel("fir4.json")  # parsed here: its plan is lowered under the mutant
    report = fuzz_properties(fir4, 200, seed=5)
    assert report.counterexamples
    assert report == reference_fuzz(fir4, 200, 5)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: a store at a tainted address leaks")
def test_a_store_at_a_tainted_address_is_noninterfering():
    # store m[a] = 1, then load m[0]: whether the load reads 1 depends on
    # the tainted a. A run whose output tag lacks a's label bit must give
    # the same output value for both values of a.
    doc = {
        "name": "tainted_store_address",
        "tag_width": 1,
        "inputs": [{"id": "a", "width": 1, "default_tag": 1}],
        "constants": [{"id": "zero", "width": 1, "value": 0}, {"id": "one", "width": 1, "value": 1}],
        "memories": [{"id": "m", "size": 2, "width": 1}],
        "nodes": [
            {"id": "st", "op": "store", "args": ["m", "a", "one"]},
            {"id": "ld", "op": "load", "args": ["m", "zero"], "width": 1},
        ],
        "policies": [{"name": "any", "kind": "deny_if_any"}],
        "checkpoints": [{"id": "cp", "arg": "ld", "policy": "any"}],
        "outputs": [{"id": "out", "source": "ld"}],
    }
    kernel = parsed(doc)
    leaks = []
    for rule in (UNION, PRECISE):
        outs = {a: run_dift(kernel, RunInputs(values={"a": a}), fine(1, rule)).outputs["out"]
                for a in (0, 1)}
        if len({value for value, _ in outs.values()}) > 1 and any(not t & 1 for _, t in outs.values()):
            leaks.append((rule.value, outs))
    assert leaks == []
