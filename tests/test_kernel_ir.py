import gc
import json
import random
from itertools import product
from pathlib import Path

import gen
import pytest

from conftest import load_doc
from diftsim import kernel_ir, taint
from diftsim import (
    BitType,
    BitValue,
    CheckpointDecl,
    CoarseBoundary,
    DiftConfig,
    FineGrained,
    InputDecl,
    Kernel,
    Node,
    OpKind,
    OutputDecl,
    Policy,
    PolicyKind,
    PropagationRule,
    check_consistency,
    const_fold,
    dead_code_elim,
    emit_dot,
    instrument,
    parse_kernel,
    run_dift,
    sample_inputs,
    validate,
)
from diftsim.bitvalue import pad_operands, value_fn
from diftsim.kernel_ir import ConstDecl, MemoryDecl

GOLDEN = Path(__file__).parent / "golden"

UNION = PropagationRule.UNION


def cfg_for(kernel):
    return DiftConfig(kernel.tag_width, FineGrained(UNION))


def parse(doc: dict):
    return parse_kernel(json.dumps(doc))


def minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "tag_width": 2,
        "inputs": [{"id": "a", "width": 8, "signed": False}],
        "outputs": [{"id": "out", "source": "a"}],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_kernel():
    kernel, diags = parse(minimal_doc())
    assert kernel is not None and diags == []
    assert len(kernel.nodes) == 0
    assert kernel.outputs[0].source == "a"


def test_parse_fir4_counts(fir4):
    assert len(fir4.inputs) == 4
    assert len(fir4.nodes) == 7
    assert len(fir4.checkpoints) == 1


def test_validate_rejects_mask_of_other_width_than_tags():
    # parse_kernel keeps every mask within the kernel's tag width; a kernel
    # built by hand can hold a wider one, or no int, and validate must
    # catch it before a run judges tag bits against the mask.
    kernel, diags = parse(minimal_doc())
    assert kernel is not None, diags
    masked = kernel._replace(
        policies=(Policy("p", PolicyKind.DENY_IF_MASK, mask=0b100),),
        checkpoints=(CheckpointDecl("cp", "a", "p"),),
    )
    assert [(d.severity, d.location, d.message) for d in validate(masked)] == [
        ("error", "p", "mask 4 out of range for tag width 2")
    ]
    for bad in (-1, "1", True):
        wrong = masked._replace(policies=(Policy("p", PolicyKind.DENY_IF_MASK, mask=bad),))
        assert [d.message for d in validate(wrong)] == [
            f"mask {bad!r} out of range for tag width 2"
        ]
    same_width = masked._replace(policies=(Policy("p", PolicyKind.DENY_IF_MASK, mask=0b11),))
    assert validate(same_width) == []


def test_validate_on_valid_fixture_is_clean(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        assert validate(kernel) == []


# One malformed document per diagnostic branch of parse_kernel and
# validate, with the exact diagnostics it yields, in order.
W8 = {"width": 8}
W4 = {"width": 4}
MEM = {"id": "m", "size": 4, "width": 8}


def node(nid="n", op="add", args=("a", "a"), **fields):
    return {"id": nid, "op": op, "args": args, **fields}


def bad(*message):
    return [f"error: {m}" for m in message]


DIAGNOSTIC_CASES = {
    "invalid-json": ('{\n  "name": "x",\n  ???\n}', bad(
        "line 3: invalid JSON: Expecting property name enclosed in double quotes")),
    "too-deep": ("[" * 100000, bad("kernel: JSON nested too deeply")),
    "top-not-object": ("[1]", bad("kernel: top-level document must be an object")),
    "top-unknown-keys": (minimal_doc(zeta=1, alpha=2), bad("kernel: unknown keys: alpha, zeta")),
    "name-missing-tag_width-0": ({"tag_width": 0}, bad(
        "kernel: name must be a non-empty string",
        "kernel: tag_width must be an integer in 1..32")),
    "tag_width-true": (minimal_doc(tag_width=True), bad("kernel: tag_width must be an integer in 1..32")),
    "tag_width-missing": ({"name": "k"}, bad("kernel: tag_width must be an integer in 1..32")),
    "tag_width-str": (minimal_doc(tag_width="2"), bad("kernel: tag_width must be an integer in 1..32")),
    "tag_width-33": (minimal_doc(tag_width=33), bad("kernel: tag_width must be an integer in 1..32")),
    "entry-not-object": (minimal_doc(inputs=[5, {"id": "a", **W8}], outputs=["o"]), bad(
        "inputs[0]: entry must be an object", "outputs[0]: entry must be an object")),
    "item-unknown-keys": (minimal_doc(inputs=[{"id": "a", **W8, "zeta": 1, "alpha": 2}]), bad(
        "inputs[0]: unknown keys: alpha, zeta")),
    "section-not-list": (minimal_doc(nodes={"id": "n"}, policies="p"), bad(
        "nodes: nodes must be a list", "policies: policies must be a list")),
    "id-missing": (minimal_doc(inputs=[{"width": 8}]), bad("inputs[0]: id must be a non-empty string")),
    "id-empty": (minimal_doc(inputs=[{"id": "", "width": 8}]), bad(
        "inputs[0]: id must be a non-empty string")),
    "id-list-width-true": (minimal_doc(inputs=[{"id": ["a"], "width": True}]), bad(
        "inputs[0]: id must be a non-empty string", "inputs[0]: width must be an integer")),
    "ids-missing-everywhere": (
        minimal_doc(
            constants=[{"width": 8}],
            memories=[{"id": 3, "size": "4", "width": 8}],
            nodes=[{"op": "frob"}, {"op": "add", "args": "a", **W8}, {"op": "add", "args": ["a", "a"], **W8}],
            policies=[{"kind": "nope"}, {"kind": "deny_if_any"}],
            checkpoints=[{"arg": [], "policy": ""}],
            outputs=[{"source": 1}, {"id": "o2"}],
        ),
        bad(
            "constants[0]: id must be a non-empty string",
            "constants[0]: missing required key value",
            "memories[0]: id must be a non-empty string",
            "memories[0]: size must be an integer",
            "nodes[0]: id must be a non-empty string",
            "nodes[0]: unknown op 'frob'",
            "nodes[1]: id must be a non-empty string",
            "nodes[1]: args must be a list of ids",
            "nodes[2]: id must be a non-empty string",
            "policies[0]: name must be a non-empty string",
            "policies[0]: unknown policy kind 'nope'",
            "policies[1]: name must be a non-empty string",
            "checkpoints[0]: id must be a non-empty string",
            "checkpoints[0]: arg must be a non-empty string",
            "checkpoints[0]: policy must be a non-empty string",
            "outputs[0]: id must be a non-empty string",
            "outputs[0]: source must be a non-empty string",
            "output o2: source must be a non-empty string",
        ),
    ),
    "id-missing-after-bad-entries": (
        minimal_doc(nodes=[7, {"id": "n", "op": "add", "x": 1}, {"op": "frob"}, {"op": "frob"}]),
        bad(
            "nodes[0]: entry must be an object",
            "nodes[1]: unknown keys: x",
            "nodes[2]: id must be a non-empty string",
            "nodes[2]: unknown op 'frob'",
            "nodes[3]: id must be a non-empty string",
            "nodes[3]: unknown op 'frob'",
        ),
    ),
    "width-missing": (minimal_doc(inputs=[{"id": "a"}]), bad("input a: missing required key width")),
    "width-true": (minimal_doc(inputs=[{"id": "a", "width": True}]), bad(
        "input a: width must be an integer")),
    "width-float": (minimal_doc(inputs=[{"id": "a", "width": 8.0}]), bad(
        "input a: width must be an integer")),
    "width-65-twice": (minimal_doc(inputs=[{"id": "a", "width": 65}, {"id": "b", "width": 65}]), bad(
        "input a: width must be in 1..64, got 65", "input b: width must be in 1..64, got 65")),
    "width-0-signed": (minimal_doc(inputs=[{"id": "a", "width": 0, "signed": True}]), bad(
        "input a: width must be in 1..64, got 0")),
    "signed-list": (minimal_doc(inputs=[{"id": "a", **W8, "signed": []}]), bad(
        "input a: signed must be a boolean")),
    "width-true-signed-list": (minimal_doc(inputs=[{"id": "a", "width": True, "signed": []}]), bad(
        "input a: width must be an integer", "input a: signed must be a boolean")),
    "width-65-signed-list": (minimal_doc(inputs=[{"id": "a", "width": 65, "signed": []}]), bad(
        "input a: signed must be a boolean")),
    # (True, False) == (1, False) and (8, 0) == (8, False) as dict keys.
    "width-true-after-1": (minimal_doc(inputs=[{"id": "a", "width": 1}, {"id": "b", "width": True}]), bad(
        "input b: width must be an integer")),
    "signed-0-after-false": (minimal_doc(inputs=[{"id": "a", **W8}, {"id": "b", **W8, "signed": 0}]), bad(
        "input b: signed must be a boolean")),
    "default_tag-bad": (
        minimal_doc(inputs=[{"id": "a", **W8, "default_tag": True}, {"id": "b", **W8, "default_tag": "1"}]),
        bad("input a: default_tag must be an integer", "input b: default_tag must be an integer"),
    ),
    "constant-bad": (
        minimal_doc(constants=[
            {"id": "k", **W8}, {"id": "k2", **W8, "value": 1.0}, {"id": "k3", "width": 65, "value": False},
        ]),
        bad(
            "constant k: missing required key value",
            "constant k2: value must be an integer",
            "constant k3: width must be in 1..64, got 65",
            "constant k3: value must be an integer",
        ),
    ),
    "op-unknown": (minimal_doc(nodes=[node(op="frob"), node("n2", op="ADD")]), bad(
        "node n: unknown op 'frob'", "node n2: unknown op 'ADD'")),
    "op-list": (minimal_doc(nodes=[node(op=["add"], **W8)]), bad("node n: unknown op ['add']")),
    "op-dict": (minimal_doc(nodes=[node(op={"add": 1}, **W8)]), bad("node n: unknown op {'add': 1}")),
    "op-missing": (minimal_doc(nodes=[{"id": "n", "args": ["a", "a"], **W8}]), bad(
        "node n: unknown op None")),
    "args-not-list": (minimal_doc(nodes=[node(args="aa", **W8), {"id": "n2", "op": "not", **W8}]), bad(
        "node n: args must be a list of ids", "node n2: args must be a list of ids")),
    "args-non-string": (minimal_doc(nodes=[node(args=["a", 1], **W8)]), bad(
        "node n: args must be a list of ids")),
    "node-type-bad": (minimal_doc(nodes=[node(), node("n2", width=True, signed=1)]), bad(
        "node n: missing required key width",
        "node n2: width must be an integer",
        "node n2: signed must be a boolean")),
    "store-width": (minimal_doc(memories=[MEM], nodes=[node("s", "store", ["m", "a", "a"], width=8)]), bad(
        "node s: store nodes must not declare a result type")),
    "store-signed": (
        minimal_doc(memories=[MEM], nodes=[node("s", "store", ["m", "a", "a"], signed=False)]),
        bad("node s: store nodes must not declare a result type"),
    ),
    "memory-size-and-width": (minimal_doc(memories=[{"id": "m"}, {"id": "m2", "size": True, "width": 65}]), bad(
        "memory m: missing required key size",
        "memory m: missing required key width",
        "memory m2: size must be an integer",
        "memory m2: width must be in 1..64, got 65")),
    "init-bool": (minimal_doc(memories=[{**MEM, "init": [1, True]}]), bad(
        "memory m: init must be a list of integers")),
    "init-float": (minimal_doc(memories=[{**MEM, "init": [1.5]}]), bad(
        "memory m: init must be a list of integers")),
    "init-not-list": (minimal_doc(memories=[{**MEM, "init": 3, "init_tags": [True]}]), bad(
        "memory m: init must be a list of integers")),
    "init_tags-bool": (minimal_doc(memories=[{**MEM, "init": [1], "init_tags": [False]}]), bad(
        "memory m: init_tags must be a list of integers")),
    "init_tags-str": (minimal_doc(memories=[{**MEM, "init_tags": ["1"]}]), bad(
        "memory m: init_tags must be a list of integers")),
    "kind-unknown": (minimal_doc(policies=[{"name": "p", "kind": "deny"}]), bad(
        "policy p: unknown policy kind 'deny'")),
    "kind-list": (minimal_doc(policies=[{"name": "p", "kind": ["deny_if_any"]}]), bad(
        "policy p: unknown policy kind ['deny_if_any']")),
    "kind-missing": (minimal_doc(policies=[{"name": "p"}]), bad("policy p: unknown policy kind None")),
    "mask-list": (minimal_doc(policies=[{"name": "p", "kind": "deny_if_mask", "mask": [1]}]), bad(
        "policy p: mask must be an integer")),
    "mask-bool": (minimal_doc(policies=[{"name": "p", "kind": "deny_if_mask", "mask": True}]), bad(
        "policy p: mask must be an integer")),
    "mask-out-of-range": (
        minimal_doc(policies=[
            {"name": "p", "kind": "deny_if_mask", "mask": 4}, {"name": "q", "kind": "deny_if_mask", "mask": -1},
        ]),
        bad("policy p: mask 4 out of range for tag width 2", "policy q: mask -1 out of range for tag width 2"),
    ),
    "checkpoint-fields": (minimal_doc(checkpoints=[{"id": "c"}, {"id": "c2", "arg": "a", "policy": 1}]), bad(
        "checkpoint c: arg must be a non-empty string",
        "checkpoint c: policy must be a non-empty string",
        "checkpoint c2: policy must be a non-empty string")),
    "duplicate-ids": (
        minimal_doc(
            constants=[{"id": "a", **W8, "value": 1}],
            memories=[MEM, {**MEM, "size": 2}],
            outputs=[{"id": "out", "source": "a"}, {"id": "out", "source": "a"}],
        ),
        bad("a: duplicate id (constant)", "m: duplicate id (memory)", "out: duplicate id (output)"),
    ),
    "output-source-missing": (minimal_doc(outputs=[{"id": "out"}]), bad(
        "output out: source must be a non-empty string")),
    "validate-declarations": (
        minimal_doc(
            inputs=[{"id": "a", **W8, "default_tag": 4}, {"id": "a", **W8}],
            constants=[{"id": "k", "width": 4, "value": 300}],
            memories=[
                {"id": "m", "size": 0, **W8},
                {"id": "big", "size": (1 << 20) + 1, **W8},
                {"id": "full", "size": 2, **W8, "init": [1, 2, 3], "init_tags": [0, 4, 0]},
            ],
            policies=[{"name": "p", "kind": "deny_if_mask"}, {"name": "p", "kind": "allow_all", "mask": 1}],
            checkpoints=[{"id": "c", "arg": "m", "policy": "nope"}, {"id": "k", "arg": "a", "policy": "p"}],
            outputs=[{"id": "out", "source": "ghost"}],
        ),
        bad(
            "a: default_tag 4 out of range",
            "a: duplicate id (input)",
            "m: memory size must be at least 1",
            "big: memory size must be at most 1048576",
            "full: init has 3 values for 2 cells",
            "full: init_tags has 3 values for 2 cells",
            "full: init_tags contains a tag out of range",
            "p: deny_if_mask requires a mask",
            "p: duplicate policy name",
            "p: allow_all does not take a mask",
            "c: checkpoint argument m is not a value id",
            "c: checkpoint names unknown policy nope",
            "k: duplicate id (checkpoint)",
            "out: output source ghost is not a value id",
        ),
    ),
    "validate-nodes": (
        minimal_doc(
            memories=[MEM],
            nodes=[
                node("n1", args=["a"], **W8),
                node("n2", "not", ["a", "a", "a"], **W8),
                node("n3", args=["a", "later"], **W8),
                node("n4", args=["m", "a"], **W8),
                node("n5", "lt", width=1, signed=True),
                node("n6", "eq", width=2),
                node("l1", "load", ["a", "a"], **W8),
                node("l2", "load", ["m", "m"], width=4),
                node("s1", "store", ["a", "a", "a"]),
                node("s2", "store", ["m", "ghost", "m"]),
                node("later", **W8),
                node("n1", "neg", ["a"], **W8),
            ],
            checkpoints=[{"id": "c", "arg": "s1", "policy": "p"}],
            outputs=[{"id": "out", "source": "s2"}],
        ),
        bad(
            "n1: add takes 2 args, got 1",
            "n2: not takes 1 args, got 3",
            "n3: argument later is not defined yet",
            "n4: argument m is a memory, not a value",
            "n5: comparison result type must be u1",
            "n6: comparison result type must be u1",
            "l1: load target a is not a memory",
            "l2: argument m is a memory, not a value",
            "l2: load result type u4 does not match cell type u8",
            "s1: store target a is not a memory",
            "s2: argument ghost is not defined yet",
            "s2: argument m is a memory, not a value",
            "n1: duplicate id (node)",
            "c: checkpoint argument s1 is not a value id",
            "c: checkpoint names unknown policy p",
            "out: output source s2 is not a value id",
        ),
    ),
}


@pytest.mark.parametrize("case", list(DIAGNOSTIC_CASES))
def test_parse_diagnostics_golden(case):
    doc, expected = DIAGNOSTIC_CASES[case]
    kernel, diags = parse_kernel(doc if isinstance(doc, str) else json.dumps(doc))
    assert kernel is None
    assert [str(d) for d in diags] == expected


def test_validate_diagnostics_golden():
    # Branches parse_kernel never reaches: the Kernel is built by hand.
    m = kernel_ir.MemoryDecl("m", 4, U4)
    kernel = Kernel(
        name="hand",
        tag_width=2,
        inputs=(InputDecl("a", U4),),
        memories=(m,),
        nodes=(
            Node("l", OpKind.LOAD, ("m", "a")),
            Node("n", OpKind.ADD, ("a", "a")),
            Node("s", OpKind.STORE, ("m", "a", "a"), U4),
        ),
    )
    assert [str(d) for d in validate(kernel)] == bad(
        "l: load must declare a result type",
        "n: node must declare a result type",
        "s: store has no result type",
    )
    assert [str(d) for d in validate(kernel._replace(tag_width=33))] == bad(
        "kernel: tag_width must be in 1..32"
    )


def test_const_fold_basic():
    doc = minimal_doc(
        constants=[
            {"id": "k3", "width": 8, "signed": False, "value": 3},
            {"id": "k4", "width": 8, "signed": False, "value": 4},
        ],
        nodes=[
            {"id": "p", "op": "mul", "args": ["k3", "k4"], "width": 8, "signed": False},
            {"id": "q", "op": "add", "args": ["a", "k3"], "width": 8, "signed": False},
        ],
        outputs=[{"id": "out", "source": "q"}, {"id": "pout", "source": "p"}],
    )
    kernel, _ = parse(doc)
    folded = const_fold(kernel)
    assert [n.id for n in folded.nodes] == ["q"]  # non-constant operand survives
    by_id = {c.id: c for c in folded.constants}
    assert by_id["p"].value.bits == 12


def test_const_fold_cascades_and_is_idempotent():
    doc = minimal_doc(
        constants=[{"id": "k2", "width": 8, "signed": False, "value": 2}],
        nodes=[
            {"id": "n0", "op": "add", "args": ["k2", "k2"], "width": 8, "signed": False},
            {"id": "n1", "op": "mul", "args": ["n0", "k2"], "width": 8, "signed": False},
        ],
        outputs=[{"id": "out", "source": "n1"}],
    )
    kernel, _ = parse(doc)
    folded = const_fold(kernel)
    assert folded.nodes == ()
    assert {c.id: c.value.bits for c in folded.constants}["n1"] == 8
    assert const_fold(folded) == folded


def test_const_fold_div_by_zero_left_unfolded():
    doc = minimal_doc(
        constants=[
            {"id": "k0", "width": 8, "signed": False, "value": 0},
            {"id": "k7", "width": 8, "signed": False, "value": 7},
        ],
        nodes=[
            {"id": "d", "op": "div", "args": ["k7", "k0"], "width": 8, "signed": False},
            {"id": "m", "op": "mod", "args": ["k7", "k0"], "width": 8, "signed": False},
        ],
        outputs=[{"id": "out", "source": "a"}],
    )
    kernel, _ = parse(doc)
    diags = []
    folded = const_fold(kernel, diags)
    assert [n.id for n in folded.nodes] == ["d", "m"]
    assert [str(d) for d in diags] == [
        "warning: d: division by zero; node not folded",
        "warning: m: modulo by zero; node not folded",
    ]


def test_const_fold_preserves_checkpoint_exceptions():
    doc = minimal_doc(
        tag_width=2,
        constants=[{"id": "k5", "width": 8, "signed": False, "value": 5}],
        nodes=[
            {"id": "folded", "op": "add", "args": ["k5", "k5"], "width": 8, "signed": False},
            {"id": "mix", "op": "add", "args": ["a", "folded"], "width": 8, "signed": False},
        ],
        policies=[{"name": "any", "kind": "deny_if_any"}],
        checkpoints=[
            {"id": "cp_folded", "arg": "folded", "policy": "any"},
            {"id": "cp_mix", "arg": "mix", "policy": "any"},
        ],
        outputs=[{"id": "out", "source": "mix"}],
    )
    kernel, _ = parse(doc)
    folded = const_fold(kernel)
    assert validate(folded) == []
    rng = random.Random(11)
    cfg = cfg_for(kernel)
    for _ in range(100):
        ri = sample_inputs(kernel, rng)
        before = run_dift(kernel, ri, cfg)
        after = run_dift(folded, ri, cfg)
        assert before.outputs == after.outputs
        assert [
            (e.checkpoint_id, e.node_id, e.tag_bits, e.policy_name) for e in before.exceptions
        ] == [(e.checkpoint_id, e.node_id, e.tag_bits, e.policy_name) for e in after.exceptions]


def test_dce_removes_unused_node():
    doc = minimal_doc(
        nodes=[
            {"id": "used", "op": "add", "args": ["a", "a"], "width": 8, "signed": False},
            {"id": "unused", "op": "sub", "args": ["a", "a"], "width": 8, "signed": False},
        ],
        outputs=[{"id": "out", "source": "used"}],
    )
    kernel, _ = parse(doc)
    slim = dead_code_elim(kernel)
    assert [n.id for n in slim.nodes] == ["used"]
    assert dead_code_elim(slim) == slim


def test_dce_keeps_checkpoint_only_nodes_and_stores():
    doc = minimal_doc(
        tag_width=2,
        memories=[{"id": "m", "size": 4, "width": 8, "signed": False}],
        nodes=[
            {"id": "watch", "op": "add", "args": ["a", "a"], "width": 8, "signed": False},
            {"id": "st", "op": "store", "args": ["m", "a", "a"]},
        ],
        policies=[{"name": "any", "kind": "deny_if_any"}],
        checkpoints=[{"id": "cp", "arg": "watch", "policy": "any"}],
    )
    kernel, _ = parse(doc)
    slim = dead_code_elim(kernel)
    assert [n.id for n in slim.nodes] == ["watch", "st"]
    assert slim.memories == kernel.memories


def test_dce_drops_exactly_two_on_dot8(dot8):
    slim = dead_code_elim(dot8)
    assert len(dot8.nodes) - len(slim.nodes) == 2
    assert {n.id for n in dot8.nodes} - {n.id for n in slim.nodes} == {"dead1", "dead2"}
    rng = random.Random(23)
    cfg = cfg_for(dot8)
    for _ in range(100):
        ri = sample_inputs(dot8, rng)
        assert run_dift(dot8, ri, cfg).outputs == run_dift(slim, ri, cfg).outputs


def dot_body(dot):
    """The node and edge lines of a DOT text: header and footer cut."""
    return dot.splitlines()[3:-1]


def test_instrument_records_kernel_and_rule(fir4):
    for mode, rule in (
        (FineGrained(UNION), "union"),
        (FineGrained(PropagationRule.PRECISE), "precise"),
        (CoarseBoundary(), "boundary"),
    ):
        cfg = DiftConfig(fir4.tag_width, mode)
        assert instrument(fir4, cfg) == kernel_ir.InstrumentedGraph(fir4, rule)


def test_instrument_structure_counts(fir4):
    body = dot_body(emit_dot(instrument(fir4, cfg_for(fir4))))
    nodes = [line for line in body if " -> " not in line]
    ids = [line.split('"')[1] for line in nodes]
    # every input, constant, memory and op has a value node and, in the
    # same order, a tag node; outputs (style=bold) have only a value node
    values = [i for i, line in zip(ids, nodes) if i.startswith("v:") and "style=bold" not in line]
    decls = (fir4.inputs, fir4.constants, fir4.memories, fir4.nodes)
    assert values == ["v:" + d.id for section in decls for d in section]
    assert [i for i in ids if i.startswith("t:")] == ["t:" + v[2:] for v in values]
    ops = [line for line in nodes if line.startswith('  "v:') and "shape=box, style=rounded" in line]
    tag_ops = [line for line in nodes if line.endswith('.tag = union"];')]
    assert len(ops) == len(tag_ops) == len(fir4.nodes)
    monitor_edges = [line for line in body if '-> "monitor:0"' in line]
    assert len(monitor_edges) == len(fir4.checkpoints)


def test_instrument_zero_checkpoints_keeps_monitor():
    kernel, _ = parse(minimal_doc())
    body = dot_body(emit_dot(instrument(kernel, cfg_for(kernel))))
    assert '  "monitor:0" [shape=box, peripheries=2, label="monitor"];' in body
    assert not any('-> "monitor:0"' in line for line in body)


def test_instrument_value_view_isomorphic(fir4, dot8, overflow_demo):
    # The instrumented view's value lines are the plain view's lines
    # without its checkpoint (c:) nodes and edges.
    for kernel in (fir4, dot8, overflow_demo):
        instrumented = emit_dot(instrument(kernel, cfg_for(kernel)))
        plain = emit_dot(kernel)
        assert instrumented.splitlines()[:3] == plain.splitlines()[:3]
        plain_values = [line for line in dot_body(plain) if '"c:' not in line]
        assert all(line.startswith('  "v:') for line in plain_values)
        assert [line for line in dot_body(instrumented) if line.startswith('  "v:')] == plain_values


def test_emit_dot_empty_kernel():
    kernel, _ = parse(minimal_doc())
    dot = emit_dot(kernel)
    assert '"v:a"' in dot and '"v:out"' in dot
    assert "monitor" not in dot


# Every id, the kernel name, the policy name and the checkpoint id carry a
# quote or a backslash, and every kind of declaration is present.
ESCAPED_DOC = {
    "name": 'esc "k" \\ 1',
    "tag_width": 2,
    "inputs": [{"id": 'a"1', "width": 4, "signed": False, "default_tag": 1}],
    "constants": [{"id": "c\\2", "width": 4, "signed": True, "value": -3}],
    "memories": [{"id": 'm"\\', "size": 4, "width": 4, "signed": False}],
    "nodes": [
        {"id": 'ld\\"x', "op": "load", "args": ['m"\\', 'a"1'], "width": 4, "signed": False},
        {"id": 's"', "op": "add", "args": ['ld\\"x', "c\\2"], "width": 4, "signed": False},
        {"id": "st\\", "op": "store", "args": ['m"\\', 'a"1', 's"']},
    ],
    "policies": [{"name": 'p"\\q', "kind": "deny_if_any"}],
    "checkpoints": [
        {"id": 'cp"1\\', "arg": 's"', "policy": 'p"\\q'},
        {"id": "cp\\0", "arg": 'a"1', "policy": 'p"\\q'},
    ],
    "outputs": [{"id": 'o\\"', "source": 's"'}],
}


# validate rejects this kernel: an argument no declaration names (its id
# holds a quote), a store to a value, and a checkpoint and an output on
# undeclared ids. The goldens pin what emit_dot draws for it anyway.
U4 = BitType(4, False)
INVALID_KERNEL = Kernel(
    name="invalid",
    tag_width=2,
    inputs=(InputDecl("a", U4, 1),),
    nodes=(
        Node("n", OpKind.ADD, ("a", 'u"x'), U4),
        Node("st", OpKind.STORE, ("n", "a", "n")),
    ),
    checkpoints=(
        CheckpointDecl("cp", 'gh"ost', "p"),
        CheckpointDecl("cq", "n", "p"),
    ),
    policies=(Policy("p", PolicyKind.DENY_IF_ANY),),
    outputs=(OutputDecl("o", "mis\\sing"),),
)

GOLDEN_CONFIGS = {
    "instrumented": lambda k: DiftConfig(k.tag_width, FineGrained(UNION)),
    "precise": lambda k: DiftConfig(k.tag_width, FineGrained(PropagationRule.PRECISE)),
    "coarse": lambda k: DiftConfig(k.tag_width, CoarseBoundary()),
}


def golden_kernel(name, request):
    if name == "escaped":
        kernel, diags = parse(ESCAPED_DOC)
        assert kernel is not None, diags
        return kernel
    if name == "invalid":
        assert any(d.severity == "error" for d in validate(INVALID_KERNEL))
        return INVALID_KERNEL
    return request.getfixturevalue(name)


@pytest.mark.parametrize(
    "name, view",
    [
        ("fir4", "instrumented"),
        ("fir4", "plain"),
        ("fir4", "precise"),
        ("fir4", "coarse"),
        ("dot8", "instrumented"),
        ("dot8", "plain"),
        ("overflow_demo", "instrumented"),
        ("overflow_demo", "plain"),
        ("escaped", "instrumented"),
        ("escaped", "plain"),
        ("invalid", "instrumented"),
        ("invalid", "plain"),
    ],
)
def test_emit_dot_matches_golden(name, view, request):
    kernel = golden_kernel(name, request)
    graph = kernel if view == "plain" else instrument(kernel, GOLDEN_CONFIGS[view](kernel))
    expected = (GOLDEN / f"{name}_{view}.dot").read_text()
    assert emit_dot(graph) == expected
    if view == "plain":
        assert "monitor" not in expected
    else:
        assert "style=dashed" in expected and "monitor" in expected


def test_emit_dot_escapes_quotes_and_backslashes():
    # DOT quoted strings escape " as \" and \ as \\; the raw strings below
    # are the bytes emit_dot writes.
    kernel, _ = parse(ESCAPED_DOC)
    instrumented = emit_dot(instrument(kernel, cfg_for(kernel)))
    plain = emit_dot(kernel)
    for dot in (instrumented, plain):
        assert dot.startswith(r'digraph "esc \"k\" \\ 1" {' + "\n")
        assert r'"v:ld\\\"x" [shape=box, style=rounded, label="ld\\\"x = load : u4"];' in dot
        assert r'"v:m\"\\" -> "v:ld\\\"x";' in dot
    label = r'label="cp\"1\\: p\"\\q", fontsize=9'
    assert r'"t:s\"" -> "monitor:0" [style=dashed, color=gray40, ' + label + "];" in instrumented
    assert r'"c:cp\\0" [shape=diamond, label="cp\\0: p\"\\q"];' in plain


# Every string position emit_dot writes, each holding its own placeholder.
# The arguments, the output's source and the checkpoint's argument name no
# declaration, so each string is written only where its position puts it.
DOT_POSITIONS = {
    "kernel-name": "P00",
    "input-id": "P01",
    "constant-id": "P02",
    "memory-id": "P03",
    "two-operand-node-id": "P04",
    "two-operand-node-arg-0": "P05",
    "two-operand-node-arg-1": "P06",
    "one-operand-node-id": "P07",
    "one-operand-node-arg": "P08",
    "store-id": "P09",
    "store-memory": "P10",
    "store-address": "P11",
    "store-value": "P12",
    "mux-id": "P13",
    "mux-selector": "P14",
    "mux-arg-1": "P15",
    "mux-arg-2": "P16",
    "checkpoint-id": "P17",
    "checkpoint-arg": "P18",
    "checkpoint-policy": "P19",
    "output-id": "P20",
    "output-source": "P21",
}


def positions_kernel(at: str = "", text: str = "") -> Kernel:
    """The kernel of DOT_POSITIONS, text in place of the placeholder at.
    validate rejects it; emit_dot draws it all the same."""
    def s(placeholder):
        return text if placeholder == at else placeholder

    s4 = BitType(4, True)
    return Kernel(
        name=s("P00"),
        tag_width=2,
        inputs=(InputDecl(s("P01"), U4, 1),),
        constants=(ConstDecl(s("P02"), BitValue(s4, 13)),),
        memories=(MemoryDecl(s("P03"), 4, U4),),
        nodes=(
            Node(s("P04"), OpKind.ADD, (s("P05"), s("P06")), U4),
            Node(s("P07"), OpKind.NOT, (s("P08"),), U4),
            Node(s("P09"), OpKind.STORE, (s("P10"), s("P11"), s("P12"))),
            Node(s("P13"), OpKind.MUX, (s("P14"), s("P15"), s("P16")), U4),
        ),
        checkpoints=(CheckpointDecl(s("P17"), s("P18"), s("P19")),),
        outputs=(OutputDecl(s("P20"), s("P21")),),
    )


@pytest.mark.parametrize("view", ["plain", "instrumented"])
@pytest.mark.parametrize("at", DOT_POSITIONS.values(), ids=DOT_POSITIONS.keys())
def test_emit_dot_escapes_a_string_at_each_position_on_its_own(at, view):
    # The drawing of a kernel whose only string with a quote and a
    # backslash is at one position is the drawing with a plain placeholder
    # there, and that placeholder's text escaped.
    def draw(k):
        return emit_dot(k if view == "plain" else instrument(k, cfg_for(k)))

    plain = draw(positions_kernel())
    assert at in plain
    assert draw(positions_kernel(at, 'q"\\')) == plain.replace(at, r"q\"\\")


def test_emit_dot_draws_a_typed_store_as_a_store():
    # A store that declares a result type (invalid) is drawn as any store,
    # though emit_dot words a node's label once per (op, type).
    typed_store = Node("st", OpKind.STORE, ("n", "a", "n"), U4)
    typed = INVALID_KERNEL._replace(nodes=(INVALID_KERNEL.nodes[0], typed_store))
    assert emit_dot(typed) == emit_dot(INVALID_KERNEL)
    cfg = cfg_for(typed)
    assert emit_dot(instrument(typed, cfg)) == emit_dot(instrument(INVALID_KERNEL, cfg))
    # A store of two arguments draws them and its edge back to its first,
    # like a store of three, not like a two-operand node.
    short = INVALID_KERNEL._replace(nodes=(Node("st", OpKind.STORE, ("n", "a")),))
    plain, tagged = dot_body(emit_dot(short)), dot_body(emit_dot(instrument(short, cfg)))
    edges = ['  "v:n" -> "v:st";', '  "v:a" -> "v:st";', '  "v:st" -> "v:n";']
    assert [line for line in plain if line in edges] == edges
    tag_edges = [e.replace('"v:', '"t:').replace(";", " [style=dashed, color=gray40];") for e in edges]
    assert [line for line in tagged if line in tag_edges] == tag_edges


def test_lower_specialises_each_distinct_signature_once(monkeypatch):
    calls = {"value_fn": 0, "tag_fn": 0}

    def counted(name, fn):
        def count(*args):
            calls[name] += 1
            return fn(*args)
        return count

    monkeypatch.setattr(kernel_ir, "value_fn", counted("value_fn", kernel_ir.value_fn))
    monkeypatch.setattr(taint, "tag_fn", counted("tag_fn", taint.tag_fn))
    u8 = {"width": 8}
    kernel, diags = parse(
        {
            "name": "repeats",
            "tag_width": 2,
            "inputs": [{"id": "a", **u8}, {"id": "b", **u8}, {"id": "s", "width": 4, "signed": True}],
            "memories": [{"id": "m1", "size": 4, **u8}, {"id": "m2", "size": 4, **u8}],
            "nodes": [
                {"id": "n1", "op": "add", "args": ["a", "b"], **u8},  # add u8 (u8, u8)
                {"id": "n2", "op": "add", "args": ["b", "n1"], **u8},
                {"id": "n3", "op": "add", "args": ["n2", "n2"], **u8},
                {"id": "n4", "op": "add", "args": ["a", "b"], "width": 9},  # add u9 (u8, u8)
                {"id": "n5", "op": "add", "args": ["a", "s"], **u8},  # add u8 (u8, s4)
                {"id": "n6", "op": "add", "args": ["b", "s"], **u8},
                {"id": "n7", "op": "mul", "args": ["a", "b"], **u8},  # mul u8 (u8, u8)
                {"id": "l1", "op": "load", "args": ["m1", "s"], **u8},  # load m1 s4
                {"id": "l2", "op": "load", "args": ["m2", "s"], **u8},  # load m2 s4
                {"id": "l3", "op": "load", "args": ["m2", "s"], **u8},
                {"id": "w1", "op": "store", "args": ["m1", "s", "n3"]},  # store m1 (s4, u8)
                {"id": "w2", "op": "store", "args": ["m1", "s", "n6"]},
                {"id": "w3", "op": "store", "args": ["m2", "s", "n7"]},  # store m2 (s4, u8)
            ],
            "outputs": [{"id": "out", "source": "n4"}],
        }
    )
    assert kernel is not None, diags
    plan = kernel_ir.lower(kernel)
    distinct = 8
    assert calls == {"value_fn": distinct, "tag_fn": 2 * distinct}
    assert len(plan.steps) == len(kernel.nodes)


# Every opcode at mixed widths and signednesses: two memories of one shape
# (a signature must tell them apart), muxes and stores that differ only in
# their last operand's type, one op at two result types, and checkpoints
# on an input, a constant and nodes.
_VALUE_OPS = ["add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr"]
ALL_OPS_DOC = {
    "name": "all-ops",
    "tag_width": 3,
    "inputs": [
        {"id": "a", "width": 8},
        {"id": "b", "width": 8},
        {"id": "s", "width": 4, "signed": True},
        {"id": "w", "width": 16, "signed": True},
        {"id": "c", "width": 1},
    ],
    "constants": [{"id": "k", "width": 8, "signed": True, "value": -3}],
    "memories": [{"id": "m1", "size": 4, "width": 8}, {"id": "m2", "size": 4, "width": 8}],
    "nodes": [
        *[node(f"{op}8", op, ["a", "s"], width=8) for op in _VALUE_OPS],
        *[node(f"{op}16", op, ["w", "k"], width=16, signed=True) for op in _VALUE_OPS],
        node("add9", "add", ["a", "s"], width=9),
        *[node(op, op, ["s", "w"], width=1) for op in ["eq", "ne", "lt", "le", "gt", "ge"]],
        node("not4", "not", ["s"], width=4, signed=True),
        node("neg9", "neg", ["a"], width=9, signed=True),
        node("mux_ab", "mux", ["c", "a", "b"], width=8),
        node("mux_as", "mux", ["c", "a", "s"], width=8),
        node("ld1", "load", ["m1", "s"], width=8),
        node("ld2", "load", ["m2", "s"], width=8),
        node("st1", "store", ["m1", "s", "a"]),
        node("st1s", "store", ["m1", "s", "s"]),
        node("st2", "store", ["m2", "s", "a"]),
    ],
    "policies": [{"name": "any", "kind": "deny_if_any"}, {"name": "one", "kind": "deny_if_mask", "mask": 1}],
    "checkpoints": [
        {"id": "cp_mux", "arg": "mux_as", "policy": "any"},
        {"id": "cp_a", "arg": "a", "policy": "one"},
        {"id": "cp_k", "arg": "k", "policy": "any"},
        {"id": "cp_ld", "arg": "ld2", "policy": "one"},
        {"id": "cp_mux2", "arg": "mux_as", "policy": "one"},
    ],
    "outputs": [{"id": "o1", "source": "add9"}, {"id": "o2", "source": "a"}],
}


# Every op over the types below at every result type validate allows, and
# load and store on two memories of different cell types: nodes whose
# semantics differ in any way the lowering memo could wrongly share.
MEMO_TYPES = {"u1": (1, False), "u2": (2, False), "s2": (2, True), "u3": (3, False), "s3": (3, True)}
MEMORY_CELLS = [0, 7, -1, 2]  # raw ints, as a memory override may leave them
MEMORY_TAGS = [0, 1, 1, 0]


def typed(name):
    width, signed = MEMO_TYPES[name]
    return {"width": width, "signed": signed}


def memo_doc():
    nodes = []

    def add(op, args, result=None):
        nodes.append(node(f"n{len(nodes)}", op, list(args), **(typed(result) if result else {})))

    names = list(MEMO_TYPES)
    for op in _VALUE_OPS:
        for result, x, y in product(names, repeat=3):
            add(op, (x, y), result)
    for op in ["eq", "ne", "lt", "le", "gt", "ge"]:
        for x, y in product(names, repeat=2):
            add(op, (x, y), "u1")
    for op, result, x in product(["not", "neg"], names, names):
        add(op, (x,), result)
    for result, sel, y, z in product(names, ["u1", "s2"], names, names):
        add("mux", (sel, y, z), result)
    for memory, cell in (("mu2", "u2"), ("ms3", "s3")):
        for addr in names:
            add("load", (memory, addr), cell)
        for addr, data in product(names, names):
            add("store", (memory, addr, data))
    return minimal_doc(
        tag_width=1,
        inputs=[{"id": n, **typed(n)} for n in names],
        constants=[{"id": f"k{n}", "value": -1, **typed(n)} for n in names],
        memories=[{"id": "mu2", "size": 4, **typed("u2")}, {"id": "ms3", "size": 4, **typed("s3")}],
        nodes=nodes,
        outputs=[{"id": "out", "source": "u1"}],
    )


def outcome(fn, *operands):
    """fn's result on operands, given fresh copies of any list, with the
    lists after the call; or the error it raises, by type and message."""
    operands = [list(x) if type(x) is list else x for x in operands]
    try:
        return fn(*operands), operands
    except Exception as e:  # a trap is part of the semantics compared
        return type(e), str(e)


def test_each_lowered_step_computes_its_own_nodes_semantics():
    kernel, diags = parse(memo_doc())
    assert kernel is not None, diags
    types = {i.id: i.ty for i in kernel.inputs} | {m.id: m for m in kernel.memories}
    plan = kernel_ir.lower(kernel)
    assert len(plan.steps) == len(kernel.nodes) > 1500
    for (_, op, args, ty), (_, value, _, _, _, union, precise) in zip(kernel.nodes, plan.steps):
        arg_types = [types[a] for a in args]
        want = [
            value_fn(op, arg_types, ty),
            taint.tag_fn(UNION, op, arg_types, ty),
            taint.tag_fn(PropagationRule.PRECISE, op, arg_types, ty),
        ]
        if [value, union, precise] == want:  # the very functions: they agree everywhere
            continue
        domains = [[MEMORY_CELLS] if type(t) is MemoryDecl else range(1 << t.width) for t in arg_types]
        tag_domains = [[MEMORY_TAGS] if type(t) is MemoryDecl else (0, 1) for t in arg_types]
        for bits in product(*domains):
            x = pad_operands(bits)
            assert outcome(value, *x) == outcome(want[0], *x), (op, arg_types, ty, bits)
            for tags in product(*tag_domains):
                t = pad_operands(tags)
                for got, expected in zip((union, precise), want[1:]):
                    assert outcome(got, *x, *t) == outcome(expected, *x, *t), (op, arg_types, ty, bits, tags)


def test_emit_dot_labels_each_input_and_constant_with_its_own_type():
    kernel, diags = parse(memo_doc())
    assert kernel is not None, diags
    dot = emit_dot(kernel)
    for iid, ty, _ in kernel.inputs:
        assert f'  "v:{iid}" [shape=ellipse, label="{iid} : {ty}"];' in dot
    for cid, (ty, bits) in kernel.constants:  # each holds -1, wrapped to its type
        value = -1 if ty.signed else bits
        assert f'  "v:{cid}" [shape=box, label="{cid} = {value} : {ty}"];' in dot


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_kernel_pauses_the_collector_and_leaves_it_as_found(monkeypatch, enabled):
    # parse_kernel builds thousands of records with the cyclic collector
    # off, so what it builds and drops must be acyclic: reference counting
    # alone frees it. The collector is left as it was, also on an error.
    seen = []
    load_json = kernel_ir.load_json

    def observed(*args):
        seen.append(gc.isenabled())
        if args[0] == "raise":
            raise RuntimeError("raise")
        return load_json(*args)

    monkeypatch.setattr(kernel_ir, "load_json", observed)
    docs = (gen.fir(64, 0), gen.dot(64, 0), ESCAPED_DOC, minimal_doc(nodes=[node()]))
    texts = [json.dumps(doc) for doc in docs] + ["[1, 2", "[]"]
    gc.collect()
    (gc.enable if enabled else gc.disable)()
    try:
        parsed = [parse_kernel(text) for text in texts]
        assert gc.isenabled() is enabled
        assert [k is not None for k, _ in parsed] == [True, True, True, False, False, False]
        del parsed
        assert gc.collect() == 0
        with pytest.raises(RuntimeError):
            parse_kernel("raise")
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False] * (len(texts) + 1)


FAST_PATH_DOCS = {
    **{name: load_doc(f"{name}.json") for name in ("fir4", "dot8", "overflow_demo")},
    **{f"fir{seed}": gen.fir(8, seed) for seed in range(3)},
    **{f"dot{seed}": gen.dot(8, seed) for seed in range(3)},
    **{f"deny{seed}": gen.deny(seed, 40) for seed in range(3)},
    "memo": memo_doc(),
}


@pytest.mark.parametrize("name", FAST_PATH_DOCS)
def test_parsed_and_folded_records_are_what_the_public_constructors_build(name):
    # parse_kernel and const_fold build their records without running the
    # records' constructors; each must still be the validated record.
    kernel, diags = parse(FAST_PATH_DOCS[name])
    assert kernel is not None, diags
    for k in (kernel, const_fold(kernel)):
        rebuilt = (
            [InputDecl(i, BitType(*ty), tag) for i, ty, tag in k.inputs],
            [ConstDecl(c, BitValue(BitType(*ty), bits)) for c, (ty, bits) in k.constants],
            [Node(n, OpKind(op.value), tuple(args), ty and BitType(*ty)) for n, op, args, ty in k.nodes],
        )
        for records, expected in zip((k.inputs, k.constants, k.nodes), rebuilt):
            assert list(records) == expected
            assert [type(r) for r in records] == [type(r) for r in expected]
        assert {type(value) for _, value in k.constants} <= {BitValue}
    doc_constants = FAST_PATH_DOCS[name].get("constants", [])
    assert [bits for _, (_, bits) in kernel.constants] == [
        c["value"] & ((1 << c["width"]) - 1) for c in doc_constants
    ]


def test_passes_idempotent_on_fixtures(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        folded = const_fold(kernel)
        assert const_fold(folded) == folded
        assert validate(dead_code_elim(folded)) == []
        slim = dead_code_elim(kernel)
        assert dead_code_elim(slim) == slim


# A live add beside a dead div that traps when b is 0.
DEAD_DIVISION_DOC = minimal_doc(
    inputs=[{"id": "a", "width": 4}, {"id": "b", "width": 4}],
    nodes=[node("q", "div", ["a", "b"], width=4), node("s", **W4)],
    outputs=[{"id": "out", "source": "s"}],
)

# Checkpoints on a node and on a constant expression that const_fold folds.
FOLDED_CHECKPOINT_DOC = minimal_doc(
    inputs=[{"id": "a", "width": 4}],
    constants=[{"id": "k", "width": 4, "value": 3}],
    nodes=[node("n0", **W4), node("f", args=["k", "k"], **W4)],
    policies=[{"name": "any", "kind": "deny_if_any"}],
    checkpoints=[
        {"id": "c0", "arg": "n0", "policy": "any"},
        {"id": "c1", "arg": "f", "policy": "any"},
    ],
    outputs=[{"id": "out", "source": "n0"}],
)


# ROADMAP Open item 1: dead_code_elim breaks behaviour on this kernel.
# The fix must remove the xfail marker.
@pytest.mark.xfail(strict=True, reason="ROADMAP Open item 1: dead_code_elim drops a dead node that traps")
def test_dce_keeps_dead_division_that_traps():
    kernel, diags = parse(DEAD_DIVISION_DOC)
    assert kernel is not None, diags
    report = check_consistency(kernel, cfg_for(kernel), samples=200, seed=0)
    assert report.mismatches == ()


@pytest.mark.parametrize("on_exception", ["record", "halt"])
def test_const_fold_keeps_coarse_exception_order(on_exception):
    kernel, diags = parse(FOLDED_CHECKPOINT_DOC)
    assert kernel is not None, diags
    cfg = DiftConfig(kernel.tag_width, CoarseBoundary(), on_exception)
    report = check_consistency(kernel, cfg, samples=50, seed=0)
    assert report.mismatches == ()
