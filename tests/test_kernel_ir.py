import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from diftsim import kernel_ir, taint
from diftsim import (
    BitType,
    CheckpointDecl,
    CoarseBoundary,
    DiftConfig,
    FineGrained,
    InputDecl,
    InstrumentedGraph,
    Kernel,
    Node,
    OpKind,
    OutputDecl,
    Policy,
    PolicyKind,
    PropagationRule,
    Tag,
    const_fold,
    dead_code_elim,
    emit_dot,
    instrument,
    parse_kernel,
    run_dift,
    sample_inputs,
    validate,
)

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


def test_undefined_id_is_named_in_diagnostic():
    doc = minimal_doc(
        nodes=[{"id": "n0", "op": "add", "args": ["a", "ghost"], "width": 8, "signed": False}]
    )
    kernel, diags = parse(doc)
    assert kernel is None
    assert any("ghost" in d.message and d.severity == "error" for d in diags)


def test_later_defined_id_rejected():
    doc = minimal_doc(
        nodes=[
            {"id": "n0", "op": "add", "args": ["a", "n1"], "width": 8, "signed": False},
            {"id": "n1", "op": "add", "args": ["a", "a"], "width": 8, "signed": False},
        ]
    )
    kernel, diags = parse(doc)
    assert kernel is None
    assert any("n1" in d.message for d in diags if d.severity == "error")


def test_unknown_keys_rejected():
    kernel, diags = parse(minimal_doc(frobnicate=1))
    assert kernel is None and any("frobnicate" in d.message for d in diags)
    doc = minimal_doc()
    doc["inputs"][0]["surprise"] = True
    kernel, diags = parse(doc)
    assert kernel is None and any("surprise" in d.message for d in diags)


def test_malformed_json_reports_line():
    kernel, diags = parse_kernel('{\n  "name": "x",\n  ???\n}')
    assert kernel is None
    assert diags[0].severity == "error"
    assert diags[0].location.startswith("line ")


def test_validator_rules():
    bad_policy = minimal_doc(checkpoints=[{"id": "cp", "arg": "a", "policy": "nope"}])
    kernel, diags = parse(bad_policy)
    assert kernel is None and any("nope" in d.message for d in diags)

    dup = minimal_doc(constants=[{"id": "a", "width": 4, "signed": False, "value": 1}])
    kernel, diags = parse(dup)
    assert kernel is None and any("duplicate" in d.message for d in diags)

    bad_cmp = minimal_doc(
        nodes=[{"id": "c", "op": "lt", "args": ["a", "a"], "width": 4, "signed": False}]
    )
    kernel, diags = parse(bad_cmp)
    assert kernel is None and any("u1" in d.message for d in diags)

    bad_store = minimal_doc(
        memories=[{"id": "m", "size": 4, "width": 8, "signed": False}],
        nodes=[{"id": "s", "op": "store", "args": ["m", "a", "a"], "width": 8}],
    )
    kernel, diags = parse(bad_store)
    assert kernel is None and any("store" in d.message for d in diags)

    bad_arity = minimal_doc(
        nodes=[{"id": "n", "op": "add", "args": ["a"], "width": 8, "signed": False}]
    )
    kernel, diags = parse(bad_arity)
    assert kernel is None and any("takes 2 args" in d.message for d in diags)

    bad_op = minimal_doc(nodes=[{"id": "n", "op": "frob", "args": [], "width": 8}])
    kernel, diags = parse(bad_op)
    assert kernel is None and any("unknown op" in d.message for d in diags)

    bad_load_ty = minimal_doc(
        memories=[{"id": "m", "size": 4, "width": 8, "signed": False}],
        nodes=[{"id": "l", "op": "load", "args": ["m", "a"], "width": 4, "signed": False}],
    )
    kernel, diags = parse(bad_load_ty)
    assert kernel is None and any("cell type" in d.message for d in diags)

    bad_tag = minimal_doc()
    bad_tag["inputs"][0]["default_tag"] = 4  # tag_width 2 allows 0..3
    kernel, diags = parse(bad_tag)
    assert kernel is None and any("default_tag" in d.message for d in diags)

    bad_mask = minimal_doc(policies=[{"name": "p", "kind": "deny_if_mask"}])
    kernel, diags = parse(bad_mask)
    assert kernel is None and any("mask" in d.message for d in diags)

    store_as_source = minimal_doc(
        memories=[{"id": "m", "size": 4, "width": 8, "signed": False}],
        nodes=[{"id": "s", "op": "store", "args": ["m", "a", "a"]}],
        outputs=[{"id": "out", "source": "s"}],
    )
    kernel, diags = parse(store_as_source)
    assert kernel is None and any("not a value id" in d.message for d in diags)


def test_validate_rejects_mask_of_other_width_than_tags():
    # parse_kernel makes every mask at the kernel's tag width; a kernel
    # built by hand can hold another width, and validate must catch it
    # before a run judges tag bits against the mask.
    kernel, diags = parse(minimal_doc())
    assert kernel is not None, diags
    masked = replace(
        kernel,
        policies=(Policy("p", PolicyKind.DENY_IF_MASK, mask=Tag(4, 0b1)),),
        checkpoints=(CheckpointDecl("cp", "a", "p"),),
    )
    assert [(d.severity, d.location, d.message) for d in validate(masked)] == [
        ("error", "p", "mask width does not match kernel tag width")
    ]
    same_width = replace(masked, policies=(Policy("p", PolicyKind.DENY_IF_MASK, mask=Tag(2, 0b1)),))
    assert validate(same_width) == []


def test_validate_on_valid_fixture_is_clean(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        assert validate(kernel) == []


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
        nodes=[{"id": "d", "op": "div", "args": ["k7", "k0"], "width": 8, "signed": False}],
        outputs=[{"id": "out", "source": "a"}],
    )
    kernel, _ = parse(doc)
    diags = []
    folded = const_fold(kernel, diags)
    assert [n.id for n in folded.nodes] == ["d"]
    assert any(d.severity == "warning" and d.location == "d" for d in diags)


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
        assert instrument(fir4, cfg) == InstrumentedGraph(fir4, rule)


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


def test_emit_dot_deterministic(fir4):
    graph = instrument(fir4, cfg_for(fir4))
    assert emit_dot(graph) == emit_dot(instrument(fir4, cfg_for(fir4)))
    assert emit_dot(fir4) == emit_dot(fir4)


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


def test_pass_composition_preserves_runs(fir4, dot8, overflow_demo):
    rng = random.Random(31)
    for kernel in (fir4, dot8, overflow_demo):
        optimized = dead_code_elim(const_fold(kernel))
        assert validate(optimized) == []
        cfg = cfg_for(kernel)
        for _ in range(50):
            ri = sample_inputs(kernel, rng)
            before = run_dift(kernel, ri, cfg)
            after = run_dift(optimized, ri, cfg)
            assert before.outputs == after.outputs


def test_passes_idempotent_on_fixtures(fir4, dot8, overflow_demo):
    for kernel in (fir4, dot8, overflow_demo):
        folded = const_fold(kernel)
        assert const_fold(folded) == folded
        slim = dead_code_elim(kernel)
        assert dead_code_elim(slim) == slim
