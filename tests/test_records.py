import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_kernel
from diftsim import (
    BitType,
    BitValue,
    CheckpointDecl,
    CoarseBoundary,
    DiftConfig,
    DiftValue,
    FineGrained,
    InputDecl,
    InvalidType,
    Kernel,
    MemoryDecl,
    MonitorState,
    Node,
    OpKind,
    OutputDecl,
    Policy,
    PolicyKind,
    PropagationRule,
    RunInputs,
    SecurityException,
    Tag,
    validate,
)
from diftsim.kernel_ir import ConstDecl

U8 = BitType(8)


def tiny_kernel(name="tiny"):
    return Kernel(
        name=name,
        tag_width=2,
        inputs=(InputDecl("a", U8, 1),),
        constants=(ConstDecl("c", BitValue(BitType(4, signed=True), 15)),),
        memories=(MemoryDecl("m", 2, U8, (7,), (2,)),),
        nodes=(Node("x", OpKind.ADD, ("a", "c"), U8), Node("w", OpKind.STORE, ("m", "c", "x"))),
        checkpoints=(CheckpointDecl("cp", "x", "p"),),
        policies=(Policy("p", PolicyKind.DENY_IF_MASK, 1),),
        outputs=(OutputDecl("o", "x"),),
    )


TINY_REPR = (
    "Kernel(name='tiny', tag_width=2, "
    "inputs=(InputDecl(id='a', ty=BitType(width=8, signed=False), default_tag=1),), "
    "constants=(ConstDecl(id='c', value=BitValue(ty=BitType(width=4, signed=True), bits=15)),), "
    "memories=(MemoryDecl(id='m', size=2, cell=BitType(width=8, signed=False), init=(7,), "
    "init_tags=(2,)),), "
    "nodes=(Node(id='x', op=<OpKind.ADD: 'add'>, args=('a', 'c'), "
    "ty=BitType(width=8, signed=False)), "
    "Node(id='w', op=<OpKind.STORE: 'store'>, args=('m', 'c', 'x'), ty=None)), "
    "checkpoints=(CheckpointDecl(id='cp', arg='x', policy='p'),), "
    "policies=(Policy(name='p', kind=<PolicyKind.DENY_IF_MASK: 'deny_if_mask'>, "
    "mask=1),), "
    "outputs=(OutputDecl(id='o', source='x'),))"
)


def test_records_compare_and_hash_by_value():
    a, b = tiny_kernel(), tiny_kernel()
    assert validate(a) == []
    assert a == b and hash(a) == hash(b)
    assert a != tiny_kernel("other")
    a.plan  # a cached plan is not a field
    assert a == b and hash(a) == hash(b)
    assert load_kernel("dot8.json") == load_kernel("dot8.json")
    assert hash(load_kernel("dot8.json")) == hash(load_kernel("dot8.json"))
    for make in (
        lambda: DiftValue(BitValue(U8, 3), Tag(2, 1)),
        lambda: DiftConfig(2, FineGrained(PropagationRule.PRECISE), "halt"),
        lambda: DiftConfig(2, CoarseBoundary()),
        lambda: SecurityException("cp", "x", 1, 2, "p"),
    ):
        assert make() == make() and hash(make()) == hash(make())
    assert RunInputs({"a": 1}) == RunInputs({"a": 1}) != RunInputs({"a": 2})


def test_record_repr():
    assert repr(tiny_kernel()) == TINY_REPR
    assert repr(DiftConfig(2, CoarseBoundary(), "halt")) == (
        "DiftConfig(tag_width=2, mode=CoarseBoundary(), on_exception='halt')"
    )
    assert repr(RunInputs()) == "RunInputs(values={}, tags={}, memory={})"


def test_records_are_immutable():
    k = tiny_kernel()
    for obj, attr in (
        (k, "name"),
        (k.nodes[0], "args"),
        (U8, "width"),
        (BitValue(U8, 1), "bits"),
        (Tag(2, 1), "bits"),
        (DiftConfig(2, CoarseBoundary()), "tag_width"),
        (k.policies[0], "mask"),
        (RunInputs(), "values"),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)


def test_defaults_are_fresh_per_instance():
    a, b = RunInputs(), RunInputs()
    a.values["x"] = 1
    a.memory["m"] = [1]
    assert (b.values, b.tags, b.memory) == ({}, {}, {})
    assert a.tags is not b.tags
    s, t = MonitorState(), MonitorState()
    s.exceptions.append(None)
    assert (t.exceptions, t.irq, t.tag_in, t.tag_out) == ([], False, 0, 0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BitType(0), "width must be in 1..64, got 0"),
        (lambda: BitType(65, True), "width must be in 1..64, got 65"),
        (lambda: BitType("8"), "width must be in 1..64, got '8'"),
        (lambda: BitType(True), "width must be in 1..64, got True"),
        (lambda: BitValue(U8, 256), "bits 256 not canonical for u8"),
        (lambda: BitValue(U8, -1), "bits -1 not canonical for u8"),
        (lambda: BitValue(U8, 1.0), "bits 1.0 not canonical for u8"),
        (lambda: Tag(0, 0), "tag width must be in 1..32, got 0"),
        (lambda: Tag(33, 0), "tag width must be in 1..32, got 33"),
        (lambda: Tag(True, 1), "tag width must be in 1..32, got True"),
        (lambda: Tag(2, 4), "tag bits 4 out of range for width 2"),
        (lambda: Tag(2, -1), "tag bits -1 out of range for width 2"),
        (lambda: DiftConfig(0, CoarseBoundary()), "tag_width must be in 1..32"),
        (lambda: DiftConfig(33, CoarseBoundary()), "tag_width must be in 1..32"),
        (lambda: DiftConfig("2", CoarseBoundary()), "tag_width must be in 1..32"),
        (lambda: DiftConfig(2.0, CoarseBoundary()), "tag_width must be in 1..32"),
        (lambda: DiftConfig(True, CoarseBoundary()), "tag_width must be in 1..32"),
        (
            lambda: DiftConfig(2, CoarseBoundary(), "stop"),
            "on_exception must be one of ('record', 'halt')",
        ),
        (
            lambda: DiftConfig(2, "fine"),
            "mode must be CoarseBoundary() or FineGrained(PropagationRule), got 'fine'",
        ),
        (
            lambda: DiftConfig(2, FineGrained("precise")),
            "mode must be CoarseBoundary() or FineGrained(PropagationRule), got "
            "FineGrained(rule='precise')",
        ),
    ],
)
def test_bad_arguments_raise_invalid_type(make, message):
    with pytest.raises(InvalidType) as e:
        make()
    assert str(e.value) == message


def test_replace_checks_the_copy_like_a_new_record():
    assert BitValue(U8, 1)._replace(bits=255) == BitValue(U8, 255)
    for copy, message in (
        (lambda: U8._replace(width=65), "width must be in 1..64, got 65"),
        (lambda: U8._replace(width=True), "width must be in 1..64, got True"),
        (lambda: BitValue(U8, 1)._replace(bits=256), "bits 256 not canonical for u8"),
        (lambda: Tag(2, 1)._replace(bits=4), "tag bits 4 out of range for width 2"),
        (lambda: DiftConfig(2, CoarseBoundary())._replace(tag_width=0), "tag_width must be in 1..32"),
        (
            lambda: DiftConfig(2, CoarseBoundary())._replace(tag_width=True),
            "tag_width must be in 1..32",
        ),
        (
            lambda: DiftConfig(2, CoarseBoundary())._replace(mode="coarse"),
            "mode must be CoarseBoundary() or FineGrained(PropagationRule), got 'coarse'",
        ),
    ):
        with pytest.raises(InvalidType) as e:
            copy()
        assert str(e.value) == message


def test_cli_import_leaves_out_dataclasses_inspect_and_resources():
    # -S skips site, whose .pth files may import these modules themselves.
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import diftsim.cli, sys; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'importlib.resources') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == []
