"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import json
import random
import time

import pytest

from diftsim import (
    BitType,
    BitValue,
    CoarseBoundary,
    DiftConfig,
    DivisionByZero,
    FineGrained,
    MonitorState,
    OpKind,
    Policy,
    PolicyKind,
    PropagationRule,
    REG_EXC_COUNT,
    REG_STATUS,
    Tag,
    check_consistency,
    drain_exceptions,
    eval_binop,
    fixture_path,
    propagate,
    reg_read,
    reg_write,
    run_dift,
    sample_inputs,
)
from diftsim.bitvalue import BINARY_OPS, COMPARE_OPS, UNARY_OPS
from diftsim.cli import main
from diftsim.policy_monitor import checkpoint
from reference_model import independent, value as ref_value

UNION = PropagationRule.UNION
PRECISE = PropagationRule.PRECISE
SEED = 2026


def configs(kernel):
    tw = kernel.tag_width
    return [
        ("union", DiftConfig(tw, FineGrained(UNION))),
        ("precise", DiftConfig(tw, FineGrained(PRECISE))),
        ("coarse", DiftConfig(tw, CoarseBoundary())),
    ]


@pytest.fixture(scope="module")
def all_kernels(fir4, dot8, overflow_demo):
    return (fir4, dot8, overflow_demo)


@pytest.fixture(scope="module")
def consistency_reports(all_kernels):
    reports = {}
    for kernel in all_kernels:
        for label, cfg in configs(kernel):
            reports[(kernel.name, label)] = check_consistency(kernel, cfg, 1000, SEED)
    return reports


def test_c01_value_semantics_oracle():
    """eval_binop equals the unbounded-integer reference, exhaustively for
    all binary ops and all operand widths up to 6."""
    started = time.monotonic()
    checked = 0
    for width in range(1, 7):
        for sa in (False, True):
            for sb in (False, True):
                a_ty, b_ty = BitType(width, sa), BitType(width, sb)
                for kind in sorted(BINARY_OPS, key=lambda k: k.value):
                    r_ty = BitType(1) if kind in COMPARE_OPS else BitType(width, sa)
                    for a_bits in range(1 << width):
                        a = BitValue(a_ty, a_bits)
                        for b_bits in range(1 << width):
                            b = BitValue(b_ty, b_bits)
                            try:
                                expected = ref_value(kind.value, (a_bits, b_bits), (a_ty, b_ty), r_ty)
                            except ZeroDivisionError:
                                with pytest.raises(DivisionByZero):
                                    eval_binop(kind, a, b, r_ty)
                                continue
                            assert eval_binop(kind, a, b, r_ty).bits == expected
                            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"exhaustive sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 01 value-semantics oracle: PASS ({checked} cases, {elapsed:.1f}s)")


def test_c02_precise_soundness():
    """Whenever the precise rule reports tag 0 with a tainted operand, the
    model's independent must confirm the result does not depend on it.
    Every value operator is swept with one operand tainted at a time, and
    operand and result widths range over 1..4 independently (1..2 for
    mux, whose third operand multiplies the cases)."""
    started = time.monotonic()
    kills = 0
    oracle_cache = {}
    kinds = sorted(BINARY_OPS | UNARY_OPS, key=lambda k: k.value)
    sweeps = [(kind, range(1, 5)) for kind in kinds] + [(OpKind.MUX, range(1, 3))]
    for kind, widths in sweeps:
        arity = 1 if kind in UNARY_OPS else (3 if kind is OpKind.MUX else 2)
        all_types = [BitType(w, s) for w in widths for s in (False, True)]
        r_types = [BitType(1)] if kind in COMPARE_OPS else all_types
        for types in itertools.product(all_types, repeat=arity):
            for tainted_pos in range(arity):
                fixed_pos = [p for p in range(arity) if p != tainted_pos]
                for fixed_bits in itertools.product(
                    *(range(1 << types[p].width) for p in fixed_pos)
                ):
                    fixed = dict(zip(fixed_pos, fixed_bits))
                    for tainted_bits in range(1 << types[tainted_pos].width):
                        operands = [
                            (BitValue(ty, tainted_bits), Tag(4, 0b1))
                            if p == tainted_pos
                            else (BitValue(ty, fixed[p]), Tag(4, 0))
                            for p, ty in enumerate(types)
                        ]
                        for r_ty in r_types:
                            if propagate(PRECISE, kind, operands, r_ty).bits != 0:
                                continue
                            kills += 1
                            key = (kind, types, r_ty, tainted_pos, fixed_bits)
                            if key not in oracle_cache:
                                oracle_cache[key] = independent(
                                    kind.value, types, [tainted_pos], fixed, r_ty
                                )
                            assert oracle_cache[key], (
                                f"unsound kill: {kind.value} {' '.join(map(str, types))} "
                                f"-> {r_ty} tainted={tainted_pos} fixed={fixed}"
                            )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"soundness sweep took {elapsed:.1f}s"
    assert kills > 0  # the sweep must actually exercise the kill cases
    print(f"ACCEPTANCE 02 precise-rule soundness: PASS ({kills} kills verified, {elapsed:.1f}s)")


def test_c03_rule_conservativeness():
    """Precise tags are bitwise subsets of union tags on 10,000 random
    operator applications."""
    rng = random.Random(SEED)
    kinds = sorted(BINARY_OPS | UNARY_OPS | {OpKind.MUX}, key=lambda k: k.value)
    for _ in range(10_000):
        kind = rng.choice(kinds)
        n = 1 if kind in UNARY_OPS else (3 if kind is OpKind.MUX else 2)
        operands = []
        for _ in range(n):
            ty = BitType(rng.randint(1, 8), rng.random() < 0.5)
            operands.append(
                (BitValue(ty, rng.randrange(1 << ty.width)), Tag(4, rng.randrange(16)))
            )
        precise = propagate(PRECISE, kind, operands)
        union = propagate(UNION, kind, operands)
        assert precise.bits & ~union.bits == 0
    print("ACCEPTANCE 03 rule conservativeness: PASS (10000 applications)")


def test_c04_dataflow_consistency(consistency_reports):
    """Baseline and optimized tracked output values agree, and tracked
    runs trap alike, for every fixture, every mode and rule, on 1000
    seeded samples each."""
    for (kernel, label), report in consistency_reports.items():
        value_mismatches = [m for m in report.mismatches if m.kind in ("error", "opt_value")]
        assert not value_mismatches, f"{kernel}/{label}: {value_mismatches[:3]}"
        assert report.samples == 1000
    print(f"ACCEPTANCE 04 data-flow consistency: PASS (9 configs x 1000 samples)")


def test_c05_pass_preservation(consistency_reports):
    """const_fold + dead_code_elim leave values, tags, and the exception
    sequence identical on 1000 seeded samples per fixture."""
    for (kernel, label), report in consistency_reports.items():
        opt_mismatches = [m for m in report.mismatches if m.kind.startswith("opt_")]
        assert not opt_mismatches, f"{kernel}/{label}: {opt_mismatches[:3]}"
    print("ACCEPTANCE 05 pass preservation: PASS (9 configs x 1000 samples)")


def test_c06_coarse_over_approximation(all_kernels):
    """Fine-mode output and checkpoint tags are bitwise subsets of the
    coarse boundary tag on every sampled run."""
    rng = random.Random(SEED)
    for kernel in all_kernels:
        init_tag_bits = [t for m in kernel.memories for t in m.init_tags]
        for _ in range(1000):
            ri = sample_inputs(kernel, rng)
            boundary = 0
            for bits in ri.tags.values():
                boundary |= bits
            for bits in init_tag_bits:
                boundary |= bits
            for rule in (UNION, PRECISE):
                rep = run_dift(kernel, ri, DiftConfig(kernel.tag_width, FineGrained(rule)))
                for oid, (_, tag) in rep.outputs.items():
                    assert tag & ~boundary == 0, f"{kernel.name} output {oid}"
                for cp_id, tag in rep.checkpoint_tags:
                    assert tag & ~boundary == 0, f"{kernel.name} checkpoint {cp_id}"
    print("ACCEPTANCE 06 coarse over-approximation: PASS (3 fixtures x 1000 samples)")


def test_c07_buffer_overflow_demo(tmp_path):
    """Tainted index exits 10 with exactly one exception at the declared
    checkpoint; the untainted run exits 0; both deterministic."""
    demo = str(fixture_path("overflow_demo.json"))
    tainted = str(fixture_path("overflow_tainted.json"))
    clean = str(fixture_path("overflow_clean.json"))
    reports = []
    for i in range(2):
        path = tmp_path / f"tainted{i}.json"
        assert main(["run", demo, tainted, "--report", str(path)]) == 10
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert len(doc["exceptions"]) == 1
    assert doc["exceptions"][0]["checkpoint"] == "cp_addr"
    assert doc["irq"] is True
    clean_path = tmp_path / "clean.json"
    assert main(["run", demo, clean, "--report", str(clean_path)]) == 0
    assert json.loads(clean_path.read_text())["exceptions"] == []
    print("ACCEPTANCE 07 buffer-overflow demo: PASS")


def test_c08_monitor_state_machine():
    """irq holds exactly when the queue is nonempty, REG_STATUS reads it,
    and REG_EXC_COUNT equals the queue length, under 1000 random operation
    sequences."""
    rng = random.Random(SEED)
    deny_any = Policy("any", PolicyKind.DENY_IF_ANY)
    for _ in range(1000):
        state = MonitorState()
        for _ in range(rng.randint(3, 20)):
            op = rng.randrange(4)
            if op == 0:
                checkpoint(state, "cp", "n", deny_any, rng.randrange(16), 1)
            elif op == 1:
                reg_read(state, rng.randrange(4))
            elif op == 2:
                reg_write(state, REG_STATUS, rng.randrange(2))
            else:
                drain_exceptions(state)
            assert state.irq == (len(state.exceptions) > 0)
            assert reg_read(state, REG_EXC_COUNT) == len(state.exceptions)
            assert reg_read(state, REG_STATUS) == int(state.irq)
    print("ACCEPTANCE 08 monitor state machine: PASS (1000 sequences)")


def test_c09_untainted_closure(all_kernels):
    """All-zero input and memory tags produce all-zero output tags and zero
    exceptions, 1000 samples per fixture, every mode."""
    rng = random.Random(SEED)
    for kernel in all_kernels:
        zeroed = kernel._replace(memories=tuple(m._replace(init_tags=()) for m in kernel.memories))
        cfgs = [cfg for _, cfg in configs(kernel)]
        for _ in range(1000):
            ri = sample_inputs(kernel, rng)
            zero_ri = type(ri)(ri.values, {i.id: 0 for i in kernel.inputs}, ri.memory)
            for cfg in cfgs:
                rep = run_dift(zeroed, zero_ri, cfg)
                assert all(tag == 0 for _, tag in rep.outputs.values())
                assert rep.exceptions == ()
    print("ACCEPTANCE 09 untainted closure: PASS (3 fixtures x 1000 samples x 3 modes)")


def test_c10_determinism(tmp_path, capsys):
    """Identical invocations produce byte-identical reports, DOT files, and
    check summaries."""
    fir4 = str(fixture_path("fir4.json"))
    fir4_inputs = str(fixture_path("fir4_inputs.json"))
    pairs = []
    for i in range(2):
        rep = tmp_path / f"rep{i}.json"
        dot = tmp_path / f"graph{i}.dot"
        main(["run", fir4, fir4_inputs, "--rule", "precise", "--report", str(rep)])
        main(["instrument", fir4, "--emit-dot", str(dot)])
        main(["check", fir4, "--samples", "100", "--seed", "11"])
        pairs.append((rep.read_bytes(), dot.read_bytes(), capsys.readouterr().out))
    assert pairs[0] == pairs[1]
    print("ACCEPTANCE 10 determinism: PASS")
