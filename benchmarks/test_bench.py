"""Timing-free tests of the benchmark: run with `python -m pytest benchmarks`."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    p = bench("--workload", workload, "--seed", "7", "--trace", trace, "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] and result["failed"] == 0, p.stderr
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        p = bench("--workload", "deny-storm", "--seed", "3", "--trace", "1", "--smoke")
        metrics = json.loads(p.stdout.splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["simulator.check_consistency.runs_per_sample"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "large-kernel", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout


def test_generators_are_seeded():
    assert gen.fir(16, 5) == gen.fir(16, 5) != gen.fir(16, 6)
    assert gen.dot(16, 5) == gen.dot(16, 5) != gen.dot(16, 6)
    assert gen.deny(5, 40) == gen.deny(5, 40) != gen.deny(6, 40)
    ops = {n["op"] for seed in range(4) for n in gen.deny(seed, 60)["nodes"]}
    assert ops == set(gen.BINARY) | set(gen.UNARY) | {"mux", "load", "store"}


def test_generators_reach_the_passes_known_defects():
    """fir/dot keep checkpoints on nodes const_fold folds, and dot keeps dead
    nodes that can trap: division by a loaded cell, or a load at a data
    address."""
    for doc in (gen.fir(64, 1), gen.dot(64, 1)):
        constants = {c["id"] for c in doc["constants"]}
        foldable = {n["id"] for n in doc["nodes"] if n["op"] != "load" and set(n["args"]) <= constants}
        assert foldable & {c["arg"] for c in doc["checkpoints"]}
    dead_ops = set()
    for seed in range(8):
        doc = gen.dot(256, seed)
        nodes = {n["id"]: n for n in doc["nodes"]}
        dead = {n["id"] for n in doc["nodes"]} - {a for n in doc["nodes"] for a in n["args"]}
        dead -= {c["arg"] for c in doc["checkpoints"]} | {o["source"] for o in doc["outputs"]}
        dead_ops |= {nodes[d]["op"] for d in dead}
    assert {"div", "mod", "load"} <= dead_ops


def test_optimized_doc_describes_the_optimized_kernel():
    """The reference on optimized_doc agrees with diftsim on the optimized
    kernel, and the preservation check sees the dead trap the pass dropped."""
    from diftsim import RunInputs, const_fold, dead_code_elim, parse_kernel, run_baseline

    from workloads import optimized_doc, preservation_problems

    doc = gen.dot(64, 1)
    inputs = gen.inputs(doc, random.Random(1))
    kernel, _ = parse_kernel(json.dumps(doc))
    opt = dead_code_elim(const_fold(kernel))
    opt_doc, problems = optimized_doc(doc, opt)
    assert problems == []
    assert len(opt_doc["nodes"]) == len(opt.nodes) < len(doc["nodes"])
    after = reference.evaluate(opt_doc, inputs)
    ri = RunInputs(inputs["values"], inputs["tags"], inputs["memory"])
    assert run_baseline(opt, ri) == {o: v for o, (v, _) in after["outputs"].items()}
    before = reference.evaluate(doc, inputs)
    assert ("trap" in before) == bool(preservation_problems(before, after))


@pytest.mark.parametrize("seed", range(6))
def test_reference_agrees_with_diftsim(seed):
    from diftsim import (
        CoarseBoundary,
        DiftConfig,
        EvalError,
        FineGrained,
        PropagationRule,
        RunInputs,
        parse_kernel,
        run_dift,
    )

    union = FineGrained(PropagationRule.UNION)
    for doc, memory in ((gen.fir(24, seed), False), (gen.dot(16, seed), False), (gen.deny(seed, 60), True)):
        kernel, diags = parse_kernel(json.dumps(doc))
        assert kernel is not None, diags
        rng = random.Random(seed)
        for _ in range(8):
            inputs = gen.inputs(doc, rng, memory)
            ri = RunInputs(inputs["values"], inputs["tags"], inputs["memory"])
            for cfg, mode, halt in (
                (DiftConfig(4, union), "union", False),
                (DiftConfig(4, CoarseBoundary()), "coarse", False),
                (DiftConfig(4, union, "halt"), "union", True),
            ):
                want = reference.evaluate(doc, inputs, mode, halt)
                try:
                    rep = run_dift(kernel, ri, cfg)
                except EvalError as e:
                    assert (type(e).__name__, e.node_id) == want["trap"]
                    continue
                assert "trap" not in want
                assert rep.outputs == want["outputs"]
                assert rep.steps_executed == want["steps"]
                assert len(rep.checkpoint_tags) == want["observed"]
                assert [
                    (e.checkpoint_id, e.node_id, e.tag_bits, e.step, e.policy_name)
                    for e in rep.exceptions
                ] == want["exceptions"]
