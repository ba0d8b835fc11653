"""Per-layer figures for the traced run.

Most figures come from the spans ``spans.Tracer`` records around the
workload's own calls. The rest are direct replays, timed here without
shims: per-node functions on the large-kernel operand mix, the fixed and
per-node cost of ``run_dift``, the tracking overhead on the workload's
probe kernel, and the CLI's start-up cost. ``sweep`` calls, once and
traced, every entry point a workload's loop may not reach, so that each
layer is timed on each workload's kernels.
"""

from __future__ import annotations

import json
import random
import statistics

import gen
import reference
from workloads import FIXTURES, clock, configs, run_inputs, via_cli_main, via_subprocess

BINARY = set(gen.BINARY)


def timed(fn, min_reps: int = 5, min_seconds: float = 0.2, max_reps: int = 10_000) -> float:
    """Median wall time of fn() over at least min_reps calls and min_seconds."""
    times = []
    start = clock()
    while len(times) < min_reps or (clock() - start < min_seconds and len(times) < max_reps):
        t = clock()
        fn()
        times.append(clock() - t)
    return statistics.median(times)


def guarded(fn, error):
    """fn with the program's evaluation errors (traps) swallowed."""

    def call():
        try:
            fn()
        except error:
            pass

    return call


def sweep(ds, tracer, doc: dict, inputs: dict, seed: int) -> None:
    ki, sim = ds.kernel_ir, ds.simulator
    cfgs = configs(ds, doc["tag_width"])
    with tracer.installed("sweep"):
        k, _ = ki.parse_kernel(json.dumps(doc))
        ki.validate(k)
        ki.dead_code_elim(ki.const_fold(k))
        sim.check_consistency(k, cfgs["union"], 2, seed)
        # fuzz_properties lets a trap escape; take the first trial seed
        # whose inputs run to the end.
        for trial_seed in range(seed, seed + 50):
            try:
                sim.fuzz_properties(k, 1, trial_seed)
                break
            except ds.EvalError:
                pass
        guarded(lambda: sim.run_dift(k, run_inputs(ds, inputs), cfgs["halt"]), ds.EvalError)()
        ki.emit_dot(ki.instrument(k, cfgs["union"]))


def tracking_overhead(ds, doc: dict, inputs: dict) -> tuple[float, dict[str, float]]:
    """The run_baseline time (the base), and run_dift time over it per mode,
    on one kernel and input."""
    k, _ = ds.parse_kernel(json.dumps(doc))
    ri = run_inputs(ds, inputs)
    cfgs = configs(ds, doc["tag_width"])
    base = timed(guarded(lambda: ds.run_baseline(k, ri), ds.EvalError))
    return base, {
        mode: timed(guarded(lambda c=cfgs[mode]: ds.run_dift(k, ri, c), ds.EvalError)) / base
        for mode in ("union", "precise", "coarse")
    }


# One input observed by one checkpoint and passed to the output: a run of it
# is all per-run cost (config check, monitor, initialisation, report).
EMPTY_KERNEL = {
    "name": "empty",
    "tag_width": 4,
    "inputs": [{"id": "x", "width": 8, "signed": False, "default_tag": 1}],
    "policies": [{"name": "p", "kind": "deny_if_any"}],
    "checkpoints": [{"id": "cp", "arg": "x", "policy": "p"}],
    "outputs": [{"id": "y", "source": "x"}],
}


def run_dift_costs(ds, seed: int, sizes) -> tuple[float, float]:
    """(fixed_us, per_node_us) of union run_dift. per_node_us is the slope of
    the least-squares line through the median times on fir-N for each N;
    fixed_us is the median time on EMPTY_KERNEL, which has no nodes. (The
    line's intercept is not used: per-node cost varies by a few percent
    with N, which at N=64 already outweighs the per-run cost.)"""
    cfg = configs(ds, 4)["union"]
    points = []
    for n in sizes:
        doc = gen.fir(n, seed)
        k, _ = ds.parse_kernel(json.dumps(doc))
        ri = run_inputs(ds, gen.inputs(doc, random.Random(seed)))
        points.append((len(k.nodes), timed(lambda: ds.run_dift(k, ri, cfg)) * 1e6))
    mx = statistics.mean(x for x, _ in points)
    mt = statistics.mean(t for _, t in points)
    slope = sum((x - mx) * (t - mt) for x, t in points) / sum((x - mx) ** 2 for x, _ in points)
    k, _ = ds.parse_kernel(json.dumps(EMPTY_KERNEL))
    ri = ds.RunInputs({"x": 1}, {}, {})
    return timed(lambda: ds.run_dift(k, ri, cfg)) * 1e6, slope


def live(doc: dict) -> dict:
    """The document without the nodes that no output, checkpoint or store
    needs, which dead_code_elim drops: the nodes the workload's runs see."""
    needed = {o["source"] for o in doc["outputs"]} | {c["arg"] for c in doc["checkpoints"]}
    kept = []
    for n in reversed(doc["nodes"]):
        if n["op"] == "store" or n["id"] in needed:
            kept.append(n)
            needed.update(n["args"])
    return dict(doc, nodes=kept[::-1])


def operand_mix(ds, seed: int, sizes) -> list[tuple]:
    """(kind, a, ta, b, tb, result type) for every live binary node of a
    fir-N and a dot-N kernel, with the values and tags the reference
    computes. (A dead dot node may trap, which would cut the run short.)"""
    mix = []
    for doc in (live(gen.fir(sizes[0], seed)), live(gen.dot(sizes[1], seed))):
        env: dict = {}
        reference.evaluate(doc, gen.inputs(doc, random.Random(seed)), env=env)
        for n in doc["nodes"]:
            if n["op"] not in BINARY:
                continue
            (a_bits, a_tag, a_w, a_s), (b_bits, b_tag, b_w, b_s) = (env[x] for x in n["args"])
            mix.append(
                (
                    ds.OpKind(n["op"]),
                    ds.BitValue(ds.BitType(a_w, a_s), a_bits),
                    ds.Tag(doc["tag_width"], a_tag),
                    ds.BitValue(ds.BitType(b_w, b_s), b_bits),
                    ds.Tag(doc["tag_width"], b_tag),
                    ds.BitType(n["width"], n["signed"]),
                )
            )
    return mix


def per_node_replays(ds, seed: int, sizes) -> dict[str, float]:
    """Nanoseconds per call of the per-node functions over the operand mix."""
    mix = operand_mix(ds, seed, sizes)
    union, precise = ds.PropagationRule.UNION, ds.PropagationRule.PRECISE
    eval_binop, propagate, apply_binop = ds.eval_binop, ds.propagate, ds.apply_binop
    operands = [(kind, [(a, ta), (b, tb)]) for kind, a, ta, b, tb, _ in mix]
    lifted = [(kind, ds.DiftValue(a, ta), ds.DiftValue(b, tb), ty) for kind, a, ta, b, tb, ty in mix]

    def values():
        for kind, a, _, b, _, ty in mix:
            eval_binop(kind, a, b, ty)

    def tags(rule):
        def run():
            for kind, ops in operands:
                propagate(rule, kind, ops)

        return run

    def both():
        for kind, a, b, ty in lifted:
            apply_binop(kind, a, b, ty, union)

    per_call = 1e9 / len(mix)
    return {
        "bitvalue.eval_binop.ns_per_call": timed(values) * per_call,
        "taint.propagate.union.ns_per_call": timed(tags(union)) * per_call,
        "taint.propagate.precise.ns_per_call": timed(tags(precise)) * per_call,
        "tainted.apply_binop.ns_per_call": timed(both) * per_call,
    }


def cli_costs(ds) -> tuple[float, float]:
    """(startup_s, overhead_s): wall time of `diftsim --help` as a subprocess,
    and the wall time of one `run` as a subprocess minus the same call made
    through cli.main in this process."""
    run = ["run", str(FIXTURES / "overflow_demo.json"), str(FIXTURES / "overflow_tainted.json")]
    startup = timed(lambda: via_subprocess(["--help"]), min_seconds=0)
    sub = timed(lambda: via_subprocess(run), min_seconds=0)
    inproc = timed(lambda: via_cli_main(ds, run))
    return startup, sub - inproc


def per_layer(ds, tracer, wl, first_traced, traced_walls, untraced_walls) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    seed, size = wl.seed, wl.size
    doc, inputs = wl.probe()
    sweep(ds, tracer, doc, inputs, seed)
    t = tracer
    m: dict[str, tuple[float, str]] = {}

    parses = t.select("parse_kernel")
    m["kernel_ir.parse_kernel.s"] = (t.median_self("parse_kernel"), "s")
    m["kernel_ir.parse_kernel.nodes_per_s"] = (
        statistics.median(s.info["nodes"] / s.duration for s in parses),
        "1/s",
    )
    m["kernel_ir.validate.s"] = (t.median_self("validate"), "s")
    m["kernel_ir.optimize.s"] = (t.median_self("const_fold") + t.median_self("dead_code_elim"), "s")
    m["kernel_ir.optimize.nodes_kept"] = (t.select("dead_code_elim")[0].info["nodes"], "count")
    m["kernel_ir.emit_dot.s"] = (t.median_self("instrument") + t.median_self("emit_dot"), "s")

    bases = t.select("run_baseline")
    m["simulator.run_baseline.s"] = (t.median_self("run_baseline"), "s")
    m["simulator.run_baseline.node_evals_per_s"] = (
        statistics.median(s.info["nodes"] / s.duration for s in bases),
        "1/s",
    )
    for mode in ("union", "precise", "coarse", "halt"):
        m[f"simulator.run_dift.{mode}.s"] = (t.median_self("run_dift", mode=mode), "s")
    base, ratios = tracking_overhead(ds, doc, inputs)
    for mode, ratio in ratios.items():
        m[f"simulator.tracking_overhead.{mode}"] = (ratio, "x")
    m["simulator.tracking_overhead.base_s"] = (base, "s")
    fixed_us, per_node_us = run_dift_costs(ds, seed, size["fit"])
    m["simulator.run_dift.fixed_us"] = (fixed_us, "us")
    m["simulator.run_dift.per_node_us"] = (per_node_us, "us")
    m["simulator.sample_inputs.s"] = (t.median_self("sample_inputs"), "s")
    for name, key in (("check_consistency", "runs_per_sample"), ("fuzz_properties", "runs_per_trial")):
        outer = [s for s in t.select(name) if s.ok]
        runs = [s for s in t.under(name) if s.name in ("run_baseline", "run_dift")]
        m[f"simulator.{name}.s"] = (
            statistics.median(s.self_time / s.info["samples"] for s in outer),
            "s",
        )
        m[f"simulator.{name}.{key}"] = (len(runs) / sum(s.info["samples"] for s in outer), "count")

    checks = [s for s in t.select("checkpoint") if s.request == first_traced]
    denies = sum(s.info["deny"] for s in checks)
    m["policy_monitor.checkpoint.s"] = (t.median_self("checkpoint"), "s")
    m["policy_monitor.checkpoint.calls"] = (len(checks), "count")
    m["policy_monitor.checkpoint.denies"] = (denies, "count")
    m["policy_monitor.checkpoint.deny_ratio"] = (denies / len(checks) if checks else 0.0, "ratio")

    for name, value in per_node_replays(ds, seed, size["mix"]).items():
        m[name] = (value, "ns")
    startup, overhead = cli_costs(ds)
    m["cli.startup_s"] = (startup, "s")
    m["cli.overhead_s"] = (overhead, "s")
    m["trace_overhead"] = (statistics.median(traced_walls) / statistics.median(untraced_walls), "x")
    m["kernel_ir.optimize.preservation_breaks"] = (wl.breaks_per_iteration, "count")
    m["fail_ratio"] = (
        (wl.failed + wl.preservation_breaks) / (wl.attempted + wl.preservation_checks),
        "ratio",
    )
    return m
