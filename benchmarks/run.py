#!/usr/bin/env python3
"""Benchmark for diftsim: three workloads, end-to-end and per-layer metrics.

Run from the repository root; the package is imported from ./src:

    python3 benchmarks/run.py --workload large-kernel --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload deny-storm --seed 1 --seconds 30 --trace 1
    python3 benchmarks/run.py --workload verify-fixtures --smoke

Workloads (closed loop, one client, sequential; see workloads.py):

* large-kernel: generated fir-2048 and dot-1024 kernels (about 4.4k and
  5.3k nodes) through parse_kernel, const_fold + dead_code_elim,
  validate, run_baseline, run_dift under union, precise and coarse and
  under coarse in halt mode, to_json, then instrument + emit_dot. One
  iteration is the pair.
* verify-fixtures: the diftsim CLI as a subprocess on the shipped
  fixtures: check dot8 and overflow_demo, fuzz fir4 and dot8, one run and
  one instrument. One iteration is that round of six commands.
* deny-storm: eight generated 240-op kernels over a 256-cell memory with
  tainted computed addresses and checkpoints on most values; each sample
  runs under union, precise and coarse in record mode, then union in
  halt mode. One iteration is two fresh samples on each kernel.

--trace 0 prints the end-to-end metrics, measured untraced:

* setup_s: the median of five set-ups, each importing diftsim afresh,
  generating the kernels and inputs with their reference results, and
  running one warm-up iteration;
* wall_s: the median iteration;
* peak_rss_mb: of this process, or of the CLI children for
  verify-fixtures.

The two times are in reference seconds. The host's speed drifts by tens
of percent within minutes, so each timed span is divided by the time of
calibration jobs run next to it (Workload.calibrate: fixed work of the
same kind that runs no diftsim code) and multiplied by that job's time on
a quiet reference host. The raw times (setup_raw_s, wall_raw_s) and each
workload's own figures are printed above the result with their tails;
they are not gated because the other workloads do not do that kind of
work.

--trace 1 runs the loop again, alternating untraced iterations with
iterations whose calls into diftsim are wrapped by spans.py, and prints
every per-layer metric (layers.py) plus trace_overhead.

Every output is checked against reference.py, a plain-int evaluator that
does not use diftsim, on the kernel that produced it, or against the
CLI's documented exit codes and summary lines. Whether const_fold and
dead_code_elim preserve behaviour is checked apart and reported as
preservation breaks (stderr, per-layer metrics), not as failed checks;
see README.md. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--smoke runs tiny sizes for a fixed two iterations (four when traced),
for tests; its timings mean nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys

from layers import per_layer
from spans import Tracer
from workloads import ROOT, SIZES, SRC, WORKLOADS, clock

SETUPS = 5
MIN_ITERATIONS = 3


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(values: list[float], higher_is_better: bool) -> tuple[int, float] | None:
    """(p, value): the highest percentile with at least ten samples beyond
    it, on the worse side; None with ten samples or fewer, where there is
    none."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values, reverse=higher_is_better)
    return p, ordered[math.ceil(p * n / 100) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    t = tail(values, unit == "1/s")
    worst = f"worst p{t[0]} {t[1]:.6g}" if t else "no tail (n<=10)"
    return f"{name:<28} {statistics.median(values):>14.6g} {unit:<5} median; {worst}; n={len(values)}"


def measure(wl, args) -> dict:
    setups, setups_raw = [], []
    for _ in range(1 if args.smoke else SETUPS):
        gc.collect()  # free the previous set-up's modules and inputs first
        cal = [wl.calibrate() for _ in range(3)]
        t = clock()
        wl.setup()
        setups_raw.append(clock() - t)
        cal += [wl.calibrate() for _ in range(3)]
        setups.append(wl.to_reference(setups_raw[-1], statistics.median(cal)))
    wl.samples.clear()
    i, start = 0, clock()
    while i < (2 if args.smoke else MIN_ITERATIONS) or (not args.smoke and clock() - start < args.seconds):
        wl.iteration(i)
        i += 1
    print(describe("setup_s", setups, "s"))
    print(describe("wall_s", wl.samples["wall_s"], "s"))
    figures = [("setup_raw_s", setups_raw, "s"), ("wall_raw_s", wl.samples["wall_raw_s"], "s")]
    figures += [(name, wl.samples[name], unit) for name, unit in wl.headline]
    for name, values, unit in figures:
        print(describe(name, values, unit))
    print("# headline " + json.dumps({name: statistics.median(values) for name, values, _ in figures}))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wl.samples["wall_s"]), "s"),
        "peak_rss_mb": (wl.rss_mb(), "MB"),
    }


def measure_traced(wl, args) -> dict:
    wl.setup()
    tracer = Tracer()
    traced, untraced = [], []
    i, start = 0, clock()
    while i < 4 or (not args.smoke and clock() - start < args.seconds):
        if i % 2:
            with tracer.installed(i):
                traced.append(wl.replay(i))
        else:
            untraced.append(wl.replay(i))
        i += 1
    metrics = per_layer(wl.ds, tracer, wl, 1, traced, untraced)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, fixed iterations")
    args = parser.parse_args(argv)
    if not (SRC / "diftsim" / "__init__.py").is_file():
        print(f"error: no diftsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload](args.seed, SIZES["smoke" if args.smoke else "full"])
    meta = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# meta " + json.dumps(meta))
    metrics = (measure_traced if args.trace else measure)(wl, args)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
