#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --seeds 1-10
    python3 benchmarks/spread.py --workloads deny-storm --seeds 1-5 --trace 1
    python3 benchmarks/spread.py --seeds 1-10 --out benchmarks/results/BENCH_0.json

For every workload and metric it prints the median over the runs and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. An
end-to-end metric is steady when its spread is below a third of the
bound in BENCHMARK.json (setup_s is exempt from that test). Runs go one
at a time, each in its own process; --out writes every run's figures
and the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Never run while the benchmark was written: keep it for checking a claim.
HELD_OUT_SEED = 1009


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    run = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines:
        for tag in ("meta", "headline"):
            if line.startswith(f"# {tag} "):
                run[tag] = json.loads(line[len(tag) + 3 :])
    return run


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench["command"], workload, seed, args.seconds, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed={seed} correct={r['correct']} failed={r['failed']}/{r['attempted']}", file=sys.stderr)
        figures: dict[str, list[float]] = {}
        for run in runs:
            for name, m in run["result"]["metrics"].items():
                figures.setdefault(name, []).append(m["value"])
            for name, median in run.get("headline", {}).items():
                figures.setdefault(name, []).append(median)
        summary = {name: summarise(values) for name, values in figures.items()}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        print(f"== {workload} ({len(runs)} runs)")
        for name, s in summary.items():
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s" and not args.trace:
                ok = s["spread"] < bound / 3
                steady &= ok
                mark = f"bound {bound}: {'steady' if ok else 'NOT STEADY'}"
            print(f"  {name:<44} median {s['median']:<14.6g} spread {s['spread']:.4f} {mark}")
        report["meta"] = runs[-1].get("meta", {})
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
