#!/usr/bin/env python3
"""Run the benchmark on two git revisions in alternating pairs and judge a claim.

    python3 tools/bench_pairs.py PARENT CHANGE --workload deny-storm --seeds 1-9,1009 --seconds 30
    python3 tools/bench_pairs.py PARENT CHANGE --workload all --seeds 1-9,1009 --seconds 30

PARENT and CHANGE are anything `git rev-parse` accepts; to measure
uncommitted work, stage it and pass the commit `git stash create`
prints. --workload takes one workload, a comma-separated list, or `all`,
BENCHMARK.json's workloads; they run one after another, each with its
own pairs and verdict block, so one call can check a claim on one
workload and the bounds on the others. Each seed is one pair: both
revisions run the benchmark command of BENCHMARK.json with that seed,
the parent first on even pairs and the change first on odd ones. Every
run gets a fresh `git archive` copy of its revision and runs it with
PYTHONDONTWRITEBYTECODE=1, so no run sees bytecode or results another
left behind.

For each gated (end-to-end) metric it prints every pair, each side's
median and quartiles, and the change's wins (ties count for neither
side). A gain is claimed when the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's interquartile
range; a regression is a median worse than the parent's by more than
the metric's bound, a share of the parent's median. A bound narrower
than the parent's own spread leaves the metric unresolved. Failed
operations are summed per side, since a gain does not count when more
operations fail.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.dont_write_bytecode = True  # leave no __pycache__ in benchmarks/ either
from benchmarks.spread import seeds, summarise  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, check=True).stdout


def run_once(archive: bytes, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in a fresh copy of archive: its result line."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        command = json.loads((Path(tmp) / "BENCHMARK.json").read_text())["command"]
        argv = [*command, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        p = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True,
                           timeout=3 * seconds + 600)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def judge(before: list[float], after: list[float], better: str, bound: float) -> dict:
    """The judgement of one gated metric over paired runs, before[i] and
    after[i] being pair i's parent and change values; better is "lower" or
    "higher" and bound a share of the parent's median. Returns both sides'
    summaries ("parent", "change"), the change's "wins" and "losses", its
    "gain" (positive: better) and the parent's "iqr" in the metric's unit,
    whether a claimed gain holds ("claim"), and the "verdict": "REGRESSION",
    "unresolved: ..." or "within bound"."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: change better
    wins = sum(sign * (b - a) > 0 for b, a in zip(before, after))
    losses = sum(sign * (b - a) < 0 for b, a in zip(before, after))
    p, c = summarise(before), summarise(after)
    gain, iqr = sign * (p["median"] - c["median"]), p["q3"] - p["q1"]
    if -gain > bound * p["median"]:
        verdict = "REGRESSION"
    elif iqr > bound * p["median"] and not all(
        sign * (b - a) > 0 for b in before for a in after
    ):
        verdict = "unresolved: the parent's IQR is wider than the bound"
    else:
        verdict = "within bound"
    return {"parent": p, "change": c, "wins": wins, "losses": losses, "gain": gain,
            "iqr": iqr, "claim": wins >= 0.9 * len(before) and gain > iqr, "verdict": verdict}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The command line; args.workload is the list of workloads to run."""
    known = [w["name"] for w in BENCHMARK["workloads"]]

    def workloads(text: str) -> list[str]:
        names = known if text == "all" else text.split(",")
        unknown = [name for name in names if name not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(known)}"
            )
        return names

    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", type=workloads, required=True, help="a name, name,name... or all")
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-9,1009: one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    return ap.parse_args(argv)


def pairs(archives: dict, workload: str, seed_list: list[int], seconds: float) -> dict:
    """Run one pair per seed, printing each; returns each side's result lines."""
    metrics = BENCHMARK["end_to_end"]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seed_list):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(archives[side], workload, seed, seconds))
        parent, change = results["parent"][-1], results["change"][-1]
        cells = "  ".join(
            f"{m['name']} {parent['metrics'][m['name']]['value']:.6g} -> "
            f"{change['metrics'][m['name']]['value']:.6g}"
            for m in metrics
        )
        failed = [f"{r['failed']}/{r['attempted']}" for r in (parent, change)]
        print(f"pair {i + 1} seed {seed} ({order[0]} first)  {cells}  "
              f"failed {failed[0]} -> {failed[1]}", flush=True)
    return results


def verdicts(workload: str, results: dict) -> None:
    """Print one workload's verdict block: a line per gated metric, then
    the failed operations of each side."""
    for m in BENCHMARK["end_to_end"]:
        name = m["name"]
        before = [r["metrics"][name]["value"] for r in results["parent"]]
        after = [r["metrics"][name]["value"] for r in results["change"]]
        j = judge(before, after, m["better"], m["bound"])
        p, c = j["parent"], j["change"]
        print(f"{workload} {name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}  "
              f"{j['gain'] / p['median']:+.1%} better  wins {j['wins']}/{len(before)} "
              f"(losses {j['losses']})  parent IQR {j['iqr']:.6g}  "
              f"claim {'holds' if j['claim'] else 'not met'}  {j['verdict']}")
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    attempted = {side: sum(r["attempted"] for r in runs) for side, runs in results.items()}
    print(f"{workload} failed: parent {failed['parent']}/{attempted['parent']}  "
          f"change {failed['change']}/{attempted['change']}", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    shas, archives = {}, {}
    for side in ("parent", "change"):
        rev = getattr(args, side) + "^{commit}"
        shas[side] = git("rev-parse", "--verify", rev).decode().strip()
        archives[side] = git("archive", "--format=tar", shas[side])
    for workload in args.workload:
        print(f"# parent {shas['parent'][:12]}  change {shas['change'][:12]}  "
              f"workload {workload}  seconds {args.seconds:g}")
        verdicts(workload, pairs(archives, workload, args.seeds, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
