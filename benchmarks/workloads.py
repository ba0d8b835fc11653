"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: it runs ``iteration(i)``
again and again, the next one starting when the last has ended. An
iteration records its timings in ``samples`` and checks every output it
produced against ``reference.evaluate`` on the kernel that produced it
(or, for CLI lines, against the text the documented exit-code and summary
contracts require). A check that does not hold counts the operation as
failed. large-kernel also checks that the optimizing passes preserve the
reference result; a break is counted apart (``Workload.preserves``).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = Path("src") / "diftsim" / "fixtures"  # relative to ROOT, the CLI's cwd
clock = time.perf_counter

# Sizes of the measured runs and of the timing-free smoke runs.
SIZES = {
    "full": {
        "fir": 2048,
        "dot": 1024,
        "deny_nodes": 240,
        "deny_kernels": 8,
        "batch": 16,
        "check_samples": (100, 200),
        "fuzz_trials": (200, 80),
        "fit": (64, 512, 4096),
        "mix": (512, 256),
    },
    "smoke": {
        "fir": 16,
        "dot": 16,
        "deny_nodes": 40,
        "deny_kernels": 2,
        "batch": 2,
        "check_samples": (3, 3),
        "fuzz_trials": (3, 3),
        "fit": (4, 8, 16),
        "mix": (16, 16),
    },
}


def import_diftsim():
    """Import the package from the checkout's src/, afresh each call."""
    for name in [n for n in sys.modules if n == "diftsim" or n.startswith("diftsim.")]:
        del sys.modules[name]
    ds = importlib.import_module("diftsim")
    importlib.import_module("diftsim.cli")
    return ds


def configs(ds, tag_width: int) -> dict:
    fine = ds.FineGrained
    return {
        "union": ds.DiftConfig(tag_width, fine(ds.PropagationRule.UNION)),
        "precise": ds.DiftConfig(tag_width, fine(ds.PropagationRule.PRECISE)),
        "coarse": ds.DiftConfig(tag_width, ds.CoarseBoundary()),
        "halt": ds.DiftConfig(tag_width, fine(ds.PropagationRule.UNION), "halt"),
        "coarse-halt": ds.DiftConfig(tag_width, ds.CoarseBoundary(), "halt"),
    }


def run_inputs(ds, doc: dict):
    return ds.RunInputs(doc["values"], doc.get("tags", {}), doc.get("memory", {}))


def exception_tuples(report) -> list[tuple]:
    return [(e.checkpoint_id, e.node_id, e.tag_bits, e.step, e.policy_name) for e in report.exceptions]


def exception_seq(exceptions: list[tuple]) -> list[tuple]:
    """Exception tuples without the step, which passes may shift."""
    return [(c, n, t, p) for c, n, t, _, p in exceptions]


def reference_runs(doc: dict, inputs: dict) -> dict[str, dict]:
    """The reference results the large-kernel checks use, by mode."""
    return {
        "union": reference.evaluate(doc, inputs),
        "coarse": reference.evaluate(doc, inputs, "coarse"),
        "coarse-halt": reference.evaluate(doc, inputs, "coarse", halt=True),
    }


def optimized_doc(doc: dict, opt) -> tuple[dict, list[str]]:
    """The document of ``opt``, the kernel const_fold and dead_code_elim made
    from ``doc``: its constants as ``opt`` declares them and the nodes of
    ``doc`` that ``opt`` kept, in its order. The passes change nothing else;
    the problems list says where ``opt`` does."""
    nodes = {n["id"]: n for n in doc["nodes"]}
    problems = [f"node {n.id} is not in the document" for n in opt.nodes if n.id not in nodes]
    for section, ids in (
        ("inputs", [i.id for i in opt.inputs]),
        ("memories", [m.id for m in opt.memories]),
        ("checkpoints", [c.id for c in opt.checkpoints]),
        ("outputs", [o.id for o in opt.outputs]),
    ):
        if ids != [x["id"] for x in doc[section]]:
            problems.append(f"the passes changed the {section}")
    constants = [
        {"id": c.id, "width": c.value.ty.width, "signed": c.value.ty.signed, "value": c.value.bits}
        for c in opt.constants
    ]
    kept = [nodes[n.id] for n in opt.nodes if n.id in nodes]
    return dict(doc, constants=constants, nodes=kept), problems


def preservation_problems(before: dict, after: dict) -> list[str]:
    """How the reference result on the optimized document differs from the
    one on the unoptimized document: the values and tags of the outputs, the
    trap, the exception sequence (without steps, which the passes shift) and
    whether the run halted. const_fold and dead_code_elim promise none."""
    def seen(ref: dict) -> tuple:
        if "trap" in ref:
            return ("trap", ref["trap"])
        return (ref["outputs"], exception_seq(ref["exceptions"]), ref["halted"])

    a, b = seen(before), seen(after)
    if a == b:
        return []
    outcome = [f"trap {r['trap']}" if "trap" in r else "a result" for r in (before, after)]
    if outcome[0] != outcome[1]:
        return [f"{outcome[0]} became {outcome[1]}"]
    return [f"{what} changed" for what, x, y in zip(("outputs", "exceptions", "halt"), a, b) if x != y]


def attempt(fn, *args):
    """fn(*args), or the exception it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the checks judge it
        return e


def trap_problems(ref: dict, run) -> list[str] | None:
    """The problems of a run that raised or should have: the reference's trap
    must be raised, with the same kind on the same node. None when neither
    trapped."""
    raised = (type(run).__name__, getattr(run, "node_id", None)) if isinstance(run, Exception) else None
    if "trap" in ref:
        return [] if raised == ref["trap"] else [f"expected trap {ref['trap']}, got {raised or 'a result'}"]
    return [f"unexpected {run!r}"] if raised else None


def dot_problems(doc: dict, dot: str) -> list[str]:
    """An instrumented DOT graph declares a value and a tag node per item,
    one monitor, and one monitor edge per checkpoint."""
    lines = dot.splitlines()
    if lines[0] != f'digraph "{doc["name"]}" {{' or lines[-1] != "}":
        return ["DOT header or footer"]
    declared = {line.split('"')[1] for line in lines[3:-1] if " -> " not in line}
    items = [x["id"] for sec in ("inputs", "constants", "memories", "nodes") for x in doc.get(sec, [])]
    if any(f"v:{i}" not in declared or f"t:{i}" not in declared for i in items):
        return ["DOT misses a value or tag node"]
    if sum('-> "monitor:0"' in line for line in lines) != len(doc["checkpoints"]):
        return ["DOT monitor edges"]
    return []


def via_subprocess(argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of the diftsim CLI run as a child."""
    t = clock()
    p = subprocess.run(
        [sys.executable, "-m", "diftsim", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return p.returncode, p.stdout, clock() - t


def via_cli_main(ds, argv: list[str]) -> tuple[int, str, float]:
    """The same through cli.main in this process."""
    out = io.StringIO()
    t = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ds.cli.main(argv)
    return code, out.getvalue(), clock() - t


# The calibration job's input: a fixed generated kernel on which the
# reference evaluator runs to the end (324 steps).
_CAL_DOC = gen.deny(0, 240)
_CAL_INPUTS = gen.inputs(_CAL_DOC, random.Random(0), memory=True)


def calibrate_job() -> float:
    """Wall time of fixed work of the kind diftsim does that runs no diftsim
    code: three runs of the benchmark's plain-int reference evaluator on
    _CAL_DOC, about 2 ms. On the reference host its time followed diftsim's
    through host slowdowns more closely than a loop of small-object, dict
    and int work did. The garbage collector is off meanwhile, so the time
    does not depend on the heap diftsim left behind or on its collector
    settings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = clock()
        for _ in range(3):
            reference.evaluate(_CAL_DOC, _CAL_INPUTS)
        return clock() - t
    finally:
        if enabled:
            gc.enable()


class Workload:
    name = ""
    why = ""
    headline: tuple[tuple[str, str], ...] = ()  # the workload's own (name, unit) figures
    # The calibration job's time on the reference host (2-vCPU Linux VM,
    # Python 3.11, quiet); reference seconds are seconds on that host.
    CAL_REF_S = 0.0018

    def __init__(self, seed: int, size: dict):
        self.seed = seed
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.preservation_checks = 0
        self.preservation_breaks = 0
        self.breaks_per_iteration = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cal: list[float] = []

    def tick(self) -> None:
        """Time one calibration job between two timed segments of an
        iteration; see calibrate()."""
        self.cal.append(self.calibrate())

    def to_reference(self, seconds: float, cal_per_job: float) -> float:
        """Seconds on this host, measured while a calibration job took
        cal_per_job, as seconds on the reference host."""
        return seconds * self.CAL_REF_S / cal_per_job

    def record(self, wall: float, **figures: float) -> None:
        """Store an iteration's timings; wall_s is its wall time scaled by
        the median of the calibration jobs spread through it."""
        self.samples["wall_raw_s"].append(wall)
        self.samples["wall_s"].append(self.to_reference(wall, statistics.median(self.cal)))
        self.cal = []
        for name, value in figures.items():
            self.samples[name].append(value)

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {self.name}: {what}: {'; '.join(problems)}", file=sys.stderr)

    def preserves(self, what: str, problems: list[str]) -> bool:
        """Count one preservation check of the optimizing passes. A break is
        reported and counted in fail_ratio, but not in failed: it is a known
        defect of the passes, while the runs themselves are held to the
        reference on the kernel they ran (see LargeKernel._checks)."""
        self.preservation_checks += 1
        if problems:
            self.preservation_breaks += 1
            if self.preservation_breaks <= 5:
                print(f"PRESERVATION BREAK {self.name}: {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self, i: int) -> None:
        raise NotImplementedError

    def replay(self, i: int) -> float:
        """The in-process part of iteration i, which the traced run wraps;
        returns its wall time."""
        self.iteration(i)
        return self.samples["wall_raw_s"][-1]

    def probe(self) -> tuple[dict, dict]:
        """A kernel document and inputs on which single layers are timed."""
        raise NotImplementedError

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def calibrate(self) -> float:
        """Wall time of a fixed job of the same kind as the workload's work
        that runs no diftsim code. Iterations interleave such jobs with their
        timed segments, so both see the same host speed, which on a shared
        machine drifts by tens of percent within minutes."""
        return calibrate_job()


class LargeKernel(Workload):
    name = "large-kernel"
    why = (
        "fir-N and dot-N with thousands of nodes through parse, optimize, baseline and "
        "three DIFT modes to JSON and DOT; per-node evaluation and kernel_ir passes dominate"
    )
    headline = (("kernel_to_report_s", "s"), ("dift_node_evals_per_s", "1/s"))
    MODES = ("union", "precise", "coarse")

    def setup(self) -> None:
        self.ds = import_diftsim()
        self.cfgs = configs(self.ds, 4)
        rng = random.Random(f"large-{self.seed}")
        self.kernels = []
        for doc in (gen.fir(self.size["fir"], self.seed), gen.dot(self.size["dot"], self.seed)):
            inputs = gen.inputs(doc, rng)
            self.kernels.append((doc, json.dumps(doc), inputs, reference_runs(doc, inputs)))
        self.opt_refs: dict[str, tuple[list[str], dict]] = {}
        self.iteration(-1)  # warm-up

    def probe(self) -> tuple[dict, dict]:
        doc, _, inputs, _ = self.kernels[0]
        return doc, inputs

    def iteration(self, i: int) -> None:
        """Each stage runs right after a calibration job and is timed alone.
        The runs are on the optimized kernel; a run that raises is kept as
        its exception for the checks."""
        ki, sim = self.ds.kernel_ir, self.ds.simulator
        spent = defaultdict(float)

        def stage(label: str, fn, *args):
            self.tick()
            t = clock()
            result = fn(*args)
            spent[label] += clock() - t
            return result

        evals = breaks = 0
        for doc, text, inputs, before in self.kernels:
            ri = run_inputs(self.ds, inputs)
            k, _ = stage("ir", ki.parse_kernel, text)
            opt = stage("ir", lambda: ki.dead_code_elim(ki.const_fold(k)))
            errors = stage("ir", lambda: [d for d in ki.validate(opt) if d.severity == "error"])
            base = stage("run", attempt, sim.run_baseline, opt, ri)
            reports = {
                mode: stage("dift", attempt, sim.run_dift, opt, ri, self.cfgs[mode])
                for mode in self.MODES
            }
            reports["coarse-halt"] = stage("run", attempt, sim.run_dift, opt, ri, self.cfgs["coarse-halt"])
            done = {m: r for m, r in reports.items() if not isinstance(r, Exception)}
            texts = stage("run", lambda: {m: r.to_json() for m, r in done.items()})
            dot = stage("dot", lambda: ki.emit_dot(ki.instrument(k, self.cfgs["union"])))
            evals += sum(done[m].steps_executed for m in self.MODES if m in done)
            declared, refs = self.optimized(doc, inputs, opt)
            checks = self._checks(doc, declared, refs, errors, base, reports, texts, dot)
            for what, problems in checks.items():
                self.check(f"{doc['name']} {what}", problems)
            for mode in refs:
                breaks += not self.preserves(f"{doc['name']} {mode}", preservation_problems(before[mode], refs[mode]))
        self.breaks_per_iteration = breaks
        self.record(
            sum(spent.values()),
            kernel_to_report_s=spent["ir"] + spent["run"] + spent["dift"],
            dift_node_evals_per_s=evals / spent["dift"],
        )

    def optimized(self, doc: dict, inputs: dict, opt) -> tuple[list[str], dict]:
        """The problems of the optimized kernel's declarations and the
        reference results on its document; computed once per distinct
        optimized kernel."""
        opt_doc, declared = optimized_doc(doc, opt)
        key = json.dumps(opt_doc)
        if key not in self.opt_refs:
            self.opt_refs[key] = declared, reference_runs(opt_doc, inputs)
        return self.opt_refs[key]

    def _checks(self, doc, declared, refs, errors, base, reports, texts, dot) -> dict[str, list[str]]:
        """Problems per check of one kernel's pipeline; each check counts as
        one operation. The runs are held to the reference on the optimized
        kernel's document, the DOT graph to the unoptimized document."""
        ref = refs["union"]
        checks = {
            "validate": ["validate finds errors in the optimized kernel"] if errors else [],
            "declarations": declared,
        }
        problems = trap_problems(ref, base)
        if problems is None:
            values = {o: v for o, (v, _) in ref["outputs"].items()}
            problems = [] if base == values else ["run_baseline values differ from the reference"]
        checks["baseline"] = problems
        for mode in ("union", "coarse", "coarse-halt"):
            want, run = refs[mode], reports[mode]
            problems = trap_problems(want, run)
            if problems is None:
                got = (run.outputs, exception_tuples(run), run.halted, run.steps_executed)
                same = got == (want["outputs"], want["exceptions"], want["halted"], want["steps"])
                problems = [] if same else [f"{mode} outputs, exceptions, halt or steps differ from the reference"]
            checks[mode] = problems
        checks["containment"] = self._containment([reports[m] for m in self.MODES])
        problems = []
        for mode, text in texts.items():
            outputs = {o: {"value": v, "tag": t} for o, (v, t) in reports[mode].outputs.items()}
            if json.loads(text)["outputs"] != outputs:
                problems.append(f"{mode} to_json outputs differ from the report")
        checks["to_json"] = problems
        checks["dot"] = dot_problems(doc, dot)
        return checks

    @staticmethod
    def _containment(runs) -> list[str]:
        """Same values and precise <= union <= coarse tags on every output,
        or the same error from all three modes."""
        errors = {type(r).__name__ if isinstance(r, Exception) else None for r in runs}
        if errors != {None}:
            return [] if len(errors) == 1 else [f"modes disagree on raising: {errors}"]
        union, precise, coarse = runs
        problems = []
        for oid, (value, t_u) in union.outputs.items():
            v_p, t_p = precise.outputs[oid]
            v_c, t_c = coarse.outputs[oid]
            if v_p != value or v_c != value:
                problems.append(f"{oid}: precise or coarse value differs")
            if t_p & ~t_u or t_u & ~t_c:
                problems.append(f"{oid}: tags break precise <= union <= coarse")
        return problems


class DenyStorm(Workload):
    name = "deny-storm"
    why = (
        "seeded samples of checkpoint-dense kernels with tainted computed addresses, in "
        "every mode plus halt; monitor writes, memory tags and per-run init dominate"
    )
    headline = (("dift_node_evals_per_s", "1/s"), ("checkpoints_per_s", "1/s"))

    def setup(self) -> None:
        self.ds = import_diftsim()
        # Several kernels per seed, so that one kernel's deny and trap odds
        # do not set the seed's figures.
        self.kernels = []
        for k in range(self.size["deny_kernels"]):
            doc = gen.deny(self.seed * 8 + k, self.size["deny_nodes"])
            self.kernels.append((doc, self.ds.parse_kernel(json.dumps(doc))[0]))
        self.cfgs = [configs(self.ds, 4)[m] for m in ("union", "precise", "coarse", "halt")]
        self.iteration(-1)  # warm-up

    def probe(self) -> tuple[dict, dict]:
        doc = self.kernels[0][0]
        return doc, gen.inputs(doc, random.Random(self.seed), memory=True)

    def iteration(self, i: int) -> None:
        """Fresh seeded samples on every kernel; the reference results are
        computed before each sample's runs are timed."""
        sim, eval_error = self.ds.simulator, self.ds.EvalError
        rng = random.Random(f"deny-{self.seed}-{i}")
        wall = 0.0
        evals = observed = 0
        for _ in range(self.size["batch"] // len(self.kernels)):
            for doc, kernel in self.kernels:
                inputs = gen.inputs(doc, rng, memory=True)
                union, coarse, halt = (
                    reference.evaluate(doc, inputs),
                    reference.evaluate(doc, inputs, "coarse"),
                    reference.evaluate(doc, inputs, halt=True),
                )
                ri = run_inputs(self.ds, inputs)
                runs = []
                self.tick()
                t = clock()
                for cfg in self.cfgs:
                    try:
                        runs.append(sim.run_dift(kernel, ri, cfg))
                    except eval_error as e:
                        runs.append(e)
                wall += clock() - t
                for ref, run, label in zip((union, union, coarse, halt), runs, ("union", "precise", "coarse", "halt")):
                    evals += ref["steps"]
                    observed += ref["observed"]
                    self.check(f"sample under {label}", self._problems(label, ref, run, runs[0]))
        self.record(wall, dift_node_evals_per_s=evals / wall, checkpoints_per_s=observed / wall)

    @staticmethod
    def _problems(label: str, ref: dict, run, union_run) -> list[str]:
        problems = trap_problems(ref, run)
        if problems is not None:
            return problems
        if label == "precise":
            if isinstance(union_run, Exception):
                return ["no union result to compare with"]
            problems = []
            for oid, (value, t_u) in union_run.outputs.items():
                v_p, t_p = run.outputs[oid]
                if v_p != value or t_p & ~t_u:
                    problems.append(f"{oid}: precise value or tag not within union")
            return problems
        got = {
            "outputs": run.outputs,
            "exceptions": exception_tuples(run),
            "steps": run.steps_executed,
            "halted": run.halted,
        }
        want = {k: ref[k] for k in got}
        return [] if got == want else [f"{label} result differs from the reference"]


_STDLIB_IMPORTS = "import argparse, dataclasses, enum, importlib.resources, itertools, json, random"


_CHILD_JOB = (
    f"{_STDLIB_IMPORTS}, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
    "import workloads; [workloads.calibrate_job() for _ in range(10)]"
)


class VerifyFixtures(Workload):
    name = "verify-fixtures"
    why = (
        "the diftsim CLI as a subprocess on the shipped fixtures: check, fuzz, run and "
        "instrument; small kernels run many times, so sampling and start-up dominate"
    )
    headline = (
        ("check_samples_per_s", "1/s"),
        ("fuzz_trials_per_s", "1/s"),
        ("cli_run_s", "s"),
    )
    CAL_REF_S = 0.075

    def setup(self) -> None:
        self.ds = import_diftsim()
        self.docs = {
            name: json.loads((ROOT / FIXTURES / f"{name}.json").read_text())
            for name in ("dot8", "overflow_demo", "fir4")
        }
        tainted = json.loads((ROOT / FIXTURES / "overflow_tainted.json").read_text())
        self.run_ref = reference.evaluate(self.docs["overflow_demo"], tainted)
        label, argv, expect = self.commands(0)[4]  # warm-up: one run
        self.check(label, expect(*via_subprocess(argv)[:2]))

    def probe(self) -> tuple[dict, dict]:
        return self.docs["dot8"], json.loads((ROOT / FIXTURES / "dot8_inputs.json").read_text())

    def rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def calibrate(self) -> float:
        """A child interpreter that imports the standard modules the CLI
        imports, then runs the job ten times: start-up and Python work, like
        a command. With the job run in this process instead, wall_s spread
        0.053 over ten seeds where this gives 0.019."""
        t = clock()
        subprocess.run([sys.executable, "-c", _CHILD_JOB], cwd=ROOT, check=True)
        return clock() - t

    def commands(self, i: int) -> list[tuple]:
        """One round: (label, argv, expect(code, stdout) -> problems)."""
        (s1, s2), (t1, t2) = self.size["check_samples"], self.size["fuzz_trials"]
        seed = str(self.seed * 1000 + i)

        def fixture(name: str) -> str:
            return str(FIXTURES / name)

        def expect_check(name: str, samples: int):
            lines = [
                f"check {name} mode=fine rule=union: samples={samples} mismatches=0",
                f"check {name} mode=fine rule=precise: samples={samples} mismatches=0",
                f"check {name} mode=coarse rule=-: samples={samples} mismatches=0",
                f"check {name}: total mismatches=0",
            ]
            return lambda code, out: [] if (code, out.splitlines()) == (0, lines) else [
                f"exit {code}, output {out[-200:]!r}"
            ]

        def expect_fuzz(name: str, trials: int):
            line = f"fuzz {name}: trials={trials} counterexamples=0"
            return lambda code, out: [] if (code, out.splitlines()) == (0, [line]) else [
                f"exit {code}, output {out[-200:]!r}"
            ]

        return [
            ("check dot8", ["check", fixture("dot8.json"), "--samples", str(s1), "--seed", seed], expect_check("dot8", s1)),
            ("check overflow_demo", ["check", fixture("overflow_demo.json"), "--samples", str(s2), "--seed", seed], expect_check("overflow_demo", s2)),
            ("fuzz fir4", ["fuzz", fixture("fir4.json"), "--trials", str(t1), "--seed", seed], expect_fuzz("fir4", t1)),
            ("fuzz dot8", ["fuzz", fixture("dot8.json"), "--trials", str(t2), "--seed", seed], expect_fuzz("dot8", t2)),
            ("run", ["run", fixture("overflow_demo.json"), fixture("overflow_tainted.json")], self._expect_run),
            ("instrument", ["instrument", fixture("fir4.json")], self._expect_dot),
        ]

    def _expect_run(self, code: int, out: str) -> list[str]:
        ref = self.run_ref
        lines = out.splitlines()
        want_code = 10 if ref["exceptions"] else 0
        summary = (
            f"run overflow_demo: outputs={len(ref['outputs'])} exceptions={len(ref['exceptions'])} "
            f"irq={str(bool(ref['exceptions'])).lower()} steps={ref['steps']}"
        )
        try:
            report = json.loads("\n".join(lines[:-1]))
        except (ValueError, IndexError):
            return [f"no report JSON in {out[-200:]!r}"]
        want = {  # the report schema the README specifies, in its field order
            "outputs": {o: {"value": v, "tag": t} for o, (v, t) in ref["outputs"].items()},
            "exceptions": [
                {"checkpoint": c, "node": n, "tag": t, "step": s, "policy": p}
                for c, n, t, s, p in ref["exceptions"]
            ],
            "irq": bool(ref["exceptions"]),
            "steps": ref["steps"],
            "mode": "fine",
            "rule": "union",
        }
        problems = []
        if code != want_code:
            problems.append(f"exit {code}, expected {want_code}")
        if report != want or list(report) != list(want):
            problems.append("report differs from the reference")
        if lines[-1] != summary:
            problems.append(f"summary {lines[-1]!r}")
        return problems

    def _expect_dot(self, code: int, out: str) -> list[str]:
        return ([f"exit {code}"] if code else []) + dot_problems(self.docs["fir4"], out)

    def _round(self, i: int, call, tick) -> tuple[float, dict[str, float]]:
        walls = {}
        for label, argv, expect in self.commands(i):
            tick()
            code, out, walls[label] = call(argv)
            self.check(label, expect(code, out))
        return sum(walls.values()), walls

    def iteration(self, i: int) -> None:
        wall, walls = self._round(i, via_subprocess, self.tick)
        (s1, s2), (t1, t2) = self.size["check_samples"], self.size["fuzz_trials"]
        self.record(
            wall,
            check_samples_per_s=(s1 + s2) / (walls["check dot8"] + walls["check overflow_demo"]),
            fuzz_trials_per_s=(t1 + t2) / (walls["fuzz fir4"] + walls["fuzz dot8"]),
            cli_run_s=walls["run"],
        )

    def replay(self, i: int) -> float:
        """The same round through cli.main in this process."""
        return self._round(i, lambda argv: via_cli_main(self.ds, argv), lambda: None)[0]


WORKLOADS = {w.name: w for w in (LargeKernel, VerifyFixtures, DenyStorm)}
