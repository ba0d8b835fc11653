"""Kernel execution, differential consistency checking, and the property
fuzzer.

Execution is split as the paper's hardware splits it: a datapath, and
shadow logic that reads its values and never writes them. _execute is
the one value walk over the kernel's Plan (Kernel.plan, lowered once per
kernel instance): each step sets a value slot by the node's value
function from bitvalue.value_fn. run_baseline is that walk. Every tracked
run is a tag replay, _replay, over a value pass from _values: each step
sets a tag slot by the node's union or precise tag function from
taint.tag_fn, which reads the pass's values; coarse mode replays no tags,
and every checkpoint and output observes one boundary OR. The pass is
walked lazily: a replay first extends it to the last step it needs, so a
halting run walks no value past its deny, and the runs that share a pass
(check_configs and fuzz_properties replay every configuration over one
per kernel and sample) walk each value at most once. The walks hold no
checkpoint logic. A halting run is the recording run cut at its first
deny: it replays to each watched step in turn only to find that cut. One
judge then reads the tags of the checkpoints that ran, a prefix of
Plan.checkpoints' columns, and builds the run's SecurityExceptions with
a few calls over whole columns.

The replay core, _track, takes a run's tags as data, its input tags and
its memories' initial tags, as the paper's shadow logic reads only the
datapath's values plus initial tags, and returns plain data: outputs,
denials, checkpoint tags, steps, halted and trap. Only run_dift meets a
monitor: it applies REG_TAG_IN, records the denials and builds the
SimulationReport. check_configs computes a sample's input tags once and
replays every configuration from them, and fuzz_properties replays its
closure runs from zero tags, on the kernel's own plan.

A trap is data from the value walk to the API edge: _execute returns it
as (type, located message, node id, step), the pass stores it, and the
replay core returns it. Only run_baseline and run_dift raise one, as a
new exception from frames that hold no run state. check_configs catches
the one its baseline raises and compares its replays' traps as data;
fuzz_properties skips a trial whose pass traps, since every run of the
trial replays that pass. Distinct runs over immutable kernels are
independent. All randomness is seeded.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from collections import namedtuple
from operator import and_

from .errors import DiftError, EvalError, WidthMismatch
from .kernel_ir import Diagnostic, Kernel, const_fold, dead_code_elim, load_json
from .policy_monitor import MonitorState, SecurityException, record
from .taint import PRECISE, UNION, DiftConfig


class RunInputs(namedtuple("RunInputs", "values tags memory")):
    """One run's stimulus: input values (wrapped on load), tag overrides,
    and optional per-memory value overrides, as dicts from id to int (to
    a list of cell values for memory); each one left out is a new {}."""

    __slots__ = ()

    def __new__(cls, values=None, tags=None, memory=None):
        return tuple.__new__(cls, [{} if d is None else d for d in (values, tags, memory)])


class SimulationReport(namedtuple(
    "SimulationReport",
    "outputs exceptions irq steps_executed mode rule checkpoint_tags halted",
    defaults=((), False),
)):
    """Outputs, exceptions, and monitor state of one tracked run.

    outputs is a dict from output id to (value bits, tag bits);
    exceptions, a tuple of SecurityException; irq, a bool;
    steps_executed, an int; mode, a str; rule, a str or None;
    checkpoint_tags, a tuple of (checkpoint id, tag bits) pairs; halted,
    a bool. checkpoint_tags and halted are in-memory extras; to_json
    emits exactly the wire schema (outputs, exceptions, irq, steps, mode,
    rule)."""

    __slots__ = ()

    def to_json(self) -> str:
        doc = {
            "outputs": {
                oid: {"value": v, "tag": t} for oid, (v, t) in self.outputs.items()
            },
            "exceptions": [
                {
                    "checkpoint": e.checkpoint_id,
                    "node": e.node_id,
                    "tag": e.tag_bits,
                    "step": e.step,
                    "policy": e.policy_name,
                }
                for e in self.exceptions
            ],
            "irq": self.irq,
            "steps": self.steps_executed,
            "mode": self.mode,
            "rule": self.rule,
        }
        return json.dumps(doc, indent=2) + "\n"


def parse_inputs(text: str) -> tuple[RunInputs | None, list[Diagnostic]]:
    """Parse an inputs document: {"values": {...}, "tags": {...}, "memory": {...}}."""
    diags: list[Diagnostic] = []
    doc = load_json(text, "inputs", diags)
    if diags:
        return None, diags
    if not isinstance(doc, dict):
        diags.append(Diagnostic("error", "inputs", "top-level document must be an object"))
        return None, diags
    unknown = set(doc) - {"values", "tags", "memory"}
    if unknown:
        diags.append(
            Diagnostic("error", "inputs", f"unknown keys: {', '.join(sorted(unknown))}")
        )
        return None, diags

    def int_map(key: str) -> dict[str, int] | None:
        raw = doc.get(key, {})
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, int) and not isinstance(v, bool)
            for k, v in raw.items()
        ):
            diags.append(Diagnostic("error", key, f"{key} must map ids to integers"))
            return None
        return dict(raw)

    values = int_map("values")
    tags = int_map("tags")
    memory_raw = doc.get("memory", {})
    memory: dict[str, list[int]] | None = {}
    if not isinstance(memory_raw, dict):
        diags.append(Diagnostic("error", "memory", "memory must map ids to lists"))
        memory = None
    else:
        for mid, cells in memory_raw.items():
            if not isinstance(cells, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in cells
            ):
                diags.append(Diagnostic("error", "memory", f"{mid} must be a list of integers"))
                memory = None
                break
            memory[mid] = list(cells)
    if values is None or tags is None or memory is None:
        return None, diags
    return RunInputs(values, tags, memory), diags


def inputs_to_json(inputs: RunInputs) -> str:
    doc: dict = {"values": inputs.values, "tags": inputs.tags}
    if inputs.memory:
        doc["memory"] = inputs.memory
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _values(k: Kernel, inputs: RunInputs, diags: list[Diagnostic] | None = None) -> list:
    """A value pass for _replay to walk: [slots, steps walked, located trap
    or None]. Its slots are built now: the canonical bits of every input
    and constant, the cell list of every memory, and a place for every node.
    A memory's cells are copies: its override as given (a load wraps each
    cell it reads), then what the override leaves of init, then zeros."""

    def warn(loc: str, msg: str) -> None:
        if diags is not None:
            diags.append(Diagnostic("warning", loc, msg))

    plan, given = k.plan, inputs.values
    if diags is not None:
        # Unknown ids warn in the inputs document's order, then unassigned
        # inputs in declaration order.
        known = set(plan.input_ids)
        for unknown in given:
            if unknown not in known:
                warn(unknown, "value for unknown input ignored")
        for unknown in inputs.tags:
            if unknown not in known:
                warn(unknown, "tag for unknown input ignored")
        known_memories = {m.id for m in k.memories}
        for unknown in inputs.memory:
            if unknown not in known_memories:
                warn(unknown, "override for unknown memory ignored")
        for iid in plan.input_ids:
            if iid not in given:
                warn(iid, "input not assigned; defaulting to 0")

    vals = list(map(and_, map(given.get, plan.input_ids, itertools.repeat(0)), plan.input_masks))
    vals += k.plan.constants
    for m in k.memories:
        override = inputs.memory.get(m.id)
        if override is None:
            vals.append(_cells(m.size, m.init))
            continue
        if len(override) > m.size:  # bad input, not a trap: no node has run
            raise DiftError(
                f"memory override for {m.id} has {len(override)} cells, size is {m.size}"
            )
        cells = list(override)
        cells += m.init[len(cells) :]
        cells += itertools.repeat(0, m.size - len(cells))  # no temporary list of zeros
        vals.append(cells)
    vals += [0] * len(k.nodes)
    return [vals, 0, None]


def _cells(size: int, head) -> list:
    """A list of size cells: head, then zeros. Allocating the zeros first
    and copying head over them is one allocation, not two and a copy."""
    cells = [0] * size
    cells[: len(head)] = head
    return cells


def _input_tags(k: Kernel, tags: dict, tag_in: int = 0) -> list:
    """Tag bits of every input: its entry in tags, else a nonzero
    REG_TAG_IN word tag_in, else the declared default, cut to the tag width."""
    plan = k.plan
    fallback = itertools.repeat(tag_in) if tag_in else plan.default_tags
    mask = itertools.repeat((1 << k.tag_width) - 1)
    return list(map(and_, map(tags.get, plan.input_ids, fallback), mask))


def _init_tags(k: Kernel, input_tags: list, memory_tags) -> list:
    """The tag slots of a fine run: the input tags, 0 for constants and
    nodes, and the list of cell tags of each memory: its initial tags from
    memory_tags, laid out as Plan.memory_tags (the join is not read), then 0."""
    tags = input_tags + [0] * len(k.constants)
    tags += [_cells(m.size, init_tags) for m, (init_tags, _) in zip(k.memories, memory_tags)]
    tags += [0] * len(k.nodes)
    return tags


def _execute(k: Kernel, vals: list, start=0, stop=None) -> tuple | None:
    """The one value walk over k.plan, from step start + 1 to step stop
    (None: the last): each step sets its slot by its value function. The
    walk stops at a trap and returns it as data, (type, message located at
    its node and step, node id, step); else None. Nodes hold the last
    len(k.nodes) slots in declaration order, so a step is found from its slot."""
    try:
        for out, value_of, x, y, z, _, _ in k.plan.steps[start:stop]:
            vals[out] = value_of(vals[x], vals[y], vals[z])
    except EvalError as e:
        step = out - len(vals) + len(k.nodes) + 1
        node_id = k.nodes[step - 1].id
        return type(e), f"{e.args[0]} (node {node_id}, step {step})", node_id, step
    return None


def _raised(result, trap):
    """result, or trap raised as a new exception. Its frame, like its
    callers', holds no slot, cell or tag list, so neither does the trace."""
    if trap is not None:
        error, *located = trap
        raise error(*located)
    return result


def _baseline(k: Kernel, inputs: RunInputs, diags=None) -> tuple:
    """run_baseline's walk: (outputs, None), or (None, trap)."""
    vals = _values(k, inputs, diags)[0]
    trap = _execute(k, vals)
    if trap is not None:
        return None, trap
    return {oid: vals[slot] for oid, slot in k.plan.outputs}, None


def run_baseline(
    k: Kernel, inputs: RunInputs, diags: list[Diagnostic] | None = None
) -> dict[str, int]:
    """Execute the kernel without any tracking; checkpoints are no-ops."""
    return _raised(*_baseline(k, inputs, diags))


def run_dift(
    k: Kernel,
    inputs: RunInputs,
    cfg: DiftConfig,
    monitor: MonitorState | None = None,
    diags: list[Diagnostic] | None = None,
) -> SimulationReport:
    """Execute the kernel with tag propagation and monitored checkpoints.

    Fine mode tracks per operation; memory cells carry tags (a store
    writes the value tag, joined with the address tag under the union
    rule; a load joins cell and address tags under both rules). Coarse
    mode replays no tags and gives every output and checkpoint
    observation the boundary tag: the join of all input and initial
    memory tags. Output values always equal run_baseline's.

    The run is one call of the replay core, _track; only here does a run
    meet a monitor: a nonzero REG_TAG_IN word tags the inputs that inputs
    leaves untagged, the denials are recorded, a trapped run's too, and
    the report reads the monitor's queue.
    """
    _check_width(k, cfg)
    if monitor is None:
        monitor = MonitorState()
    rule = cfg.rule
    outputs, denied, seen, steps, halted, trap = _track(
        k,
        _values(k, inputs, diags),
        _input_tags(k, inputs.tags, monitor.tag_in),
        k.plan.memory_tags,
        rule,
        cfg.on_exception == "halt",
    )
    record(monitor, denied)
    if trap is not None:
        return _raised(None, trap)
    return SimulationReport(
        outputs,
        tuple(monitor.exceptions),
        monitor.irq,
        steps,
        "coarse" if rule is None else "fine",
        None if rule is None else rule._value_,  # not .value, an Enum property call
        seen,
        halted,
    )


def _check_width(k: Kernel, cfg: DiftConfig) -> None:
    if cfg.tag_width != k.tag_width:
        raise WidthMismatch(f"config tag width {cfg.tag_width} does not match kernel {k.tag_width}")


def _replay(k: Kernel, values: list, tags, precise, start=0, stop=None) -> tuple:
    """The one tag walk, from step start + 1 to step stop (None: the last),
    over values from _values: it first extends the pass to stop and stores
    the trap _execute returns in it, so no value past stop is walked and
    none twice. Tag functions read operand values only from slots written
    once, so each read sees the value of its step. Returns (the last step
    replayed, the pass's trap if it falls in the steps to stop, else None):
    a trap stops the replay before its step."""
    vals, walked, trap = values
    if stop is None:
        stop = len(k.nodes)
    if trap is None and walked < stop:
        trap = _execute(k, vals, walked, stop)
        values[1:] = (stop, None) if trap is None else (trap[3] - 1, trap)
    if trap is not None and trap[3] <= stop:
        stop = trap[3] - 1
    else:
        trap = None
    if tags is not None:
        for out, _, x, y, z, union_of, precise_of in k.plan.steps[start:stop]:
            tag_of = precise_of if precise else union_of
            tags[out] = tag_of(vals[x], vals[y], vals[z], tags[x], tags[y], tags[z])
    return stop, trap


def _track(k: Kernel, values: list, input_tags: list, memory_tags, rule, halt: bool) -> tuple:
    """The replay core: one tracked run of k as plain data. It replays
    tags over values, a value pass of k from _values, from the run's input
    tags and its memories' initial tags, memory_tags, laid out as
    Plan.memory_tags (k.plan.memory_tags, or other tags with their joins),
    under rule (None: coarse), cut at the first deny if halt. A coarse
    boundary joins the input tags and one join per memory. It holds no
    monitor and builds no report: it returns (outputs, denials, checkpoint
    tags, steps replayed, halted, trap or None), and a run that halts or
    traps has no outputs.

    A halting run is the recording run cut at its first deny, and its loop
    only finds that cut: it replays to each watched step in turn (a coarse
    run walks values only) and stops at the first checkpoint that denies.
    Any other run replays to its end or its trap, and the checkpoints that
    ran are the prefix of the Plan.checkpoints columns up to that step.
    One judge then reads those checkpoints' tags and builds the checkpoint
    tags and the SecurityExceptions with a few calls over whole columns.
    Judging after the replay is sound, as no checkpoint changes a run and
    the slot each reads is written once, at or before its step."""
    tags = None
    if rule is None:
        boundary = 0
        for t in input_tags:
            boundary |= t
        for _, join in memory_tags:
            boundary |= join
    else:
        tags = _init_tags(k, input_tags, memory_tags)
    precise = rule is PRECISE
    steps, ids, args, slots, denied_bits, policy_names = k.plan.checkpoints
    done, ran = 0, None  # the steps replayed; the checkpoints that ran, if a deny cut the run
    if halt:
        for i, (step, slot, bits) in enumerate(zip(steps, slots, denied_bits), 1):
            done, trap = _replay(k, values, tags, precise, done, step)
            if trap is not None:
                break
            if (boundary if tags is None else tags[slot]) & bits:
                ran = i
                break
    halted = ran is not None
    if not halted:
        done, trap = _replay(k, values, tags, precise, done)
        ran = bisect_right(steps, done)
    seen = [boundary] * ran if tags is None else list(map(tags.__getitem__, slots[:ran]))
    denied = tuple(
        map(
            tuple.__new__,  # SecurityException._make without its per-call Python frame
            itertools.repeat(SecurityException),
            itertools.compress(
                zip(ids, args, seen, steps, policy_names), map(and_, seen, denied_bits)
            ),
        )
    )
    outputs = {}
    if not halted and trap is None:
        outputs = {
            oid: (values[0][slot], boundary if tags is None else tags[slot])
            for oid, slot in k.plan.outputs
        }
    return outputs, denied, tuple(zip(ids, seen)), done, halted, trap


# ---------------------------------------------------------------------------
# Differential checking
# ---------------------------------------------------------------------------


def sample_inputs(k: Kernel, rng: random.Random) -> RunInputs:
    """Uniform random values, tags, and memory contents for one run."""
    values = {i.id: rng.randrange(1 << i.ty.width) for i in k.inputs}
    tags = {i.id: rng.randrange(1 << k.tag_width) for i in k.inputs}
    memory = {
        m.id: [rng.randrange(1 << m.cell.width) for _ in range(m.size)]
        for m in k.memories
    }
    return RunInputs(values, tags, memory)


class Mismatch(namedtuple("Mismatch", "sample kind detail inputs")):
    """One failed sample of check_consistency: its index (int), its kind
    ("error", "opt_value", "opt_tag" or "opt_exceptions"), a detail str,
    and the RunInputs that show it."""

    __slots__ = ()


class ConsistencyReport(namedtuple("ConsistencyReport", "kernel mode rule samples mismatches")):
    """check_consistency's result: the kernel's name, mode, rule (a str or
    None), the number of samples, and a tuple of Mismatch."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (
            f"check {self.kernel} mode={self.mode} rule={self.rule or '-'}: "
            f"samples={self.samples} mismatches={len(self.mismatches)}"
        )


def _exception_seq(denied) -> list[tuple[str, str, int, str]]:
    # Step indices may shift across passes; the sequence is what must hold.
    return [(e.checkpoint_id, e.node_id, e.tag_bits, e.policy_name) for e in denied]


def check_consistency(k: Kernel, cfg: DiftConfig, samples: int, seed: int) -> ConsistencyReport:
    """Seeded differential run: optimized (const_fold + dead_code_elim)
    vs unoptimized tracked runs, compared on traps, the exception
    sequence, halting and output tags, and the optimized output values
    against run_baseline's. A pair that fails with the same error on the
    same node is consistent."""
    return check_configs(k, [cfg], samples, seed)[0]


def check_configs(
    k: Kernel, cfgs: list[DiftConfig], samples: int, seed: int
) -> list[ConsistencyReport]:
    """check_consistency under each of cfgs on the same samples: per
    sample, one run_baseline, its input tags, one value pass of k and one
    of the optimized kernel, and a replay of each under every
    configuration. The passes keep k's inputs, so both kernels' replays
    start from the same input tags."""
    for cfg in cfgs:
        _check_width(k, cfg)
    rng = random.Random(seed)
    opt = dead_code_elim(const_fold(k))
    runs = [(cfg.rule, cfg.on_exception == "halt") for cfg in cfgs]
    found: list[list[Mismatch]] = [[] for _ in cfgs]
    for i in range(samples):
        ri = sample_inputs(k, rng)
        try:
            base = run_baseline(k, ri)
        except EvalError:  # every replay of k traps on the same node or halts first
            base = None
        values, opt_values = _values(k, ri), _values(opt, ri)
        input_tags = _input_tags(k, ri.tags)
        for (rule, halt), mismatches in zip(runs, found):
            add = mismatches.append
            outputs, denied, _, _, halted, trap = _track(
                k, values, input_tags, k.plan.memory_tags, rule, halt
            )
            opt_outputs, opt_denied, _, _, opt_halted, opt_trap = _track(
                opt, opt_values, input_tags, opt.plan.memory_tags, rule, halt
            )
            # Traps are compared by type and node: steps shift across passes.
            dift_err, opt_err = [t and (t[0].__name__, t[2]) for t in (trap, opt_trap)]
            if dift_err or opt_err:
                if dift_err != opt_err:
                    add(Mismatch(i, "error", f"unoptimized {dift_err} vs optimized {opt_err}", ri))
                continue
            seq, opt_seq = _exception_seq(denied), _exception_seq(opt_denied)
            if seq != opt_seq:
                add(Mismatch(i, "opt_exceptions", f"unoptimized {seq} vs optimized {opt_seq}", ri))
            if halted or opt_halted:
                if halted != opt_halted:
                    add(Mismatch(i, "opt_value", "halt state differs", ri))
                continue
            for oid, value in base.items():
                ovalue, otag = opt_outputs[oid]
                if value != ovalue:
                    add(Mismatch(i, "opt_value", f"output {oid}: {value} vs {ovalue}", ri))
                tag = outputs[oid][1]
                if tag != otag:
                    add(Mismatch(i, "opt_tag", f"output {oid} tag: {tag} vs {otag}", ri))
    modes = [("coarse", None) if c.rule is None else ("fine", c.rule.value) for c in cfgs]
    return [ConsistencyReport(k.name, *m, samples, tuple(f)) for m, f in zip(modes, found)]


# ---------------------------------------------------------------------------
# Property fuzzing
# ---------------------------------------------------------------------------


class Counterexample(namedtuple("Counterexample", "property trial inputs detail")):
    """One trial of fuzz_properties that breaks a property: the property's
    name, the trial's index (int), its RunInputs, and a detail str."""

    __slots__ = ()


class PropertyReport(namedtuple("PropertyReport", "kernel trials counterexamples")):
    """fuzz_properties's result: the kernel's name, the number of trials,
    and a tuple of Counterexample."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        return (
            f"fuzz {self.kernel}: trials={self.trials} "
            f"counterexamples={len(self.counterexamples)}"
        )


def fuzz_properties(k: Kernel, trials: int, seed: int) -> PropertyReport:
    """Seeded random trials of the four tracking properties: untainted
    closure, union-rule monotonicity, precise-subset-of-union, and
    fine-subset-of-coarse. Counterexamples carry the full inputs.

    A trial's runs are replays of one value pass from tags given as data:
    the closure runs from zero input and memory tags, the others from the
    sample's tags, and the monotonicity run with one input's tag widened.
    So they trap alike, and a trial whose pass traps is skipped."""
    rng = random.Random(seed)
    tw = k.tag_width
    rules = (UNION, PRECISE, None)
    modes = [("fine", "union"), ("fine", "precise"), ("coarse", None)]
    zero_inputs = [0] * len(k.inputs)
    zero_memories = (((), 0),) * len(k.memories)
    cexs: list[Counterexample] = []

    def with_tags(ri: RunInputs, tags: dict) -> RunInputs:
        return RunInputs(dict(ri.values), tags, dict(ri.memory))

    for trial in range(trials):
        ri = sample_inputs(k, rng)
        input_tags = _input_tags(k, ri.tags)
        runs = [(zero_inputs, zero_memories, rule) for rule in rules]
        runs += [(input_tags, k.plan.memory_tags, rule) for rule in rules]
        if k.inputs:
            # Drawn on every trial, so one trial's trap never shifts the next's
            # inputs; choosing an index draws as choosing from k.inputs would.
            widened = rng.choice(range(len(k.inputs)))
            extra = rng.randrange(1 << tw)
            wide_tags = list(input_tags)
            wide_tags[widened] |= extra
            runs.append((wide_tags, k.plan.memory_tags, UNION))

        values = _values(k, ri)  # the runs differ only in tags
        results = [_track(k, values, *run, False) for run in runs]
        if results[0][5] is not None:  # the pass traps, so every run does
            continue
        outputs = [result[0] for result in results]

        for (mode, rule), (outs, denied, *_) in zip(modes, results[:3]):
            bad = [oid for oid, (_, t) in outs.items() if t != 0]
            if bad or denied:
                zero_ri = with_tags(ri, {i.id: 0 for i in k.inputs})
                cexs.append(
                    Counterexample(
                        "closure",
                        trial,
                        zero_ri,
                        f"mode={mode} rule={rule} tainted outputs={bad} "
                        f"exceptions={len(denied)} (input and initial memory tags zero)",
                    )
                )

        out_u, out_p, out_c = outputs[3:6]
        for oid, (_, t_p) in out_p.items():
            t_u = out_u[oid][1]
            if t_p & ~t_u:
                cexs.append(
                    Counterexample(
                        "precise_subset",
                        trial,
                        ri,
                        f"output {oid}: precise {t_p:#x} not within union {t_u:#x}",
                    )
                )
        for rule, outs in (("union", out_u), ("precise", out_p)):
            for oid, (_, t) in outs.items():
                t_c = out_c[oid][1]
                if t & ~t_c:
                    cexs.append(
                        Counterexample(
                            "coarse_subset",
                            trial,
                            ri,
                            f"output {oid}: fine({rule}) {t:#x} not within boundary {t_c:#x}",
                        )
                    )

        if k.inputs:
            out_w = outputs[6]
            for oid, (_, base_tag) in out_u.items():
                wide_tag = out_w[oid][1]
                if base_tag & ~wide_tag:
                    picked = k.inputs[widened].id
                    wide_ri = with_tags(ri, {**ri.tags, picked: ri.tags[picked] | extra})
                    cexs.append(
                        Counterexample(
                            "monotonicity",
                            trial,
                            wide_ri,
                            f"output {oid}: widening {picked} shrank the tag "
                            f"{base_tag:#x} -> {wide_tag:#x}",
                        )
                    )
    return PropertyReport(kernel=k.name, trials=trials, counterexamples=tuple(cexs))
