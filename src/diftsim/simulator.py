"""Kernel execution, differential consistency checking, the brute-force
independence oracle, and the property fuzzer.

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
checkpoint logic. A recording run judges its checkpoints after its
replay, over the columns of Plan.checkpoints (in firing order), with a
few calls that each cover every checkpoint that ran, and hands their
denials to the monitor at once. A halting run iterates the same columns,
replays to each watched step in turn and stops at the first deny.
Distinct runs over immutable kernels are independent. All randomness is
seeded.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_right
from collections import namedtuple
from operator import and_
from typing import NamedTuple

from .bitvalue import COMPARE_OPS, OP_ARITY, BitType, OpKind, apply_op
from .errors import DiftError, EvalError, WidthMismatch, WidthTooLarge
from .kernel_ir import Diagnostic, Kernel, const_fold, dead_code_elim
from .policy_monitor import REG_TAG_IN, MonitorState, SecurityException, record, reg_read
from .taint import CoarseBoundary, DiftConfig, FineGrained, PropagationRule

_ORACLE_MAX_WIDTH = 6


class RunInputs(namedtuple("RunInputs", "values tags memory")):
    """One run's stimulus: input values (wrapped on load), tag overrides,
    and optional per-memory value overrides, as dicts from id to int (to
    a list of cell values for memory); each one left out is a new {}."""

    __slots__ = ()

    def __new__(cls, values=None, tags=None, memory=None):
        return tuple.__new__(cls, [{} if d is None else d for d in (values, tags, memory)])


class SimulationReport(NamedTuple):
    """Outputs, exceptions, and monitor state of one tracked run.

    checkpoint_tags and halted are in-memory extras; to_json emits exactly
    the wire schema (outputs, exceptions, irq, steps, mode, rule)."""

    outputs: dict[str, tuple[int, int]]  # id -> (value bits, tag bits)
    exceptions: tuple
    irq: bool
    steps_executed: int
    mode: str
    rule: str | None
    checkpoint_tags: tuple[tuple[str, int], ...] = ()
    halted: bool = False

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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        diags.append(Diagnostic("error", f"line {e.lineno}", f"invalid JSON: {e.msg}"))
        return None, diags
    except RecursionError:
        diags.append(Diagnostic("error", "inputs", "JSON nested too deeply"))
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
    and constant, the cell list of every memory, and a place for every node."""

    def warn(loc: str, msg: str) -> None:
        if diags is not None:
            diags.append(Diagnostic("warning", loc, msg))

    if diags is not None:  # unknown ids warn in the inputs document's order
        known = {i.id for i in k.inputs}
        for unknown in inputs.values:
            if unknown not in known:
                warn(unknown, "value for unknown input ignored")
        for unknown in inputs.tags:
            if unknown not in known:
                warn(unknown, "tag for unknown input ignored")
        known_memories = {m.id for m in k.memories}
        for unknown in inputs.memory:
            if unknown not in known_memories:
                warn(unknown, "override for unknown memory ignored")

    vals: list = []
    for inp in k.inputs:
        if inp.id in inputs.values:
            vals.append(inputs.values[inp.id] & inp.ty.mask)
        else:
            warn(inp.id, "input not assigned; defaulting to 0")
            vals.append(0)
    vals += k.plan.constants
    for m in k.memories:
        override = inputs.memory.get(m.id)
        if override is None:
            cells = list(m.init)
        else:
            if len(override) > m.size:  # bad input, not a trap: no node has run
                raise DiftError(
                    f"memory override for {m.id} has {len(override)} cells, size is {m.size}"
                )
            # One pass: the masked override, then what it leaves of init.
            mask = m.cell.mask
            cells = [raw & mask for raw in override]
            cells += m.init[len(cells) :]
        cells += [0] * (m.size - len(cells))
        vals.append(cells)
    vals += [0] * len(k.nodes)
    return [vals, 0, None]


def _input_tags(k: Kernel, inputs: RunInputs, monitor: MonitorState) -> list:
    """Tag bits of every input: explicit override, else a nonzero
    REG_TAG_IN word, else the declared default."""
    mask = (1 << k.tag_width) - 1
    tag_in = reg_read(monitor, REG_TAG_IN)
    tags: list = []
    for inp in k.inputs:
        if inp.id in inputs.tags:
            tags.append(inputs.tags[inp.id] & mask)
        elif tag_in:
            tags.append(tag_in & mask)
        else:
            tags.append(inp.default_tag)
    return tags


def _init_tags(k: Kernel, input_tags: list) -> list:
    """The tag slots of a fine run: the input tags, 0 for constants and
    nodes, and every memory's list of cell tags."""
    tags = input_tags + [0] * len(k.constants)
    tags += [list(m.init_tags) + [0] * (m.size - len(m.init_tags)) for m in k.memories]
    tags += [0] * len(k.nodes)
    return tags


def _locate(exc: EvalError, node_id: str, step: int) -> EvalError:
    exc.node_id = node_id
    exc.step = step
    exc.args = (f"{exc.args[0]} (node {node_id}, step {step})",)
    return exc


def _execute(k: Kernel, vals: list, start=0, stop=None) -> None:
    """The one value walk over k.plan, from step start + 1 to step stop
    (None: the last): each step sets its slot by its value function. A
    trap is raised located at its node and step."""
    for step, (out, value_of, x, y, z, _, _) in enumerate(k.plan.steps[start:stop], start + 1):
        try:
            vals[out] = value_of(vals[x], vals[y], vals[z])
        except EvalError as e:
            raise _locate(e, k.nodes[step - 1].id, step)


def run_baseline(
    k: Kernel, inputs: RunInputs, diags: list[Diagnostic] | None = None
) -> dict[str, int]:
    """Execute the kernel without any tracking; checkpoints are no-ops."""
    vals = _values(k, inputs, diags)[0]
    _execute(k, vals)
    return {oid: vals[slot] for oid, slot in k.plan.outputs}


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
    """
    return _track(k, inputs, cfg, monitor, diags)


def _replay(k: Kernel, values: list, tags, precise, start=0, stop=None) -> None:
    """The one tag walk, from step start + 1 to step stop (None: the last),
    over values from _values: it first extends the pass to stop, keeping
    the trap it meets, so no value past stop is walked and none twice.
    Tag functions read operand values only from slots written once, so
    each read sees the value of its step. Raises the pass's trap when it
    falls in those steps, after replaying the steps before it."""
    vals, walked, trap = values
    if stop is None:
        stop = len(k.nodes)
    if trap is None and walked < stop:
        try:
            _execute(k, vals, walked, stop)
            values[1] = stop
        except EvalError as e:
            values[1:] = e.step - 1, e
            trap = e
    if trap is not None and trap.step <= stop:
        stop = trap.step - 1
    else:
        trap = None
    if tags is not None:
        for out, _, x, y, z, union_of, precise_of in k.plan.steps[start:stop]:
            tag_of = precise_of if precise else union_of
            tags[out] = tag_of(vals[x], vals[y], vals[z], tags[x], tags[y], tags[z])
    if trap is not None:
        raise trap


def _track(k, inputs, cfg, monitor=None, diags=None, values=None) -> SimulationReport:
    """run_dift's set-up, checkpoints and report around a tag replay of
    values, a value pass of k on inputs from _values (None: a new one).
    A recording run judges its checkpoints after the replay, as none
    changes it and the slot each reads is written once, at or before its
    step. The checkpoints that ran are a prefix of the Plan.checkpoints
    columns, found by bisect_right on the steps; their tags, their
    observations and their denials are each built by one call over whole
    columns, with no Python iteration per checkpoint. A halting run
    iterates the columns, replays to each watched step in turn and stops
    at the first deny; a coarse one needs no replay to judge, as its tag
    is known."""
    if cfg.tag_width != k.tag_width:
        raise WidthMismatch(f"config tag width {cfg.tag_width} does not match kernel {k.tag_width}")
    if monitor is None:
        monitor = MonitorState()
    if values is None:
        values = _values(k, inputs, diags)
    input_tags = _input_tags(k, inputs, monitor)
    rule = cfg.rule
    tags = None
    if rule is None:
        boundary = 0
        for t in itertools.chain(input_tags, *(m.init_tags for m in k.memories)):
            boundary |= t
    else:
        tags = _init_tags(k, input_tags)
    precise = rule is PropagationRule.PRECISE
    halt = cfg.on_exception == "halt"
    done, trap = 0, None  # the steps replayed, and the recording replay's trap
    if halt:
        observed, denied = [], []
        for step, cp_id, node_id, slot, bits, name in zip(*k.plan.checkpoints):
            if step > done and tags is not None:  # a coarse checkpoint reads no slot
                _replay(k, values, tags, precise, done, step)
                done = step
            tag = boundary if tags is None else tags[slot]
            observed.append((cp_id, tag))
            if tag & bits:
                denied.append(SecurityException(cp_id, node_id, tag, step, name))
                break
        observations = tuple(observed)
    else:  # the checkpoints that ran, a prefix of the columns, each column in one call
        try:
            _replay(k, values, tags, precise)
            done = len(k.nodes)
        except EvalError as e:
            trap, done = e, e.step - 1
        steps, ids, args, slots, denied_bits, policy_names = k.plan.checkpoints
        ran = bisect_right(steps, done)
        seen = [boundary] * ran if tags is None else list(map(tags.__getitem__, slots[:ran]))
        observations = tuple(zip(ids, seen))
        denied = tuple(
            map(
                tuple.__new__,  # SecurityException._make without its per-call Python frame
                itertools.repeat(SecurityException),
                itertools.compress(
                    zip(ids, args, seen, steps, policy_names), map(and_, seen, denied_bits)
                ),
            )
        )
    halted = halt and bool(denied)
    if halt:  # on to the denying step, or to the end
        stop = denied[0].step if halted else len(k.nodes)
        if stop > done:
            _replay(k, values, tags, precise, done, stop)
        done = stop
    record(monitor, denied)
    if trap is not None:
        raise trap
    outputs: dict[str, tuple[int, int]] = {}
    if not halted:
        outputs = {
            oid: (values[0][slot], boundary if tags is None else tags[slot])
            for oid, slot in k.plan.outputs
        }
    return SimulationReport(
        outputs,
        tuple(monitor.exceptions),
        monitor.irq,
        done,
        "coarse" if rule is None else "fine",
        None if rule is None else rule._value_,  # not .value, an Enum property call
        observations,
        halted,
    )


def _replayed(k: Kernel, inputs: RunInputs, cfg: DiftConfig, values: list):
    """A replay of values under cfg: (report, None), or (None, error signature)."""
    try:
        return _track(k, inputs, cfg, values=values), None
    except EvalError as e:
        return None, _error_sig(e)


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


class Mismatch(NamedTuple):
    sample: int
    kind: str  # "value" | "error" | "opt_value" | "opt_tag" | "opt_exceptions"
    detail: str
    inputs: RunInputs


class ConsistencyReport(NamedTuple):
    kernel: str
    mode: str
    rule: str | None
    samples: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        return (
            f"check {self.kernel} mode={self.mode} rule={self.rule or '-'}: "
            f"samples={self.samples} mismatches={len(self.mismatches)}"
        )


def _error_sig(e: EvalError) -> tuple[str, str | None]:
    return (type(e).__name__, e.node_id)


def _exception_seq(rep: SimulationReport) -> list[tuple[str, str, int, str]]:
    # Step indices may shift across passes; the sequence is what must hold.
    return [(e.checkpoint_id, e.node_id, e.tag_bits, e.policy_name) for e in rep.exceptions]


def check_consistency(k: Kernel, cfg: DiftConfig, samples: int, seed: int) -> ConsistencyReport:
    """Seeded differential run: baseline vs tracked output values, plus
    optimized (const_fold + dead_code_elim) vs unoptimized tracked runs
    compared on values, tags, and the exception sequence. A pair that
    fails with the same error on the same node is consistent, and so is a
    baseline trap beside a tracked run that halted before reaching it."""
    return check_configs(k, [cfg], samples, seed)[0]


def check_configs(
    k: Kernel, cfgs: list[DiftConfig], samples: int, seed: int
) -> list[ConsistencyReport]:
    """check_consistency under each of cfgs on the same samples: per
    sample, one run_baseline, one value pass of k and one of the
    optimized kernel, and a replay of each under every configuration."""
    rng = random.Random(seed)
    opt = dead_code_elim(const_fold(k))
    found: list[list[Mismatch]] = [[] for _ in cfgs]
    for i in range(samples):
        ri = sample_inputs(k, rng)
        base = base_err = None
        try:
            base = run_baseline(k, ri)
        except EvalError as e:
            base_err = _error_sig(e)
        values, opt_values = _values(k, ri), _values(opt, ri)
        for cfg, mismatches in zip(cfgs, found):
            add = mismatches.append
            rep, dift_err = _replayed(k, ri, cfg, values)
            rep_opt, opt_err = _replayed(opt, ri, cfg, opt_values)
            if base_err or dift_err:
                # A replay raises a trap at or before its halt: one that halted stopped first.
                if base_err != dift_err and not (dift_err is None and rep.halted):
                    add(Mismatch(i, "error", f"baseline {base_err} vs dift {dift_err}", ri))
            elif not rep.halted:
                for oid, value in base.items():
                    got = rep.outputs[oid][0]
                    if got != value:
                        add(Mismatch(i, "value", f"output {oid}: baseline {value}, dift {got}", ri))

            if dift_err or opt_err:
                if dift_err != opt_err:
                    add(Mismatch(i, "error", f"unoptimized {dift_err} vs optimized {opt_err}", ri))
                continue
            seq, opt_seq = _exception_seq(rep), _exception_seq(rep_opt)
            if seq != opt_seq:
                add(Mismatch(i, "opt_exceptions", f"unoptimized {seq} vs optimized {opt_seq}", ri))
            if rep.halted or rep_opt.halted:
                if rep.halted != rep_opt.halted:
                    add(Mismatch(i, "opt_value", "halt state differs", ri))
                continue
            for oid, (value, tag) in rep.outputs.items():
                ovalue, otag = rep_opt.outputs[oid]
                if value != ovalue:
                    add(Mismatch(i, "opt_value", f"output {oid}: {value} vs {ovalue}", ri))
                if tag != otag:
                    add(Mismatch(i, "opt_tag", f"output {oid} tag: {tag} vs {otag}", ri))
    modes = [("coarse", None) if c.rule is None else ("fine", c.rule.value) for c in cfgs]
    return [ConsistencyReport(k.name, *m, samples, tuple(f)) for m, f in zip(modes, found)]


# ---------------------------------------------------------------------------
# Oracles and property fuzzing
# ---------------------------------------------------------------------------


def independence_oracle(
    kind: OpKind,
    operand_types: list[BitType],
    tainted_positions: set[int],
    untainted_values: dict[int, int],
    result_ty: BitType | None = None,
) -> bool:
    """True iff the op's value result is constant while the tainted
    positions range over all their possible values. Ground truth for
    taint-kill soundness; widths are capped so enumeration stays exact."""
    arity = OP_ARITY[kind]
    if len(operand_types) != arity:
        raise WidthMismatch(f"{kind.value} takes {arity} operand types")
    if any(t.width > _ORACLE_MAX_WIDTH for t in operand_types):
        raise WidthTooLarge(f"operand widths must be <= {_ORACLE_MAX_WIDTH}")
    if set(untainted_values) | set(tainted_positions) != set(range(arity)):
        raise WidthMismatch("tainted positions and untainted values must cover all operands")
    if result_ty is None:
        result_ty = BitType(1) if kind in COMPARE_OPS else operand_types[0]
    order = sorted(tainted_positions)
    bits = [untainted_values.get(p, 0) & operand_types[p].mask for p in range(arity)]
    outcomes: set = set()
    for combo in itertools.product(*(range(1 << operand_types[p].width) for p in order)):
        for p, b in zip(order, combo):
            bits[p] = b
        try:
            result = apply_op(kind, bits, operand_types, result_ty)
        except EvalError as e:
            result = ("error", type(e).__name__)
        outcomes.add(result)
        if len(outcomes) > 1:
            return False
    return True


class Counterexample(NamedTuple):
    property: str
    trial: int
    inputs: RunInputs
    detail: str


class PropertyReport(NamedTuple):
    kernel: str
    trials: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def summary(self) -> str:
        return (
            f"fuzz {self.kernel}: trials={self.trials} "
            f"counterexamples={len(self.counterexamples)}"
        )


def _zero_tag_kernel(k: Kernel) -> Kernel:
    """k without initial memory tags. It shares k's plan, which holds no tags."""
    zeroed = k._replace(memories=tuple(m._replace(init_tags=()) for m in k.memories))
    zeroed.__dict__["plan"] = k.plan
    return zeroed


def fuzz_properties(k: Kernel, trials: int, seed: int) -> PropertyReport:
    """Seeded random trials of the four tracking properties: untainted
    closure, union-rule monotonicity, precise-subset-of-union, and
    fine-subset-of-coarse. Counterexamples carry the full inputs.

    A trial's runs share its input values and memory, so they trap
    alike: a trial whose runs all fail with the same error on the same
    node passes, and runs that disagree give a "trap" counterexample."""
    rng = random.Random(seed)
    tw = k.tag_width
    union_cfg = DiftConfig(tw, FineGrained(PropagationRule.UNION))
    precise_cfg = DiftConfig(tw, FineGrained(PropagationRule.PRECISE))
    coarse_cfg = DiftConfig(tw, CoarseBoundary())
    cfgs = (union_cfg, precise_cfg, coarse_cfg)
    zeroed = _zero_tag_kernel(k)
    cexs: list[Counterexample] = []

    for trial in range(trials):
        ri = sample_inputs(k, rng)
        zero_ri = RunInputs(dict(ri.values), {i.id: 0 for i in k.inputs}, dict(ri.memory))
        runs = [(zeroed, zero_ri, cfg) for cfg in cfgs] + [(k, ri, cfg) for cfg in cfgs]
        if k.inputs:
            # Drawn on every trial, so one trial's trap never shifts the next's inputs.
            picked = rng.choice(k.inputs).id
            extra = rng.randrange(1 << tw)
            wide_tags = dict(ri.tags)
            wide_tags[picked] = wide_tags[picked] | extra
            wide_ri = RunInputs(dict(ri.values), wide_tags, dict(ri.memory))
            runs.append((k, wide_ri, union_cfg))

        values = _values(k, ri)  # the runs differ from k on ri only in tags
        reps, errs = zip(*[_replayed(*run, values) for run in runs])
        if any(errs):
            if None in errs or len(set(errs)) > 1:
                outcomes = ", ".join(
                    "ok" if e is None else f"{e[0]} at {e[1]}" for e in errs
                )
                cexs.append(Counterexample("trap", trial, ri, f"runs disagree: {outcomes}"))
            continue

        for rep in reps[:3]:
            bad = [oid for oid, (_, t) in rep.outputs.items() if t != 0]
            if bad or rep.exceptions:
                cexs.append(
                    Counterexample(
                        "closure",
                        trial,
                        zero_ri,
                        f"mode={rep.mode} rule={rep.rule} tainted outputs={bad} "
                        f"exceptions={len(rep.exceptions)}",
                    )
                )

        rep_u, rep_p, rep_c = reps[3:6]
        for oid, (_, t_p) in rep_p.outputs.items():
            t_u = rep_u.outputs[oid][1]
            if t_p & ~t_u:
                cexs.append(
                    Counterexample(
                        "precise_subset",
                        trial,
                        ri,
                        f"output {oid}: precise {t_p:#x} not within union {t_u:#x}",
                    )
                )
        for rep in (rep_u, rep_p):
            for oid, (_, t) in rep.outputs.items():
                t_c = rep_c.outputs[oid][1]
                if t & ~t_c:
                    cexs.append(
                        Counterexample(
                            "coarse_subset",
                            trial,
                            ri,
                            f"output {oid}: fine({rep.rule}) {t:#x} not within boundary {t_c:#x}",
                        )
                    )

        if k.inputs:
            rep_w = reps[6]
            for oid, (_, base_tag) in rep_u.outputs.items():
                wide_tag = rep_w.outputs[oid][1]
                if base_tag & ~wide_tag:
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
