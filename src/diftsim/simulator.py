"""Kernel execution, differential consistency checking, the brute-force
independence oracle, and the property fuzzer.

run_baseline and run_dift share one walk, _execute, over the kernel's
Plan (Kernel.plan, lowered once per kernel instance): a run keeps its
values and tags in lists indexed by slot, and each step calls the
node's value function from bitvalue.value_fn and, when tags are on, its
union or precise tag function from taint.tag_fn. run_baseline is that
walk with tags off; fine run_dift adds int tags and live checkpoints;
coarse run_dift is the walk with tags off plus one boundary OR that
every checkpoint and output observes. A checkpoint submits its tag bits
and its policy, resolved when the kernel was lowered, to the monitor.
The walk follows the node list in order, so a single run is sequential;
distinct runs over immutable kernels are independent. All randomness is
seeded.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from typing import NamedTuple

from .bitvalue import COMPARE_OPS, BitType, OpKind, apply_op, op_arity
from .errors import EvalError, OutOfBoundsAddress, WidthMismatch, WidthTooLarge
from .kernel_ir import Diagnostic, Kernel, const_fold, dead_code_elim
from .policy_monitor import REG_TAG_IN, MonitorState, checkpoint, reg_read
from .taint import CoarseBoundary, FineGrained, PropagationRule
from .tainted import DiftConfig

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


def _init_values(k: Kernel, inputs: RunInputs, diags: list[Diagnostic] | None) -> list:
    """The value slots of a run: canonical bits of every input and
    constant, the cell list of every memory, and a place for every node."""

    def warn(loc: str, msg: str) -> None:
        if diags is not None:
            diags.append(Diagnostic("warning", loc, msg))

    if diags is not None:
        known = {i.id for i in k.inputs}
        for unknown in set(inputs.values) - known:
            warn(unknown, "value for unknown input ignored")
        for unknown in set(inputs.tags) - known:
            warn(unknown, "tag for unknown input ignored")
        for unknown in set(inputs.memory) - {m.id for m in k.memories}:
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
        cells = list(m.init) + [0] * (m.size - len(m.init))
        override = inputs.memory.get(m.id)
        if override is not None:
            if len(override) > m.size:
                raise OutOfBoundsAddress(
                    f"memory override for {m.id} has {len(override)} cells, size is {m.size}",
                    node_id=m.id,
                )
            cells[: len(override)] = [raw & m.cell.mask for raw in override]
        vals.append(cells)
    vals += [0] * len(k.nodes)
    return vals


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


def _execute(k: Kernel, vals: list, tags: list | None = None, precise: bool = False, fire=None):
    """The one walk over k.plan: each step sets its value slot by its value
    function and, when tags is given, its tag slot by its union or precise
    tag function. After each step, every checkpoint watching it goes to
    fire(watch entry, step); fire returning True halts the walk.
    Returns (steps executed, halted)."""
    for step, (out, value_of, x, y, z, union_of, precise_of, watch) in enumerate(
        k.plan.steps, start=1
    ):
        try:
            vx, vy, vz = vals[x], vals[y], vals[z]
            vals[out] = value_of(vx, vy, vz)
            if tags is not None:
                tag_of = precise_of if precise else union_of
                tags[out] = tag_of(vx, vy, vz, tags[x], tags[y], tags[z])
        except EvalError as e:
            raise _locate(e, k.nodes[step - 1].id, step)
        if watch and fire is not None:
            for w in watch:
                if fire(w, step):
                    return step, True
    return len(k.nodes), False


def run_baseline(
    k: Kernel, inputs: RunInputs, diags: list[Diagnostic] | None = None
) -> dict[str, int]:
    """Execute the kernel without any tracking; checkpoints are no-ops."""
    vals = _init_values(k, inputs, diags)
    _execute(k, vals)
    return {oid: vals[slot] for oid, slot in k.plan.outputs}


def run_dift(
    k: Kernel,
    inputs: RunInputs,
    cfg: DiftConfig,
    monitor: MonitorState | None = None,
    diags: list[Diagnostic] | None = None,
) -> SimulationReport:
    """Execute the kernel with tag propagation and live checkpoints.

    Fine mode tracks per operation; memory cells carry tags (a store
    writes the value tag, joined with the address tag under the union
    rule; a load joins cell and address tags under both rules). Coarse
    mode runs the baseline walk and gives every output and checkpoint
    observation the boundary tag: the join of all input and initial
    memory tags. Output values always equal run_baseline's.
    """
    if cfg.tag_width != k.tag_width:
        raise WidthMismatch(
            f"config tag width {cfg.tag_width} does not match kernel {k.tag_width}"
        )
    if monitor is None:
        monitor = MonitorState()
    vals = _init_values(k, inputs, diags)
    input_tags = _input_tags(k, inputs, monitor)
    rule = cfg.rule
    tags = None
    if rule is None:
        boundary = 0
        for t in itertools.chain(input_tags, *(m.init_tags for m in k.memories)):
            boundary |= t
    else:
        tags = _init_tags(k, input_tags)
    halt = cfg.on_exception == "halt"
    observations: list[tuple[str, int]] = []

    def fire(watch: tuple, step: int) -> bool:
        """Submit one checkpoint observation; True means halt now."""
        cp_id, node_id, slot, policy = watch
        tag = boundary if tags is None else tags[slot]
        exc = checkpoint(monitor, cp_id, node_id, policy, tag, step)
        observations.append((cp_id, tag))
        return exc is not None and halt

    # Checkpoints on inputs and constants observe before any node runs.
    halted = any(fire(w, 0) for w in k.plan.early)
    steps = 0
    if not halted:
        steps, halted = _execute(k, vals, tags, rule is PropagationRule.PRECISE, fire)

    outputs: dict[str, tuple[int, int]] = {}
    if not halted:
        outputs = {
            oid: (vals[slot], boundary if tags is None else tags[slot])
            for oid, slot in k.plan.outputs
        }
    return SimulationReport(
        outputs=outputs,
        exceptions=tuple(monitor.exceptions),
        irq=monitor.irq,
        steps_executed=steps,
        mode="coarse" if rule is None else "fine",
        rule=None if rule is None else rule.value,
        checkpoint_tags=tuple(observations),
        halted=halted,
    )


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
    fails with the same error on the same node is consistent."""
    rng = random.Random(seed)
    opt = dead_code_elim(const_fold(k))
    mismatches: list[Mismatch] = []
    for i in range(samples):
        ri = sample_inputs(k, rng)
        base_err = dift_err = opt_err = None
        base = rep = rep_opt = None
        try:
            base = run_baseline(k, ri)
        except EvalError as e:
            base_err = _error_sig(e)
        try:
            rep = run_dift(k, ri, cfg)
        except EvalError as e:
            dift_err = _error_sig(e)
        try:
            rep_opt = run_dift(opt, ri, cfg)
        except EvalError as e:
            opt_err = _error_sig(e)

        if base_err or dift_err:
            if base_err != dift_err:
                mismatches.append(
                    Mismatch(i, "error", f"baseline {base_err} vs dift {dift_err}", ri)
                )
        elif not rep.halted:
            for oid, value in base.items():
                got = rep.outputs[oid][0]
                if got != value:
                    mismatches.append(
                        Mismatch(i, "value", f"output {oid}: baseline {value}, dift {got}", ri)
                    )

        if dift_err or opt_err:
            if dift_err != opt_err:
                mismatches.append(
                    Mismatch(i, "error", f"unoptimized {dift_err} vs optimized {opt_err}", ri)
                )
            continue
        if _exception_seq(rep) != _exception_seq(rep_opt):
            mismatches.append(
                Mismatch(
                    i,
                    "opt_exceptions",
                    f"unoptimized {_exception_seq(rep)} vs optimized {_exception_seq(rep_opt)}",
                    ri,
                )
            )
        if rep.halted or rep_opt.halted:
            if rep.halted != rep_opt.halted:
                mismatches.append(Mismatch(i, "opt_value", "halt state differs", ri))
            continue
        for oid, (value, tag) in rep.outputs.items():
            ovalue, otag = rep_opt.outputs[oid]
            if value != ovalue:
                mismatches.append(
                    Mismatch(i, "opt_value", f"output {oid}: {value} vs {ovalue}", ri)
                )
            if tag != otag:
                mismatches.append(
                    Mismatch(i, "opt_tag", f"output {oid} tag: {tag} vs {otag}", ri)
                )
    return ConsistencyReport(
        kernel=k.name,
        mode="coarse" if isinstance(cfg.mode, CoarseBoundary) else "fine",
        rule=None if cfg.rule is None else cfg.rule.value,
        samples=samples,
        mismatches=tuple(mismatches),
    )


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
    arity = op_arity(kind)
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
    return k._replace(memories=tuple(m._replace(init_tags=()) for m in k.memories))


def fuzz_properties(k: Kernel, trials: int, seed: int) -> PropertyReport:
    """Seeded random trials of the four tracking properties: untainted
    closure, union-rule monotonicity, precise-subset-of-union, and
    fine-subset-of-coarse. Counterexamples carry the full inputs."""
    rng = random.Random(seed)
    tw = k.tag_width
    union_cfg = DiftConfig(tw, FineGrained(PropagationRule.UNION))
    precise_cfg = DiftConfig(tw, FineGrained(PropagationRule.PRECISE))
    coarse_cfg = DiftConfig(tw, CoarseBoundary())
    zeroed = _zero_tag_kernel(k)
    cexs: list[Counterexample] = []

    for trial in range(trials):
        ri = sample_inputs(k, rng)

        zero_ri = RunInputs(dict(ri.values), {i.id: 0 for i in k.inputs}, dict(ri.memory))
        for cfg in (union_cfg, precise_cfg, coarse_cfg):
            rep = run_dift(zeroed, zero_ri, cfg)
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

        rep_u = run_dift(k, ri, union_cfg)
        rep_p = run_dift(k, ri, precise_cfg)
        rep_c = run_dift(k, ri, coarse_cfg)

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
            picked = rng.choice(k.inputs).id
            extra = rng.randrange(1 << tw)
            wide_tags = dict(ri.tags)
            wide_tags[picked] = wide_tags[picked] | extra
            wide_ri = RunInputs(dict(ri.values), wide_tags, dict(ri.memory))
            rep_w = run_dift(k, wide_ri, union_cfg)
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
