"""Straight-line dataflow kernels: file format, validation, compiler passes,
tracking instrumentation, and DOT export.

A kernel is an ordered list of SSA nodes over declared inputs, constants,
and memories, plus security policies, checkpoints, and named outputs. The
file format is a single JSON document; unknown keys are rejected.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from functools import cached_property

from . import taint
from .bitvalue import (
    COMPARE_OPS,
    OP_ARITY,
    BitType,
    BitValue,
    OpKind,
    apply_op,
    pad_operands,
    to_int,
    value_fn,
)
from .errors import DivisionByZero, InvalidType
from .policy_monitor import Policy, PolicyKind
from .taint import MAX_TAG_WIDTH, PropagationRule, Tag
from .tainted import DiftConfig

# Larger memories are rejected: every run and every sample allocates all cells.
MAX_MEMORY_CELLS = 1 << 20


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    location: str  # id of the offending item, or "line N" for syntax errors
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)


@dataclass(frozen=True)
class InputDecl:
    id: str
    ty: BitType
    default_tag: int = 0


@dataclass(frozen=True)
class ConstDecl:
    id: str
    value: BitValue


@dataclass(frozen=True)
class MemoryDecl:
    id: str
    size: int
    cell: BitType
    init: tuple[int, ...] = ()  # canonical cell bits, padded with zeros
    init_tags: tuple[int, ...] = ()


@dataclass(frozen=True)
class Node:
    id: str
    op: OpKind
    args: tuple[str, ...]
    ty: BitType | None = None  # absent for store


@dataclass(frozen=True)
class CheckpointDecl:
    id: str
    arg: str
    policy: str


@dataclass(frozen=True)
class OutputDecl:
    id: str
    source: str


@dataclass(frozen=True)
class Kernel:
    name: str
    tag_width: int
    inputs: tuple[InputDecl, ...] = ()
    constants: tuple[ConstDecl, ...] = ()
    memories: tuple[MemoryDecl, ...] = ()
    nodes: tuple[Node, ...] = ()
    checkpoints: tuple[CheckpointDecl, ...] = ()
    policies: tuple[Policy, ...] = ()
    outputs: tuple[OutputDecl, ...] = ()

    @cached_property
    def plan(self) -> Plan:
        """This kernel lowered for the simulator, once per instance; the
        kernel must be valid."""
        return lower(self)


@dataclass(frozen=True)
class Plan:
    """A valid kernel lowered to slots. Every input, constant, memory and
    node has a slot, numbered in that declaration order; a run keeps its
    values (a memory's: the list of its cells) and tags in lists indexed
    by slot.

    Each node becomes one step (out, value_fn, x, y, z, union_fn,
    precise_fn, watch): its slot, its bitvalue.value_fn, the slots of its
    operands as bitvalue.pad_operands lays them out, its taint.tag_fn under
    either rule, and the checkpoints on it in declaration order, each as
    (checkpoint id, argument id, argument slot, Policy) with its policy
    resolved by name.
    """

    steps: tuple[tuple, ...]
    constants: tuple[int, ...]  # bits of each constant
    early: tuple[tuple, ...]  # checkpoints on inputs and constants, as in watch
    outputs: tuple[tuple[str, int], ...]  # (output id, source slot)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "name",
    "tag_width",
    "inputs",
    "constants",
    "memories",
    "nodes",
    "policies",
    "checkpoints",
    "outputs",
}
_ITEM_KEYS = {
    "inputs": {"id", "width", "signed", "default_tag"},
    "constants": {"id", "width", "signed", "value"},
    "memories": {"id", "size", "width", "signed", "init", "init_tags"},
    "nodes": {"id", "op", "args", "width", "signed"},
    "policies": {"name", "kind", "mask"},
    "checkpoints": {"id", "arg", "policy"},
    "outputs": {"id", "source"},
}
_OP_BY_NAME = {kind.value: kind for kind in OpKind}


def _err(diags: list[Diagnostic], loc: str, msg: str) -> None:
    diags.append(Diagnostic("error", loc, msg))


def _get_str(item: dict, key: str, loc: str, diags: list[Diagnostic]) -> str | None:
    v = item.get(key)
    if not isinstance(v, str) or not v:
        _err(diags, loc, f"{key} must be a non-empty string")
        return None
    return v


def _get_int(item: dict, key: str, loc: str, diags: list[Diagnostic], default=None):
    if key not in item:
        if default is not None:
            return default
        _err(diags, loc, f"missing required key {key}")
        return None
    v = item[key]
    if type(v) is not int:
        _err(diags, loc, f"{key} must be an integer")
        return None
    return v


def _get_type(
    item: dict, loc: str, diags: list[Diagnostic], shared: dict[tuple[int, bool], BitType]
) -> BitType | None:
    """The item's type; equal types within one parse are one BitType in shared."""
    width = _get_int(item, "width", loc, diags)
    signed = item.get("signed", False)
    if not isinstance(signed, bool):
        _err(diags, loc, "signed must be a boolean")
        return None
    if width is None:
        return None
    ty = shared.get((width, signed))
    if ty is None:
        try:
            ty = shared[width, signed] = BitType(width, signed)
        except InvalidType as e:
            _err(diags, loc, str(e))
    return ty


def _check_section(doc: dict, key: str, diags: list[Diagnostic]) -> list[dict]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        _err(diags, key, f"{key} must be a list")
        return []
    allowed = _ITEM_KEYS[key]
    items = [item for item in raw if type(item) is dict and allowed.issuperset(item)]
    if len(items) < len(raw):
        for i, item in enumerate(raw):
            if type(item) is not dict:
                _err(diags, f"{key}[{i}]", "entry must be an object")
            elif not allowed.issuperset(item):
                unknown = ", ".join(sorted(set(item) - allowed))
                _err(diags, f"{key}[{i}]", f"unknown keys: {unknown}")
    return items


def parse_kernel(text: str) -> tuple[Kernel | None, list[Diagnostic]]:
    """Parse and validate a kernel document.

    Returns (kernel, diagnostics); the kernel is None whenever any
    error-severity diagnostic was produced.
    """
    diags: list[Diagnostic] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        _err(diags, f"line {e.lineno}", f"invalid JSON: {e.msg}")
        return None, diags
    except RecursionError:
        _err(diags, "kernel", "JSON nested too deeply")
        return None, diags
    if not isinstance(doc, dict):
        _err(diags, "kernel", "top-level document must be an object")
        return None, diags
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _err(diags, "kernel", f"unknown keys: {', '.join(sorted(unknown))}")

    name = _get_str(doc, "name", "kernel", diags) or ""
    tag_width = doc.get("tag_width")
    if type(tag_width) is not int or not 1 <= tag_width <= MAX_TAG_WIDTH:
        _err(diags, "kernel", f"tag_width must be an integer in 1..{MAX_TAG_WIDTH}")
        return None, diags

    # Inputs, constants and nodes, the sections that grow with a kernel,
    # read an item's fields directly and take its type from types by the
    # raw (width, signed) pair, checked to be an int and a bool first:
    # (True, False) == (1, False) as a key. An item that fails that test,
    # or has a type not met before, goes through the _get_* helpers, which
    # report what is wrong with it.
    types: dict[tuple[int, bool], BitType] = {}
    inputs = []
    for item in _check_section(doc, "inputs", diags):
        iid, width, signed = item.get("id"), item.get("width"), item.get("signed", False)
        default_tag = item.get("default_tag", 0)
        ty = types.get((width, signed)) if type(width) is int and type(signed) is bool else None
        if ty is None or type(iid) is not str or not iid or type(default_tag) is not int:
            iid = _get_str(item, "id", "inputs", diags)
            ty = _get_type(item, f"input {iid}", diags, types)
            default_tag = _get_int(item, "default_tag", f"input {iid}", diags, default=0)
            if iid is None or ty is None or default_tag is None:
                continue
        inputs.append(InputDecl(iid, ty, default_tag))

    constants = []
    for item in _check_section(doc, "constants", diags):
        cid, width, signed = item.get("id"), item.get("width"), item.get("signed", False)
        value = item.get("value")
        ty = types.get((width, signed)) if type(width) is int and type(signed) is bool else None
        if ty is None or type(cid) is not str or not cid or type(value) is not int:
            cid = _get_str(item, "id", "constants", diags)
            ty = _get_type(item, f"constant {cid}", diags, types)
            value = _get_int(item, "value", f"constant {cid}", diags)
            if cid is None or ty is None or value is None:
                continue
        constants.append(ConstDecl(cid, BitValue(ty, value & ty.mask)))

    memories = []
    for item in _check_section(doc, "memories", diags):
        mid = _get_str(item, "id", "memories", diags)
        loc = f"memory {mid}"
        size = _get_int(item, "size", loc, diags)
        ty = _get_type(item, loc, diags, types)
        if mid is None or size is None or ty is None:
            continue
        init_raw = item.get("init", [])
        tags_raw = item.get("init_tags", [])
        if type(init_raw) is not list or not all(type(x) is int for x in init_raw):
            _err(diags, loc, "init must be a list of integers")
            continue
        if type(tags_raw) is not list or not all(type(x) is int for x in tags_raw):
            _err(diags, loc, "init_tags must be a list of integers")
            continue
        init = tuple([x & ty.mask for x in init_raw])
        memories.append(MemoryDecl(mid, size, ty, init, tuple(tags_raw)))

    nodes = []
    for item in _check_section(doc, "nodes", diags):
        nid, op_raw, args = item.get("id"), item.get("op"), item.get("args")
        op = _OP_BY_NAME.get(op_raw) if type(op_raw) is str else None
        args_ok = type(args) is list and all(type(a) is str for a in args)
        if op is OpKind.STORE:
            ty, typed = None, "width" not in item and "signed" not in item
        else:
            width, signed = item.get("width"), item.get("signed", False)
            ty = types.get((width, signed)) if type(width) is int and type(signed) is bool else None
            typed = ty is not None
        if op is None or not args_ok or not typed or type(nid) is not str or not nid:
            nid = _get_str(item, "id", "nodes", diags)
            loc = f"node {nid}"
            if op is None:
                _err(diags, loc, f"unknown op {op_raw!r}")
                continue
            if not args_ok:
                _err(diags, loc, "args must be a list of ids")
                continue
            if not typed:
                if op is OpKind.STORE:
                    _err(diags, loc, "store nodes must not declare a result type")
                    continue
                ty = _get_type(item, loc, diags, types)
                if ty is None:
                    continue
            if nid is None:
                continue
        nodes.append(Node(nid, op, tuple(args), ty))

    policies = []
    for item in _check_section(doc, "policies", diags):
        pname = _get_str(item, "name", "policies", diags)
        loc = f"policy {pname}"
        kind_raw = item.get("kind")
        try:
            kind = PolicyKind(kind_raw)
        except ValueError:
            _err(diags, loc, f"unknown policy kind {kind_raw!r}")
            continue
        mask = None
        if "mask" in item:
            bits = _get_int(item, "mask", loc, diags)
            if bits is None:
                continue
            if not 0 <= bits < (1 << tag_width):
                _err(diags, loc, f"mask {bits} out of range for tag width {tag_width}")
                continue
            mask = Tag(tag_width, bits)
        if pname is None:
            continue
        policies.append(Policy(pname, kind, mask))

    checkpoints = []
    for item in _check_section(doc, "checkpoints", diags):
        cid = _get_str(item, "id", "checkpoints", diags)
        arg = _get_str(item, "arg", f"checkpoint {cid}", diags)
        policy = _get_str(item, "policy", f"checkpoint {cid}", diags)
        if cid is None or arg is None or policy is None:
            continue
        checkpoints.append(CheckpointDecl(cid, arg, policy))

    outputs = []
    for item in _check_section(doc, "outputs", diags):
        oid = _get_str(item, "id", "outputs", diags)
        source = _get_str(item, "source", f"output {oid}", diags)
        if oid is None or source is None:
            continue
        outputs.append(OutputDecl(oid, source))

    if has_errors(diags):
        return None, diags
    kernel = Kernel(
        name=name,
        tag_width=tag_width,
        inputs=tuple(inputs),
        constants=tuple(constants),
        memories=tuple(memories),
        nodes=tuple(nodes),
        checkpoints=tuple(checkpoints),
        policies=tuple(policies),
        outputs=tuple(outputs),
    )
    diags.extend(validate(kernel))
    if has_errors(diags):
        return None, diags
    return kernel, diags


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(k: Kernel) -> list[Diagnostic]:
    """Check every kernel invariant; zero errors is a precondition of the
    passes and of simulation."""
    diags: list[Diagnostic] = []
    if not 1 <= k.tag_width <= MAX_TAG_WIDTH:
        _err(diags, "kernel", f"tag_width must be in 1..{MAX_TAG_WIDTH}")
        return diags
    tag_limit = 1 << k.tag_width

    seen: set[str] = set()  # every id declared so far
    values: dict[str, BitType] = {}
    mems: dict[str, MemoryDecl] = {}

    for inp in k.inputs:
        if inp.id in seen:
            _err(diags, inp.id, "duplicate id (input)")
        seen.add(inp.id)
        if not 0 <= inp.default_tag < tag_limit:
            _err(diags, inp.id, f"default_tag {inp.default_tag} out of range")
        values[inp.id] = inp.ty
    for c in k.constants:
        if c.id in seen:
            _err(diags, c.id, "duplicate id (constant)")
        seen.add(c.id)
        values[c.id] = c.value.ty
    for m in k.memories:
        if m.id in seen:
            _err(diags, m.id, "duplicate id (memory)")
        seen.add(m.id)
        if m.size < 1:
            _err(diags, m.id, "memory size must be at least 1")
        elif m.size > MAX_MEMORY_CELLS:
            _err(diags, m.id, f"memory size must be at most {MAX_MEMORY_CELLS}")
        if len(m.init) > m.size:
            _err(diags, m.id, f"init has {len(m.init)} values for {m.size} cells")
        if len(m.init_tags) > m.size:
            _err(diags, m.id, f"init_tags has {len(m.init_tags)} values for {m.size} cells")
        if any(not 0 <= t < tag_limit for t in m.init_tags):
            _err(diags, m.id, "init_tags contains a tag out of range")
        mems[m.id] = m

    policy_names: set[str] = set()
    for p in k.policies:
        if p.name in policy_names:
            _err(diags, p.name, "duplicate policy name")
        policy_names.add(p.name)
        if p.kind is PolicyKind.DENY_IF_MASK:
            if p.mask is None:
                _err(diags, p.name, "deny_if_mask requires a mask")
            elif p.mask.width != k.tag_width:
                _err(diags, p.name, "mask width does not match kernel tag width")
        elif p.mask is not None:
            _err(diags, p.name, f"{p.kind.value} does not take a mask")

    for node in k.nodes:
        nid, op, args, ty = node.id, node.op, node.args, node.ty
        if nid in seen:
            _err(diags, nid, "duplicate id (node)")
        seen.add(nid)
        arity = OP_ARITY[op]
        if len(args) != arity:
            _err(diags, nid, f"{op.value} takes {arity} args, got {len(args)}")
            continue
        if op is OpKind.LOAD or op is OpKind.STORE:
            mem = mems.get(args[0])
            if mem is None:
                _err(diags, nid, f"{op.value} target {args[0]} is not a memory")
            args = args[1:]
        for arg in args:
            if arg not in values:
                what = "is a memory, not a value" if arg in mems else "is not defined yet"
                _err(diags, nid, f"argument {arg} {what}")
        if op is OpKind.STORE:
            if ty is not None:
                _err(diags, nid, "store has no result type")
            continue
        if ty is None:
            what = "load" if op is OpKind.LOAD else "node"
            _err(diags, nid, f"{what} must declare a result type")
            continue
        if op is OpKind.LOAD:
            if mem is not None and ty != mem.cell:
                _err(diags, nid, f"load result type {ty} does not match cell type {mem.cell}")
        elif op in COMPARE_OPS and (ty.width != 1 or ty.signed):
            _err(diags, nid, "comparison result type must be u1")
        values[nid] = ty

    for cp in k.checkpoints:
        if cp.id in seen:
            _err(diags, cp.id, "duplicate id (checkpoint)")
        seen.add(cp.id)
        if cp.arg not in values:
            _err(diags, cp.id, f"checkpoint argument {cp.arg} is not a value id")
        if cp.policy not in policy_names:
            _err(diags, cp.id, f"checkpoint names unknown policy {cp.policy}")

    for out in k.outputs:
        if out.id in seen:
            _err(diags, out.id, "duplicate id (output)")
        seen.add(out.id)
        if out.source not in values:
            _err(diags, out.id, f"output source {out.source} is not a value id")

    return diags


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower(k: Kernel) -> Plan:
    """The Plan of a valid kernel. Each distinct node signature (op, result
    type, operand types) is specialised once per call. Tag functions are
    looked up on the taint module at lowering time, so a test can
    substitute the rule."""
    slots: dict[str, int] = {}
    types: list = []  # per slot; a memory's is its MemoryDecl
    # Per slot, what a signature holds for it as an operand: the index of
    # its type among the kernel's distinct types, or a memory's id, since
    # hashing a MemoryDecl walks its init cells.
    keys: list = []
    type_index: dict = {}
    for decl_id, ty in itertools.chain(
        ((i.id, i.ty) for i in k.inputs),
        ((c.id, c.value.ty) for c in k.constants),
        ((m.id, m) for m in k.memories),
        ((n.id, n.ty) for n in k.nodes),
    ):
        slots[decl_id] = len(types)
        types.append(ty)
        if isinstance(ty, MemoryDecl):
            keys.append(ty.id)
        else:
            keys.append(type_index.setdefault(ty, len(type_index)))
    policies = {p.name: p for p in k.policies}
    watched = [(cp.id, cp.arg, slots[cp.arg], policies[cp.policy]) for cp in k.checkpoints]
    watches: dict[int, list] = {}
    for w in watched:
        watches.setdefault(w[2], []).append(w)
    n_early = len(k.inputs) + len(k.constants)
    tag_fn = taint.tag_fn
    fns: dict[tuple, tuple] = {}  # signature -> (value_fn, union fn, precise fn)
    steps = []
    for n in k.nodes:
        args = [slots[a] for a in n.args]
        out = slots[n.id]
        signature = (n.op, keys[out], *[keys[slot] for slot in args])
        f = fns.get(signature)
        if f is None:
            arg_types = [types[slot] for slot in args]
            f = fns[signature] = (
                value_fn(n.op, arg_types, n.ty),
                tag_fn(PropagationRule.UNION, n.op, arg_types, n.ty),
                tag_fn(PropagationRule.PRECISE, n.op, arg_types, n.ty),
            )
        steps.append(
            (out, f[0], *pad_operands(args), f[1], f[2], tuple(watches.pop(out, ())))
        )
    return Plan(
        steps=tuple(steps),
        constants=tuple(c.value.bits for c in k.constants),
        early=tuple(w for w in watched if w[2] < n_early),
        outputs=tuple((o.id, slots[o.source]) for o in k.outputs),
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def const_fold(k: Kernel, diags: list[Diagnostic] | None = None) -> Kernel:
    """Replace nodes whose arguments are all constants with new constants.

    The folded constant keeps the node's id, so checkpoint arguments and
    output sources keep resolving. Division by zero is reported as a
    warning and the node left unfolded.
    """
    consts: dict[str, BitValue] = {c.id: c.value for c in k.constants}
    new_consts = list(k.constants)
    kept: list[Node] = []
    for node in k.nodes:
        if node.op in (OpKind.LOAD, OpKind.STORE) or not all(a in consts for a in node.args):
            kept.append(node)
            continue
        operands = [consts[a] for a in node.args]
        try:
            bits = apply_op(node.op, [v.bits for v in operands], [v.ty for v in operands], node.ty)
        except DivisionByZero:
            if diags is not None:
                diags.append(
                    Diagnostic("warning", node.id, "division by zero; node not folded")
                )
            kept.append(node)
            continue
        value = BitValue(node.ty, bits)
        new_consts.append(ConstDecl(node.id, value))
        consts[node.id] = value
    return replace(k, constants=tuple(new_consts), nodes=tuple(kept))


def dead_code_elim(k: Kernel) -> Kernel:
    """Drop nodes that no output, checkpoint, or store transitively needs.

    Checkpoints, store nodes, and memories are never removed; removing a
    checkpoint would silently weaken the security instrumentation.
    """
    live: set[str] = {o.source for o in k.outputs} | {cp.arg for cp in k.checkpoints}
    kept_rev: list[Node] = []
    for node in reversed(k.nodes):
        if node.op is OpKind.STORE or node.id in live:
            kept_rev.append(node)
            live.update(node.args)
    return replace(k, nodes=tuple(reversed(kept_rev)))


# ---------------------------------------------------------------------------
# Instrumentation and DOT export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstrumentedGraph:
    """A kernel instrumented for tracking: a tag wire per value wire, a
    propagation node per op node under rule ("union", "precise" or
    "boundary"), and one monitor fed by the checkpoints' tag wires. The
    graph exists to be drawn; emit_dot draws it from the kernel."""

    kernel: Kernel
    rule: str


def instrument(k: Kernel, cfg: DiftConfig) -> InstrumentedGraph:
    """k with cfg's tracking logic added; the value graph is untouched."""
    return InstrumentedGraph(k, cfg.rule.value if cfg.rule is not None else "boundary")


_TAG_NODE = 'shape=box, style="rounded,dashed", color=gray40, fontcolor=gray40, label="'
_TAG_EDGE = " [style=dashed, color=gray40];"


def _esc(s: str) -> str:
    """s escaped for a DOT quoted string. Escaping is per character, so
    _esc(a + b) == _esc(a) + _esc(b)."""
    if '"' in s or "\\" in s:
        return s.replace("\\", "\\\\").replace('"', '\\"')
    return s


def emit_dot(g: Kernel | InstrumentedGraph) -> str:
    """Deterministic DOT rendering: value edges solid, tag edges dashed,
    monitor double-outlined. A plain Kernel is drawn as its value graph
    with a diamond per checkpoint. Identical input gives byte-identical
    output.

    One pass over the declarations escapes each declaration id once and
    fills four line lists: value nodes, tag nodes (or checkpoint nodes),
    value edges, tag edges (or checkpoint edges). An argument no
    declaration names (the kernel is invalid) is drawn all the same."""
    k, rule = (g, None) if isinstance(g, Kernel) else (g.kernel, g.rule)
    tags = rule is not None
    vnodes: list[str] = []
    tnodes: list[str] = []
    vedges: list[str] = []
    tedges: list[str] = []
    esc: dict[str, str] = {}  # declaration id -> escaped id
    for inp in k.inputs:
        i = esc[inp.id] = _esc(inp.id)
        vnodes.append(f'  "v:{i}" [shape=ellipse, label="{i} : {inp.ty}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = {inp.default_tag}"];')
    for c in k.constants:
        i = esc[c.id] = _esc(c.id)
        vnodes.append(f'  "v:{i}" [shape=box, label="{i} = {to_int(c.value)} : {c.value.ty}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = 0"];')
    for m in k.memories:
        i = esc[m.id] = _esc(m.id)
        vnodes.append(f'  "v:{i}" [shape=box3d, label="{i}[{m.size}] : {m.cell}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tags"];')
    tag_suffix = f'.tag = {rule}"];'
    for n in k.nodes:
        i = esc[n.id] = _esc(n.id)
        store = n.op is OpKind.STORE
        suffix = ': store"];' if store else f' = {n.op.value} : {n.ty}"];'
        vnodes.append(f'  "v:{i}" [shape=box, style=rounded, label="{i}{suffix}')
        srcs = [esc.get(a) or _esc(a) for a in n.args]
        vedges.extend([f'  "v:{a}" -> "v:{i}";' for a in srcs])
        if store:
            vedges.append(f'  "v:{i}" -> "v:{srcs[0]}";')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}{tag_suffix}')
            tedges.extend([f'  "t:{a}" -> "t:{i}"{_TAG_EDGE}' for a in srcs])
            if store:
                tedges.append(f'  "t:{i}" -> "t:{srcs[0]}"{_TAG_EDGE}')
    for o in k.outputs:
        i = esc[o.id] = _esc(o.id)
        a = esc.get(o.source) or _esc(o.source)
        vnodes.append(f'  "v:{i}" [shape=ellipse, style=bold, label="{i}"];')
        vedges.append(f'  "v:{a}" -> "v:{i}";')
        if tags:
            tedges.append(f'  "t:{a}" -> "v:{i}"{_TAG_EDGE}')
    if tags:
        tnodes.append('  "monitor:0" [shape=box, peripheries=2, label="monitor"];')
    for cp in k.checkpoints:
        a = esc.get(cp.arg) or _esc(cp.arg)
        c = _esc(cp.id)
        label = f"{c}: {_esc(cp.policy)}"
        if tags:
            tedges.append(
                f'  "t:{a}" -> "monitor:0" [style=dashed, color=gray40, label="{label}", fontsize=9];'
            )
        else:
            tnodes.append(f'  "c:{c}" [shape=diamond, label="{label}"];')
            tedges.append(f'  "v:{a}" -> "c:{c}"{_TAG_EDGE}')
    return "\n".join(
        [
            f'digraph "{_esc(k.name)}" {{',
            "  rankdir=LR;",
            '  node [fontname="Helvetica", fontsize=10];',
            *vnodes,
            *tnodes,
            *vedges,
            *tedges,
            "}\n",
        ]
    )
