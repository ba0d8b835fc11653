"""Straight-line dataflow kernels: file format, validation, compiler passes
and tracking instrumentation. diftsim.dot draws them as DOT.

A kernel is an ordered list of SSA nodes over declared inputs, constants,
and memories, plus security policies, checkpoints, and named outputs. The
file format is a single JSON document; unknown keys are rejected.
"""

from __future__ import annotations

import gc
import json
from collections import namedtuple
from functools import cached_property, reduce, wraps
from operator import attrgetter, itemgetter, or_

from . import taint
from .bitvalue import (
    COMPARE_OPS,
    LOAD,
    OP_ARITY,
    STORE,
    BitType,
    BitValue,
    OpKind,
    apply_op,
    value_fn,
)
from .errors import DivisionByZero, InvalidType
from .policy_monitor import DENY_IF_MASK, Policy, PolicyKind
from .taint import MAX_TAG_WIDTH, PRECISE, UNION, DiftConfig

# Larger memories are rejected: every run and every sample allocates all cells.
MAX_MEMORY_CELLS = 1 << 20


class Diagnostic(namedtuple("Diagnostic", "severity location message")):
    """One parse or validation finding. severity is "error" or "warning";
    location is "kernel", "node n", "nodes[2]", an id, or "line N" for
    syntax errors; message is a str."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diags)


class InputDecl(namedtuple("InputDecl", "id ty default_tag", defaults=(0,))):
    """An input: its id (str), BitType and default tag bits (int)."""

    __slots__ = ()


class ConstDecl(namedtuple("ConstDecl", "id value")):
    """A constant: its id (str) and BitValue."""

    __slots__ = ()


class MemoryDecl(namedtuple("MemoryDecl", "id size cell init init_tags", defaults=((), ()))):
    """A memory: its id (str), size in cells (int), cell BitType, and, as
    tuples of ints, the canonical bits (init) and tag bits (init_tags) of
    its first cells; a run zeroes the rest."""

    __slots__ = ()


class Node(namedtuple("Node", "id op args ty", defaults=(None,))):
    """An SSA node: its id (str), OpKind, argument ids (a tuple of str)
    and result BitType, None for store."""

    __slots__ = ()


class CheckpointDecl(namedtuple("CheckpointDecl", "id arg policy")):
    """A checkpoint: its id, the id of the value it watches, and its
    policy's name, all str."""

    __slots__ = ()


class OutputDecl(namedtuple("OutputDecl", "id source")):
    """An output: its id and the id of its source value, both str."""

    __slots__ = ()


class Kernel(namedtuple("Kernel", "name tag_width inputs constants memories nodes"
                        " checkpoints policies outputs", defaults=((),) * 7)):
    """A kernel: its name, tag width, and tuples of InputDecl, ConstDecl,
    MemoryDecl, Node, CheckpointDecl, Policy and OutputDecl."""

    # No __slots__: plan is cached in the instance's __dict__.

    @cached_property
    def plan(self) -> Plan:
        """This kernel lowered for the simulator, once per instance; the
        kernel must be valid."""
        return lower(self)


class Checkpoints(namedtuple("Checkpoints", "steps ids args slots denied_bits policy_names")):
    """A plan's checkpoints as columns, one entry per checkpoint, in firing
    order: by the step after which it observes (0 for an input or a
    constant, else its node's, counted from 1), and in declaration order
    within a step. A policy is held by its denied bits and its name.

    Each column is a tuple: steps, the step after which each observes
    (ascending ints); ids, the checkpoint ids; args, the ids of the values
    they watch; slots, the slots of those values (ints); denied_bits,
    their policies' Policy.denied_bits (ints); policy_names."""

    __slots__ = ()


class Plan(namedtuple(
    "Plan", "steps constants checkpoints outputs memory_tags input_ids input_masks default_tags"
)):
    """A valid kernel lowered to slots. Every input, constant, memory and
    node has a slot, numbered in that declaration order; a run keeps its
    values (a memory's: the list of its cells) and tags in lists indexed
    by slot.

    Each node becomes one step (out, value_fn, x, y, z, union_fn,
    precise_fn): its slot, its bitvalue.value_fn, the slots of its operands
    as bitvalue.pad_operands lays them out, and its taint.tag_fn under
    either rule. The checkpoints are Checkpoints columns, with each policy
    resolved by name, so a recording run can judge them all with a few
    calls over whole columns. Each memory's initial tags come with their
    join, so a coarse run's boundary costs one OR per memory, not per cell.

    steps is a tuple of those step tuples; constants, the bits of each
    constant; outputs, an (output id, source slot) pair per output;
    memory_tags, an (init_tags, their OR) pair per memory. The inputs are
    three columns, one entry per input in declaration order, so a run
    builds its input slots with a few calls over whole columns: input_ids,
    their ids; input_masks, their types' masks; default_tags, their
    declared default tags.
    """

    __slots__ = ()


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
_STR, _INT = frozenset({str}), frozenset({int})
_new = tuple.__new__  # builds a record from fields already checked, skipping its constructor
_first, _second, _third, _fourth = map(itemgetter, range(4))
_mask = attrgetter("mask")


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


def load_json(text: str, where: str, diags: list[Diagnostic]):
    """The JSON document in text. If json.loads rejects it, one error goes
    to diags and the result is None: a syntax error located at its line,
    and located at where, nesting too deep or an integer literal longer
    than int's digit limit (4300 digits by default)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        _err(diags, f"line {e.lineno}", f"invalid JSON: {e.msg}")
    except RecursionError:
        _err(diags, where, "JSON nested too deeply")
    except ValueError:  # the only other error of json.loads on a str: the digit limit
        _err(diags, where, "invalid JSON: integer literal has too many digits")
    return None


def _collector_paused(fn):
    """fn run with the cyclic garbage collector off, then as it was: parse_kernel
    builds tens of thousands of acyclic objects, which collections would walk."""
    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_collector_paused
def parse_kernel(text: str) -> tuple[Kernel | None, list[Diagnostic]]:
    """Parse and validate a kernel document.

    Returns (kernel, diagnostics); the kernel is None whenever any
    error-severity diagnostic was produced.
    """
    diags: list[Diagnostic] = []
    doc = load_json(text, "kernel", diags)
    if diags:
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

    index: dict[int, int] = {}  # id() of a raw section entry -> its index, filled on error

    def named(item: dict, key: str, section: str, what: str) -> tuple[str | None, str]:
        """The item's id (its key field) and where its diagnostics point:
        "what id", or "section[i]", its index in the raw section, when the id
        is not a non-empty string. The index is looked up only then."""
        v = item.get(key)
        if isinstance(v, str) and v:
            return v, f"{what} {v}"
        if id(item) not in index:
            index.update({id(x): i for i, x in enumerate(doc[section])})
        loc = f"{section}[{index[id(item)]}]"
        _err(diags, loc, f"{key} must be a non-empty string")
        return None, loc

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
            iid, loc = named(item, "id", "inputs", "input")
            ty = _get_type(item, loc, diags, types)
            default_tag = _get_int(item, "default_tag", loc, diags, default=0)
            if iid is None or ty is None or default_tag is None:
                continue
        inputs.append(_new(InputDecl, (iid, ty, default_tag)))

    constants = []
    for item in _check_section(doc, "constants", diags):
        cid, width, signed = item.get("id"), item.get("width"), item.get("signed", False)
        value = item.get("value")
        ty = types.get((width, signed)) if type(width) is int and type(signed) is bool else None
        if ty is None or type(cid) is not str or not cid or type(value) is not int:
            cid, loc = named(item, "id", "constants", "constant")
            ty = _get_type(item, loc, diags, types)
            value = _get_int(item, "value", loc, diags)
            if cid is None or ty is None or value is None:
                continue
        constants.append(_new(ConstDecl, (cid, _new(BitValue, (ty, value & ty.mask)))))

    memories = []
    for item in _check_section(doc, "memories", diags):
        mid, loc = named(item, "id", "memories", "memory")
        size = _get_int(item, "size", loc, diags)
        ty = _get_type(item, loc, diags, types)
        if mid is None or size is None or ty is None:
            continue
        init_raw, tags_raw = item.get("init", []), item.get("init_tags", [])
        if type(init_raw) is not list or not _INT.issuperset(map(type, init_raw)):
            _err(diags, loc, "init must be a list of integers")
            continue
        if type(tags_raw) is not list or not _INT.issuperset(map(type, tags_raw)):
            _err(diags, loc, "init_tags must be a list of integers")
            continue
        init = tuple([x & ty.mask for x in init_raw])
        memories.append(MemoryDecl(mid, size, ty, init, tuple(tags_raw)))

    nodes = []
    for item in _check_section(doc, "nodes", diags):
        nid, op_raw, args = item.get("id"), item.get("op"), item.get("args")
        op = _OP_BY_NAME.get(op_raw) if type(op_raw) is str else None
        args_ok = type(args) is list and _STR.issuperset(map(type, args))
        if op is STORE:
            ty, typed = None, "width" not in item and "signed" not in item
        else:
            width, signed = item.get("width"), item.get("signed", False)
            ty = types.get((width, signed)) if type(width) is int and type(signed) is bool else None
            typed = ty is not None
        if op is None or not args_ok or not typed or type(nid) is not str or not nid:
            nid, loc = named(item, "id", "nodes", "node")
            if op is None:
                _err(diags, loc, f"unknown op {op_raw!r}")
                continue
            if not args_ok:
                _err(diags, loc, "args must be a list of ids")
                continue
            if not typed:
                if op is STORE:
                    _err(diags, loc, "store nodes must not declare a result type")
                    continue
                ty = _get_type(item, loc, diags, types)
                if ty is None:
                    continue
            if nid is None:
                continue
        nodes.append(_new(Node, (nid, op, tuple(args), ty)))

    policies = []
    for item in _check_section(doc, "policies", diags):
        pname, loc = named(item, "name", "policies", "policy")
        kind_raw = item.get("kind")
        try:
            kind = PolicyKind(kind_raw)
        except ValueError:
            _err(diags, loc, f"unknown policy kind {kind_raw!r}")
            continue
        mask = None
        if "mask" in item:
            mask = _get_int(item, "mask", loc, diags)
            if mask is None:
                continue
            if not 0 <= mask < (1 << tag_width):
                _err(diags, loc, f"mask {mask} out of range for tag width {tag_width}")
                continue
        if pname is None:
            continue
        policies.append(Policy(pname, kind, mask))

    checkpoints = []
    for item in _check_section(doc, "checkpoints", diags):
        cid, loc = named(item, "id", "checkpoints", "checkpoint")
        arg = _get_str(item, "arg", loc, diags)
        policy = _get_str(item, "policy", loc, diags)
        if cid is None or arg is None or policy is None:
            continue
        checkpoints.append(CheckpointDecl(cid, arg, policy))

    outputs = []
    for item in _check_section(doc, "outputs", diags):
        oid, loc = named(item, "id", "outputs", "output")
        source = _get_str(item, "source", loc, diags)
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

    for iid, ty, default_tag in k.inputs:
        if iid in seen:
            _err(diags, iid, "duplicate id (input)")
        seen.add(iid)
        if not 0 <= default_tag < tag_limit:
            _err(diags, iid, f"default_tag {default_tag} out of range")
        values[iid] = ty
    for cid, (ty, _) in k.constants:
        if cid in seen:
            _err(diags, cid, "duplicate id (constant)")
        seen.add(cid)
        values[cid] = ty
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
        if p.kind is DENY_IF_MASK:
            if p.mask is None:
                _err(diags, p.name, "deny_if_mask requires a mask")
            elif type(p.mask) is not int or not 0 <= p.mask < tag_limit:
                _err(diags, p.name, f"mask {p.mask!r} out of range for tag width {k.tag_width}")
        elif p.mask is not None:
            _err(diags, p.name, f"{p.kind.value} does not take a mask")

    for nid, op, args, ty in k.nodes:
        if nid in seen:
            _err(diags, nid, "duplicate id (node)")
        seen.add(nid)
        arity = OP_ARITY[op]
        if len(args) != arity:
            _err(diags, nid, f"{op.value} takes {arity} args, got {len(args)}")
            continue
        if op is LOAD or op is STORE:
            mem = mems.get(args[0])
            if mem is None:
                _err(diags, nid, f"{op.value} target {args[0]} is not a memory")
            args = args[1:]
        for arg in args:
            if arg not in values:
                what = "is a memory, not a value" if arg in mems else "is not defined yet"
                _err(diags, nid, f"argument {arg} {what}")
        if op is STORE:
            if ty is not None:
                _err(diags, nid, "store has no result type")
            continue
        if ty is None:
            what = "load" if op is LOAD else "node"
            _err(diags, nid, f"{what} must declare a result type")
            continue
        if op is LOAD:
            if mem is not None and ty != mem.cell:
                _err(diags, nid, f"load result type {ty} does not match cell type {mem.cell}")
        elif op in COMPARE_OPS and (ty.width != 1 or ty.signed):
            _err(diags, nid, "comparison result type must be u1")
        values[nid] = ty

    for cid, arg, policy in k.checkpoints:
        if cid in seen:
            _err(diags, cid, "duplicate id (checkpoint)")
        seen.add(cid)
        if arg not in values:
            _err(diags, cid, f"checkpoint argument {arg} is not a value id")
        if policy not in policy_names:
            _err(diags, cid, f"checkpoint names unknown policy {policy}")

    for oid, source in k.outputs:
        if oid in seen:
            _err(diags, oid, "duplicate id (output)")
        seen.add(oid)
        if source not in values:
            _err(diags, oid, f"output source {source} is not a value id")

    return diags


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def lower(k: Kernel) -> Plan:
    """The Plan of a valid kernel. Each distinct node signature (op, result
    type, padded operand types, a memory operand by which memory it is) is
    specialised once per call, and its nodes share the functions. Tag
    functions are looked up on the taint module at lowering time, so a test
    can substitute the rule."""
    decls = (*k.inputs, *k.constants, *k.memories, *k.nodes)
    slots = {decl[0]: slot for slot, decl in enumerate(decls)}
    input_types = [*map(_second, k.inputs)]
    values = [*map(_second, k.constants)]
    # The type per slot; a memory's is its MemoryDecl.
    types = [*input_types, *map(_first, values), *k.memories, *map(_fourth, k.nodes)]
    # A signature holds an operand by its slot's key: the index of the slot's
    # type (a memory's: its MemoryDecl) among the kernel's distinct types, so
    # a type, or a memory with its cells, is hashed once per slot.
    type_index: dict = {}
    keys = [type_index.setdefault(ty, len(type_index)) for ty in types]
    denied_bits = {p.name: p.denied_bits for p in k.policies}
    before = len(k.inputs) + len(k.constants) + len(k.memories) - 1  # the slot of step 0
    rows = sorted(
        [
            (max(slots[a] - before, 0), cp, a, slots[a], denied_bits[p], p)
            for cp, a, p in k.checkpoints
        ],
        key=_first,  # stable: declaration order within a step
    )
    tag_fn = taint.tag_fn
    fns: dict[tuple, tuple] = {}  # signature -> (value_fn, union fn, precise fn)
    steps = []
    for nid, op, args, ty in k.nodes:
        # out is looked up, not counted, so the plan shares the int objects
        # of slots. x, y, z: the operand slots, padded as pad_operands pads them.
        out, x = slots[nid], slots[args[0]]
        y = slots[args[1]] if len(args) > 1 else x
        z = slots[args[2]] if len(args) > 2 else y
        signature = (op, keys[out], keys[x], keys[y], keys[z])
        f = fns.get(signature)
        if f is None:
            arg_types = [types[slots[a]] for a in args]
            f = fns[signature] = (
                value_fn(op, arg_types, ty),
                tag_fn(UNION, op, arg_types, ty),
                tag_fn(PRECISE, op, arg_types, ty),
            )
        steps.append((out, f[0], x, y, z, f[1], f[2]))
    return Plan(
        steps=tuple(steps),
        constants=tuple(map(_second, values)),
        checkpoints=Checkpoints(*(tuple(zip(*rows)) or ((),) * len(Checkpoints._fields))),
        outputs=tuple([(oid, slots[source]) for oid, source in k.outputs]),
        memory_tags=tuple([(m.init_tags, reduce(or_, m.init_tags, 0)) for m in k.memories]),
        input_ids=tuple(map(_first, k.inputs)),
        input_masks=tuple(map(_mask, input_types)),
        default_tags=tuple(map(_third, k.inputs)),
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def const_fold(k: Kernel, diags: list[Diagnostic] | None = None) -> Kernel:
    """Replace nodes whose arguments are all constants with new constants.

    The folded constant keeps the node's id, so output sources keep
    resolving. A node a checkpoint watches is never folded: that would
    move its checkpoint to step 0 and reorder coarse-mode exceptions.
    A div or mod by zero is reported as a warning, in the trap's own words,
    and the node left unfolded.
    """
    consts: dict[str, BitValue] = dict(k.constants)
    new_consts = list(k.constants)
    kept: list[Node] = []
    watched = {arg for _, arg, _ in k.checkpoints}
    for node in k.nodes:
        nid, op, args, ty = node
        if op is LOAD or op is STORE or nid in watched or not all(map(consts.__contains__, args)):
            kept.append(node)
            continue
        operands = [consts[a] for a in args]
        try:
            bits = apply_op(op, [v.bits for v in operands], [v.ty for v in operands], ty)
        except DivisionByZero as e:
            if diags is not None:
                diags.append(Diagnostic("warning", nid, f"{e}; node not folded"))
            kept.append(node)
            continue
        value = consts[nid] = _new(BitValue, (ty, bits))
        new_consts.append(_new(ConstDecl, (nid, value)))
    return k._replace(constants=tuple(new_consts), nodes=tuple(kept))


def dead_code_elim(k: Kernel) -> Kernel:
    """Drop nodes that no output, checkpoint, or store transitively needs.

    Checkpoints, store nodes, and memories are never removed; removing a
    checkpoint would silently weaken the security instrumentation.
    """
    live: set[str] = {source for _, source in k.outputs} | {arg for _, arg, _ in k.checkpoints}
    kept_rev: list[Node] = []
    for node in reversed(k.nodes):
        nid, op, args, _ = node
        if op is STORE or nid in live:
            kept_rev.append(node)
            live.update(args)
    return k._replace(nodes=tuple(reversed(kept_rev)))


# ---------------------------------------------------------------------------
# Instrumentation and DOT export
# ---------------------------------------------------------------------------

class InstrumentedGraph(namedtuple("InstrumentedGraph", "kernel rule")):
    """A Kernel instrumented for tracking: a tag wire per value wire, a
    propagation node per op node under rule ("union", "precise" or
    "boundary"), and one monitor fed by the checkpoints' tag wires. The
    graph exists to be drawn; emit_dot draws it from the kernel."""

    __slots__ = ()


def instrument(k: Kernel, cfg: DiftConfig) -> InstrumentedGraph:
    """k with cfg's tracking logic added; the value graph is untouched."""
    return InstrumentedGraph(k, cfg.rule.value if cfg.rule is not None else "boundary")


def emit_dot(g: Kernel | InstrumentedGraph) -> str:
    """Deterministic DOT rendering of g, as dot.emit_dot draws it."""
    from .dot import emit_dot

    return emit_dot(g)
