"""DOT export of kernels and instrumented graphs.

Only instrument (and a first kernel_ir.emit_dot call) loads this module:
run, check and fuzz never compile the renderer.

Escaping is decided once per kernel: one join over every string the
renderer writes tells whether any holds a quote or a backslash. If none
does, as in every generated kernel, the strings are written as they are;
else they are all escaped first. Each node then writes at most one string
to each section of the graph.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .bitvalue import STORE, decode
from .kernel_ir import InstrumentedGraph, Kernel

_TAG_NODE = 'shape=box, style="rounded,dashed", color=gray40, fontcolor=gray40, label="'
_TAG_EDGE = " [style=dashed, color=gray40];"
_first = itemgetter(0)


def _esc(s: str) -> str:
    """s escaped for a DOT quoted string. Escaping is per character, so
    _esc(a + b) == _esc(a) + _esc(b)."""
    if '"' in s or "\\" in s:
        return s.replace("\\", "\\\\").replace('"', '\\"')
    return s


def _needs_escaping(k: Kernel) -> bool:
    """Whether any string emit_dot writes for k holds a quote or a
    backslash: the name, the declaration ids, the node arguments, the
    outputs' ids and sources, and the checkpoints' ids, arguments and
    policy names, joined in one call."""
    text = "".join(
        chain(
            (k.name,),
            map(_first, chain(k.inputs, k.constants, k.memories, k.nodes)),
            chain.from_iterable(map(itemgetter(2), k.nodes)),
            chain.from_iterable(k.outputs),
            chain.from_iterable(k.checkpoints),
        )
    )
    return '"' in text or "\\" in text


def _escaped(k: Kernel) -> Kernel:
    """k with every string _needs_escaping reads escaped by _esc. The
    renderer only unpacks the records, so they become plain tuples; an
    argument is escaped on its own, to the same text as the id it names."""
    return k._replace(
        name=_esc(k.name),
        inputs=[(_esc(i), ty, tag) for i, ty, tag in k.inputs],
        constants=[(_esc(c), value) for c, value in k.constants],
        memories=[(_esc(m), *rest) for m, *rest in k.memories],
        nodes=[(_esc(n), op, [*map(_esc, args)], ty) for n, op, args, ty in k.nodes],
        outputs=[[*map(_esc, o)] for o in k.outputs],
        checkpoints=[[*map(_esc, c)] for c in k.checkpoints],
    )


def emit_dot(g: Kernel | InstrumentedGraph) -> str:
    """Deterministic DOT rendering: value edges solid, tag edges dashed,
    monitor double-outlined. A plain Kernel is drawn as its value graph
    with a diamond per checkpoint. Identical input gives byte-identical
    output.

    Whether any string needs escaping is decided once, by _needs_escaping;
    if one does, the kernel is drawn from its _escaped copy. One pass over
    the declarations fills four sections: value nodes, tag nodes (or
    checkpoint nodes), value edges, tag edges (or checkpoint edges). Each
    declaration writes at most one string to each: a two-operand node's
    two edges are one string of two lines. An argument no declaration
    names (the kernel is invalid) is drawn all the same."""
    k, rule = (g, None) if isinstance(g, Kernel) else (g.kernel, g.rule)
    if _needs_escaping(k):
        k = _escaped(k)
    tags = rule is not None
    vnodes: list[str] = []
    tnodes: list[str] = []
    vedges: list[str] = []
    tedges: list[str] = []
    names: dict = {}  # type -> str(type), formatted once
    for i, ty, default_tag in k.inputs:
        t = names.get(ty) or names.setdefault(ty, str(ty))
        vnodes.append(f'  "v:{i}" [shape=ellipse, label="{i} : {t}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = {default_tag}"];')
    for i, (ty, bits) in k.constants:
        t = names.get(ty) or names.setdefault(ty, str(ty))
        vnodes.append(f'  "v:{i}" [shape=box, label="{i} = {decode(bits, ty)} : {t}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = 0"];')
    for i, size, cell, _, _ in k.memories:
        vnodes.append(f'  "v:{i}" [shape=box3d, label="{i}[{size}] : {cell}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tags"];')
    tag_suffix = f'.tag = {rule}"];'
    tails: dict[tuple, str] = {}  # (op, type) -> the end of a value node's line
    for i, op, args, ty in k.nodes:
        tail = tails.get((op, ty))
        if tail is None:
            store = op is STORE
            tail = tails[op, ty] = ': store"];' if store else f' = {op.value} : {ty}"];'
        vnodes.append(f'  "v:{i}" [shape=box, style=rounded, label="{i}{tail}')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}{tag_suffix}')
        if len(args) == 2 and op is not STORE:
            a, b = args
            vedges.append(f'  "v:{a}" -> "v:{i}";\n  "v:{b}" -> "v:{i}";')
            if tags:
                tedges.append(f'  "t:{a}" -> "t:{i}"{_TAG_EDGE}\n  "t:{b}" -> "t:{i}"{_TAG_EDGE}')
            continue
        for a in args:
            vedges.append(f'  "v:{a}" -> "v:{i}";')
            if tags:
                tedges.append(f'  "t:{a}" -> "t:{i}"{_TAG_EDGE}')
        if op is STORE:
            a = args[0]
            vedges.append(f'  "v:{i}" -> "v:{a}";')
            if tags:
                tedges.append(f'  "t:{i}" -> "t:{a}"{_TAG_EDGE}')
    for i, a in k.outputs:
        vnodes.append(f'  "v:{i}" [shape=ellipse, style=bold, label="{i}"];')
        vedges.append(f'  "v:{a}" -> "v:{i}";')
        if tags:
            tedges.append(f'  "t:{a}" -> "v:{i}"{_TAG_EDGE}')
    if tags:
        tnodes.append('  "monitor:0" [shape=box, peripheries=2, label="monitor"];')
    for c, a, policy in k.checkpoints:
        label = f"{c}: {policy}"
        if tags:
            tedges.append(
                f'  "t:{a}" -> "monitor:0" [style=dashed, color=gray40, label="{label}", fontsize=9];'
            )
        else:
            tnodes.append(f'  "c:{c}" [shape=diamond, label="{label}"];')
            tedges.append(f'  "v:{a}" -> "c:{c}"{_TAG_EDGE}')
    return "\n".join(
        [
            f'digraph "{k.name}" {{',
            "  rankdir=LR;",
            '  node [fontname="Helvetica", fontsize=10];',
            *vnodes,
            *tnodes,
            *vedges,
            *tedges,
            "}\n",
        ]
    )
