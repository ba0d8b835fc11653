"""DOT export of kernels and instrumented graphs.

Only instrument (and a first kernel_ir.emit_dot call) loads this module:
run, check and fuzz never compile the renderer.
"""

from __future__ import annotations

from .bitvalue import STORE, decode
from .kernel_ir import InstrumentedGraph, Kernel

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
    esc, names = {}, {}  # declaration id -> escaped id; type -> str(type), formatted once
    for iid, ty, default_tag in k.inputs:
        i = esc[iid] = _esc(iid)
        t = names.get(ty) or names.setdefault(ty, str(ty))
        vnodes.append(f'  "v:{i}" [shape=ellipse, label="{i} : {t}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = {default_tag}"];')
    for cid, (ty, bits) in k.constants:
        i = esc[cid] = _esc(cid)
        t = names.get(ty) or names.setdefault(ty, str(ty))
        vnodes.append(f'  "v:{i}" [shape=box, label="{i} = {decode(bits, ty)} : {t}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tag = 0"];')
    for mid, size, cell, _, _ in k.memories:
        i = esc[mid] = _esc(mid)
        vnodes.append(f'  "v:{i}" [shape=box3d, label="{i}[{size}] : {cell}"];')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}.tags"];')
    tag_suffix = f'.tag = {rule}"];'
    tails: dict[tuple, str] = {}  # (op, type) -> the end of a value node's line
    for nid, op, args, ty in k.nodes:
        i = esc[nid] = _esc(nid)
        tail = tails.get((op, ty))
        if tail is None:
            store = op is STORE
            tail = tails[op, ty] = ': store"];' if store else f' = {op.value} : {ty}"];'
        vnodes.append(f'  "v:{i}" [shape=box, style=rounded, label="{i}{tail}')
        if tags:
            tnodes.append(f'  "t:{i}" [{_TAG_NODE}{i}{tag_suffix}')
        for a in args:
            a = esc.get(a) or _esc(a)
            vedges.append(f'  "v:{a}" -> "v:{i}";')
            if tags:
                tedges.append(f'  "t:{a}" -> "t:{i}"{_TAG_EDGE}')
        if op is STORE:
            a = esc.get(args[0]) or _esc(args[0])
            vedges.append(f'  "v:{i}" -> "v:{a}";')
            if tags:
                tedges.append(f'  "t:{i}" -> "t:{a}"{_TAG_EDGE}')
    for oid, source in k.outputs:
        i = esc[oid] = _esc(oid)
        a = esc.get(source) or _esc(source)
        vnodes.append(f'  "v:{i}" [shape=ellipse, style=bold, label="{i}"];')
        vedges.append(f'  "v:{a}" -> "v:{i}";')
        if tags:
            tedges.append(f'  "t:{a}" -> "v:{i}"{_TAG_EDGE}')
    if tags:
        tnodes.append('  "monitor:0" [shape=box, peripheries=2, label="monitor"];')
    for cid, arg, policy in k.checkpoints:
        a = esc.get(arg) or _esc(arg)
        c = _esc(cid)
        label = f"{c}: {_esc(policy)}"
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
