"""Seeded generators of benchmark kernels, as JSON documents.

Every generator takes the workload seed and returns a kernel document that
goes through ``diftsim.parse_kernel`` like a user file. The opcode mix is
stratified: each kernel of a given size holds the same multiset of
operators, shuffled and wired by the seed, so seeds change the inputs but
not the amount of work.

* ``fir(n, seed)``: an n-tap filter. Each tap combines an input with a
  coefficient under an operator drawn from the full value-op mix; every
  eighth coefficient is a constant expression that ``const_fold`` folds.
  Checkpoints sit on the accumulated result, on one folded coefficient in
  every 8 * max(n // 64, 1) taps and on a tap halfway between two of them.
* ``dot(n, seed)``: a dot product of two n-cell memories with mixed cell
  types. Half the loads use constant addresses, half use a tainted base
  plus an offset masked into range. Live divisors are guarded (``or`` with
  1). Every 32nd element (every n // 2nd below 64) adds a dead node for
  ``dead_code_elim``, drawn from the binary ops and ``load``, over
  unguarded data: a dead division by a loaded cell, or a dead load at the
  element's value as address, which is mostly outside the memory.
  Checkpoints sit on the result, on a product of two constants that
  ``const_fold`` folds, and on elements spaced as in ``fir``.
* ``deny(seed, nodes)``: a random kernel over one 256-cell memory whose
  loads and stores use tainted, computed addresses. Most values carry a
  checkpoint under one of the three policy kinds. The eighth divisor is
  the low four bits of an input byte, and the sixteenth memory access adds
  them to another input byte for its address, so about one sample in eleven
  traps.

The live nodes of ``fir`` and ``dot`` never trap: constant divisors are
nonzero and data divisors are guarded, as in a datapath written to run to
completion. Their dead nodes and their checkpoints on foldable nodes are
not steered away from the passes' known defects (ROADMAP Open item 2):
``dead_code_elim`` drops dead nodes that trap, and a checkpoint on a node
``const_fold`` folds fires at step 0 in coarse mode.
"""

from __future__ import annotations

import random

WIDTHS = (4, 8, 12, 16, 24, 32)
COMPARE = ("eq", "ne", "lt", "le", "gt", "ge")
BINARY = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr") + COMPARE
UNARY = ("not", "neg")

# Tap and element operators; mul is weighted as in a multiply-accumulate.
_TAP_MIX = ("mul",) * 5 + BINARY[:2] + BINARY[3:] + UNARY + ("mux",)
_ACC_MIX = ("add",) * 4 + ("sub", "xor", "or")
_DENY_MIX = BINARY + UNARY + ("mux",) * 2 + ("load",) * 4 + ("store",) * 4


def _stratified(rng: random.Random, mix: tuple[str, ...], n: int) -> list[str]:
    ops = list(mix) * (n // len(mix) + 1)
    ops = ops[:n]
    rng.shuffle(ops)
    return ops


class _Doc:
    """Accumulates one kernel document; ids are unique by construction."""

    def __init__(self, name: str, tag_width: int):
        self.tag_width = tag_width
        self.doc = {
            "name": name,
            "tag_width": tag_width,
            "inputs": [],
            "constants": [],
            "memories": [],
            "nodes": [],
            "policies": [],
            "checkpoints": [],
            "outputs": [],
        }

    def input(self, iid: str, width: int, signed: bool, default_tag: int) -> str:
        self.doc["inputs"].append(
            {"id": iid, "width": width, "signed": signed, "default_tag": default_tag}
        )
        return iid

    def const(self, cid: str, width: int, signed: bool, value: int) -> str:
        self.doc["constants"].append(
            {"id": cid, "width": width, "signed": signed, "value": value}
        )
        return cid

    def node(self, op: str, args: list[str], width: int | None = None, signed: bool = False) -> str:
        nid = f"n{len(self.doc['nodes'])}"
        item = {"id": nid, "op": op, "args": list(args)}
        if op != "store":
            if op in COMPARE:
                width, signed = 1, False
            item["width"] = width
            item["signed"] = signed
        self.doc["nodes"].append(item)
        return nid

    def policies(self, rng: random.Random) -> list[str]:
        mask = sum(1 << b for b in rng.sample(range(self.tag_width), 2))  # same deny odds per seed
        self.doc["policies"] = [
            {"name": "p_any", "kind": "deny_if_any"},
            {"name": "p_mask", "kind": "deny_if_mask", "mask": mask},
            {"name": "p_allow", "kind": "allow_all"},
        ]
        return ["p_any", "p_mask", "p_allow"]

    def checkpoint(self, arg: str, policy: str) -> None:
        cps = self.doc["checkpoints"]
        cps.append({"id": f"cp{len(cps)}", "arg": arg, "policy": policy})

    def output(self, source: str) -> None:
        outs = self.doc["outputs"]
        outs.append({"id": f"out{len(outs)}", "source": source})


def _rand_type(rng: random.Random) -> tuple[int, bool]:
    return rng.choice(WIDTHS), rng.random() < 0.5


def _nonzero(rng: random.Random, width: int) -> int:
    return rng.randrange(1, 1 << width)


def _combine(d: _Doc, rng: random.Random, op: str, a: str, b: str) -> str:
    """One tap or element: op over a data value a and a second operand b."""
    w, s = _rand_type(rng)
    if op in UNARY:
        return d.node(op, [a], w, s)
    if op == "mux":
        sel = d.node(rng.choice(COMPARE), [a, b])
        return d.node("mux", [sel, a, b], w, s)
    return d.node(op, [a, b], w, s)


def _spacing(n: int) -> int:
    """Distance between checkpoints on fir/dot taps: a multiple of 8, so that
    tap spacing - 1 has a folded coefficient."""
    return 8 * max(n // 64, 1)


def fir(n: int, seed: int) -> dict:
    rng = random.Random(f"fir-{n}-{seed}")
    d = _Doc(f"fir{n}", 4)
    policies = d.policies(rng)
    span = _spacing(n)
    ops = _stratified(rng, _TAP_MIX, n)
    acc_ops = _stratified(rng, _ACC_MIX, n)
    acc = None
    for i, op in enumerate(ops):
        w, s = _rand_type(rng)
        x = d.input(f"x{i}", w, s, rng.randrange(1 << d.tag_width))
        cw, cs = _rand_type(rng)
        if i % 8 == 7:
            ka = d.const(f"ka{i}", cw, cs, rng.randrange(1 << cw))
            kb = d.const(f"kb{i}", cw, cs, _nonzero(rng, cw))
            c = d.node("or", [ka, kb], cw, cs)  # nonzero, so also a safe divisor
        else:
            value = _nonzero(rng, cw) if op in ("div", "mod") else rng.randrange(1 << cw)
            c = d.const(f"c{i}", cw, cs, value)
        t = _combine(d, rng, op, x, c)
        if i % span == span - 1:
            d.checkpoint(c, rng.choice(policies))  # a node const_fold folds
        elif i % span == span // 2 - 1:
            d.checkpoint(t, rng.choice(policies))
        acc = t if acc is None else d.node(acc_ops[i], [acc, t], 32, True)
    d.checkpoint(acc, rng.choice(policies))
    d.output(acc)
    return d.doc


def dot(n: int, seed: int) -> dict:
    if n & (n - 1):
        raise ValueError("dot size must be a power of two")
    rng = random.Random(f"dot-{n}-{seed}")
    d = _Doc(f"dot{n}", 4)
    policies = d.policies(rng)
    span, dead = _spacing(n), min(32, max(n // 2, 1))
    aw = max(n.bit_length(), 2)
    cells = {}
    for mid in ("va", "vb"):
        cw, cs = _rand_type(rng)
        cells[mid] = (cw, cs)
        d.doc["memories"].append(
            {
                "id": mid,
                "size": n,
                "width": cw,
                "signed": cs,
                "init": [rng.randrange(1 << cw) for _ in range(n)],
                "init_tags": [
                    rng.randrange(1 << d.tag_width) if rng.random() < 1 / 16 else 0
                    for _ in range(n)
                ],
            }
        )
    base = d.input("base", 16, False, rng.randrange(1 << d.tag_width))
    scale = d.input("scale", 8, True, 0)
    mask = d.const("mask", aw, False, n - 1)
    one = d.const("one", 1, False, 1)
    ops = _stratified(rng, _TAP_MIX, n)
    acc_ops = _stratified(rng, _ACC_MIX, n)
    acc = None
    for i, op in enumerate(ops):
        if i % 2 == 0:
            addr = d.const(f"i{i}", aw, False, i)
        else:
            off = d.const(f"o{i}", 16, False, rng.randrange(1 << 16))
            addr = d.node("and", [d.node("add", [base, off], 16, False), mask], aw, False)
        la = d.node("load", ["va", addr], *cells["va"])
        lb = d.node("load", ["vb", addr], *cells["vb"])
        if op in ("div", "mod"):
            lb = d.node("or", [lb, one], *cells["vb"])
        e = _combine(d, rng, op, la, lb)
        if i % span == span // 2 - 1:
            d.checkpoint(e, rng.choice(policies))
        if i % dead == dead - 1:  # a dead node over unguarded data
            dead_op = rng.choice(BINARY + ("load",))
            if dead_op == "load":
                d.node("load", ["va", e], *cells["va"])
            else:
                d.node(dead_op, [e, la], *_rand_type(rng))
        acc = e if acc is None else d.node(acc_ops[i], [acc, e], 32, True)
    prod = d.node("mul", [acc, scale], 32, True)
    k1 = d.const("k1", 8, False, rng.randrange(1, 256))
    k2 = d.const("k2", 8, False, rng.randrange(1, 256))
    kprod = d.node("mul", [k1, k2], 16, False)
    d.checkpoint(kprod, rng.choice(policies))  # a node const_fold folds
    biased = d.node("add", [prod, kprod], 32, True)
    d.checkpoint(biased, rng.choice(policies))
    d.output(biased)
    return d.doc


def deny(seed: int, nodes: int = 240) -> dict:
    """A kernel of about `nodes` operator nodes that fills the monitor."""
    rng = random.Random(f"deny-{nodes}-{seed}")
    d = _Doc(f"deny{nodes}", 4)
    d.policies(rng)
    cw, cs = _rand_type(rng)
    d.doc["memories"].append(
        {
            "id": "mem",
            "size": 256,
            "width": cw,
            "signed": cs,
            "init": [rng.randrange(1 << cw) for _ in range(256)],
            "init_tags": [
                rng.randrange(1 << d.tag_width) if rng.random() < 1 / 4 else 0
                for _ in range(256)
            ],
        }
    )
    pool = [
        d.input(f"in{i}", *_rand_type(rng), rng.randrange(1 << d.tag_width))
        for i in range(6)
    ]
    # Unsigned bytes, so that the trap odds below do not hang on input types.
    idx, sel = (d.input(n, 8, False, rng.randrange(1 << d.tag_width)) for n in ("idx", "sel"))
    pool += [idx, sel]
    k255 = d.const("k255", 8, False, 255)
    k15 = d.const("k15", 4, False, 15)
    one = d.const("one", 1, False, 1)
    pool += [d.const(f"k{i}", *_rand_type(rng), rng.randrange(1 << 32)) for i in range(4)]
    cp_policies = _stratified(rng, ("p_any", "p_any", "p_mask", "p_mask", "p_allow"), 4 * nodes)
    mem_ops = divisions = 0

    def pick() -> str:
        return pool[-1 - min(int(rng.expovariate(1 / 12)), len(pool) - 1)]

    def nibble() -> str:
        """The low four bits of sel: zero in one sample in sixteen."""
        return d.node("and", [sel, k15], 4, False)

    def address() -> str:
        """A tainted, computed address; the sixteenth may leave the memory."""
        nonlocal mem_ops
        mem_ops += 1
        if mem_ops != 16:
            return d.node("and", [pick(), k255], 8, False)
        byte = d.node("and", [idx, k255], 8, False)
        return d.node("add", [byte, nibble()], 9, False)

    for op in _stratified(rng, _DENY_MIX, nodes):
        if op == "store":
            d.node("store", ["mem", address(), pick()])
            continue
        if op == "load":
            v = d.node("load", ["mem", address()], cw, cs)
        elif op in UNARY:
            v = d.node(op, [pick()], *_rand_type(rng))
        elif op == "mux":
            v = d.node("mux", [pick(), pick(), pick()], *_rand_type(rng))
        elif op in ("div", "mod"):
            divisions += 1
            if divisions == 8:
                divisor = nibble()
            else:
                divisor = d.node("or", [pick(), one], 8, False)
            v = d.node(op, [pick(), divisor], *_rand_type(rng))
        else:
            v = d.node(op, [pick(), pick()], *_rand_type(rng))
        pool.append(v)
        if len(pool) % 7:
            d.checkpoint(v, cp_policies.pop())
    for v in pool[-4:] + pool[len(pool) // 2 : len(pool) // 2 + 2]:
        d.output(v)
    return d.doc


def inputs(kernel: dict, rng: random.Random, memory: bool = False) -> dict:
    """Random values and explicit tags for every input; with memory=True,
    random contents for every memory cell as well."""
    tw = kernel["tag_width"]
    doc = {
        "values": {i["id"]: rng.randrange(1 << i["width"]) for i in kernel["inputs"]},
        "tags": {i["id"]: rng.randrange(1 << tw) for i in kernel["inputs"]},
        "memory": {},
    }
    if memory:
        doc["memory"] = {
            m["id"]: [rng.randrange(1 << m["width"]) for _ in range(m["size"])]
            for m in kernel["memories"]
        }
    return doc
