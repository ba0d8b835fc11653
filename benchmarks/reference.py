"""A plain-int reference evaluator for kernel documents, independent of diftsim.

It implements the semantics the README documents: wrap-around arithmetic
at declared widths, union-rule tags (the OR of operand tags; a load joins
the cell and address tags, a store writes the value tag joined with the
address tag), the coarse boundary tag, policy verdicts at checkpoints,
record and halt, and the two traps (division by zero, address outside
the memory). The benchmark compares diftsim's outputs with it.
"""

from __future__ import annotations

COMPARE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


class Trap(Exception):
    def __init__(self, kind: str, node: str):
        super().__init__(kind, node)
        self.kind = kind
        self.node = node


def _signed(bits: int, width: int, signed: bool) -> int:
    if signed and bits >> (width - 1):
        return bits - (1 << width)
    return bits


def _truncdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _binop(op: str, a: int, b: int, b_bits: int, width: int) -> int:
    if op in COMPARE:
        return int(COMPARE[op](a, b))
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op in ("div", "mod"):
        q = _truncdiv(a, b)
        return q if op == "div" else a - b * q
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return a << (b_bits % width)
    if op == "shr":
        return a >> (b_bits % width)
    raise ValueError(f"unknown op {op}")


def evaluate(
    kernel: dict,
    inputs: dict,
    mode: str = "union",
    halt: bool = False,
    env: dict | None = None,
) -> dict:
    """Run a kernel document on an inputs document.

    mode is "union" (per-operation tags) or "coarse" (every observation sees
    the boundary tag). Returns {"outputs": {id: (bits, tag)}, "exceptions":
    [(checkpoint, node, tag, step, policy)], "steps", "halted", "observed"},
    where observed counts checkpoint observations. A run that stops on
    DivisionByZero or OutOfBoundsAddress returns {"trap": (kind, node),
    "steps", "observed"} instead, steps counting the nodes completed. When
    env is given it receives {id: (bits, tag, width, signed)} for every
    value.
    """
    tag_mask = (1 << kernel["tag_width"]) - 1
    types: dict[str, tuple[int, bool]] = {}
    val: dict[str, int] = {}
    tag: dict[str, int] = {}
    for i in kernel["inputs"]:
        w, s = i["width"], i.get("signed", False)
        types[i["id"]] = (w, s)
        val[i["id"]] = inputs["values"].get(i["id"], 0) & ((1 << w) - 1)
        t = inputs.get("tags", {}).get(i["id"])
        tag[i["id"]] = t & tag_mask if t is not None else i.get("default_tag", 0)
    for c in kernel.get("constants", []):
        w, s = c["width"], c.get("signed", False)
        types[c["id"]] = (w, s)
        val[c["id"]] = c["value"] & ((1 << w) - 1)
        tag[c["id"]] = 0
    mems = {}
    for m in kernel.get("memories", []):
        cmask = (1 << m["width"]) - 1
        cells = [x & cmask for x in m.get("init", [])]
        cells += [0] * (m["size"] - len(cells))
        for j, raw in enumerate(inputs.get("memory", {}).get(m["id"], [])):
            cells[j] = raw & cmask
        tags = list(m.get("init_tags", []))
        tags += [0] * (m["size"] - len(tags))
        mems[m["id"]] = (m, cells, tags)

    boundary = 0
    for i in kernel["inputs"]:
        boundary |= tag[i["id"]]
    for _, _, tags in mems.values():
        for t in tags:
            boundary |= t

    policies = {p["name"]: p for p in kernel.get("policies", [])}
    by_arg: dict[str, list[dict]] = {}
    for cp in kernel.get("checkpoints", []):
        by_arg.setdefault(cp["arg"], []).append(cp)
    exceptions: list[tuple] = []
    observed = 0

    def observe(cp: dict, step: int) -> bool:
        """Submit one checkpoint; True means the run halts here."""
        nonlocal observed
        observed += 1
        t = boundary if mode == "coarse" else tag[cp["arg"]]
        p = policies[cp["policy"]]
        if p["kind"] == "allow_all" or t & p.get("mask", tag_mask) == 0:
            return False
        exceptions.append((cp["id"], cp["arg"], t, step, cp["policy"]))
        return halt

    def address(m: dict, arg: str, node: str) -> int:
        a = _signed(val[arg], *types[arg])
        if not 0 <= a < m["size"]:
            raise Trap("OutOfBoundsAddress", node)
        return a

    def run() -> tuple[int, bool]:
        for cp in kernel.get("checkpoints", []):
            if cp["arg"] in val and observe(cp, 0):
                return 0, True
        for step, n in enumerate(kernel["nodes"], start=1):
            op, args, nid = n["op"], n["args"], n["id"]
            if op == "store":
                m, cells, tags = mems[args[0]]
                a = address(m, args[1], nid)
                cells[a] = _signed(val[args[2]], *types[args[2]]) & ((1 << m["width"]) - 1)
                tags[a] = tag[args[2]] | tag[args[1]]
                done[0] = step
                continue
            w = n["width"]
            types[nid] = (w, n.get("signed", False))
            if op == "load":
                m, cells, tags = mems[args[0]]
                a = address(m, args[1], nid)
                r, t = cells[a], tags[a] | tag[args[1]]
            elif op == "mux":
                sel, tv, fv = args
                chosen = tv if val[sel] != 0 else fv
                r = _signed(val[chosen], *types[chosen])
                t = tag[sel] | tag[tv] | tag[fv]
            elif op == "not":
                r, t = ~val[args[0]] & ((1 << types[args[0]][0]) - 1), tag[args[0]]
            elif op == "neg":
                r, t = -_signed(val[args[0]], *types[args[0]]), tag[args[0]]
            else:
                a_id, b_id = args
                ia, ib = _signed(val[a_id], *types[a_id]), _signed(val[b_id], *types[b_id])
                if op in ("div", "mod") and ib == 0:
                    raise Trap("DivisionByZero", nid)
                r = _binop(op, ia, ib, val[b_id], w)
                t = tag[a_id] | tag[b_id]
            val[nid] = r & ((1 << w) - 1)
            tag[nid] = t
            done[0] = step
            for cp in by_arg.get(nid, ()):
                if observe(cp, step):
                    return step, True
        return len(kernel["nodes"]), False

    done = [0]
    try:
        steps, halted = run()
    except Trap as e:
        return {"trap": (e.kind, e.node), "steps": done[0], "observed": observed}
    finally:
        if env is not None:
            env.update((k, (v, tag[k], *types[k])) for k, v in val.items())
    outputs = {}
    if not halted:
        for o in kernel["outputs"]:
            t = boundary if mode == "coarse" else tag[o["source"]]
            outputs[o["id"]] = (val[o["source"]], t)
    return {
        "outputs": outputs,
        "exceptions": exceptions,
        "steps": steps,
        "halted": halted,
        "observed": observed,
    }
