"""A plain-int reference model of diftsim runs: the tests' one oracle of
run semantics, operator values and tags, and kill independence.

It evaluates kernel documents (the JSON that parse_kernel reads) on
inputs documents, written from the README's semantics and importing
nothing from diftsim, so a test that compares the simulator with it
compares two independent readings. A change of semantics (a tag rule, a
store, a memory) is made here once, and every comparison follows it.

- Values wrap modulo the result width; each operand is decoded by its
  own signedness.
- Union tags: the OR of the operand tags. A load joins the cell's and
  the address's tags; a store writes data | address into its cell.
- Precise tags, from the rule's definition: an untainted operand whose
  bits are 0 kills mul and and; an untainted or operand that is all ones
  at the result type kills or; mux keeps the selector's tag and the
  chosen branch's; a store writes the data tag alone.
- Coarse: every output and checkpoint observes one boundary tag, the OR
  of all input and initial memory tags.
- A checkpoint observes after its node's step (an input or a constant's
  at step 0), in declaration order within a step; its policy denies when
  the observed tag meets its denied bits. A halting run stops at its
  first deny and has no outputs.
- A trap (division by zero, an address outside the memory) stops the
  run; the denials before it stand.
- A precise kill is sound when independent holds: the result does not
  change, nor trap on some values only, as the tainted operands range
  over every value of their types.
"""

from __future__ import annotations

import itertools
import operator

_ARITH = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "and": operator.and_, "or": operator.or_, "xor": operator.xor,
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}


class Trap(Exception):
    def __init__(self, kind: str, node: str, step: int):
        super().__init__(kind, node, step)
        self.trap = (kind, node, step)


def decode(bits: int, ty) -> int:
    """The number canonical bits of ty, a (width, signed) pair, stand for."""
    width, signed = ty
    return bits - (1 << width) if signed and bits >> (width - 1) else bits


def value(op: str, bits, types, result) -> int:
    """Result bits of a value operator over operand bits of types, wrapped
    to result; a zero divisor raises ZeroDivisionError."""
    mask = (1 << result[0]) - 1
    if op == "not":
        return ~bits[0] & ((1 << types[0][0]) - 1) & mask
    if op == "neg":
        return -decode(bits[0], types[0]) & mask
    if op == "mux":
        chosen = 1 if bits[0] else 2
        return decode(bits[chosen], types[chosen]) & mask
    a, b = decode(bits[0], types[0]), decode(bits[1], types[1])
    if op in ("shl", "shr"):
        amount = bits[1] % result[0]  # the unsigned bits of b
        return (a << amount if op == "shl" else a >> amount) & mask
    if op in ("div", "mod"):
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return (q if op == "div" else a - b * q) & mask
    return int(_ARITH[op](a, b)) & mask


def independent(op: str, types, tainted, fixed: dict, result) -> bool:
    """True iff op's result at result is the same for every value of the
    operand positions in tainted, the others fixed at their bits in
    fixed; a zero divisor counts as one more outcome, the trap."""
    bits = [fixed.get(p, 0) for p in range(len(types))]
    outcomes = set()
    for combo in itertools.product(*(range(1 << types[p][0]) for p in tainted)):
        for p, b in zip(tainted, combo):
            bits[p] = b
        try:
            outcomes.add(value(op, bits, types, result))
        except ZeroDivisionError:
            outcomes.add("trap")
    return len(outcomes) == 1


def tag(op: str, precise: bool, bits, types, result, tags) -> int:
    """Result tag of a value operator under the union or precise rule."""
    if precise:
        if op == "mux":
            return tags[0] | tags[1 if bits[0] else 2]
        untainted = [(b, ty) for b, ty, t in zip(bits, types, tags) if t == 0]
        if op in ("mul", "and") and any(b == 0 for b, _ in untainted):
            return 0
        ones = (1 << result[0]) - 1
        if op == "or" and any(decode(b, ty) & ones == ones for b, ty in untainted):
            return 0
    joined = 0
    for t in tags:
        joined |= t
    return joined


def evaluate(kernel: dict, inputs: dict, mode: str = "union", halt: bool = False,
             tag_in: int = 0) -> dict:
    """One run of a kernel document on an inputs document, in mode "union",
    "precise" or "coarse", halting at the first deny if halt. tag_in is
    the REG_TAG_IN word: when nonzero it tags the inputs that the inputs
    document leaves untagged. Returns {"outputs": {id: (bits, tag)},
    "exceptions": [(checkpoint, node, tag, step, policy)], "observations":
    [(checkpoint, tag)], "steps", "halted", "trap"}; a trap is (kind,
    node, step), its run has no outputs, and its steps count the nodes
    completed."""
    tag_mask = (1 << kernel["tag_width"]) - 1
    types, val, tags = {}, {}, {}
    given_values, given_tags = inputs.get("values", {}), inputs.get("tags", {})
    for i in kernel["inputs"]:
        iid, ty = i["id"], (i["width"], i.get("signed", False))
        types[iid] = ty
        val[iid] = given_values.get(iid, 0) & ((1 << ty[0]) - 1)
        if iid in given_tags:
            tags[iid] = given_tags[iid] & tag_mask
        else:
            tags[iid] = tag_in & tag_mask if tag_in else i.get("default_tag", 0)
    for c in kernel.get("constants", []):
        ty = types[c["id"]] = (c["width"], c.get("signed", False))
        val[c["id"]], tags[c["id"]] = c["value"] & ((1 << ty[0]) - 1), 0
    memories = {}
    boundary = 0
    for t in tags.values():
        boundary |= t
    for m in kernel.get("memories", []):
        size, cell_mask = m["size"], (1 << m["width"]) - 1
        cells = list(inputs.get("memory", {}).get(m["id"], []))
        cells += [x & cell_mask for x in m.get("init", [])[len(cells):]]
        cell_tags = list(m.get("init_tags", []))
        for t in cell_tags:
            boundary |= t
        memories[m["id"]] = (
            m, cells + [0] * (size - len(cells)), cell_tags + [0] * (size - len(cell_tags))
        )
    coarse, precise = mode == "coarse", mode == "precise"
    policies = {p["name"]: p for p in kernel.get("policies", [])}
    checkpoints = kernel.get("checkpoints", [])
    watchers: dict = {}
    for cp in checkpoints:
        watchers.setdefault(cp["arg"], []).append(cp)
    exceptions, observations = [], []

    def judge(step: int, watching) -> bool:
        """Observe checkpoints after step; True if the run halts."""
        for cp in watching:
            t, policy = boundary if coarse else tags[cp["arg"]], policies[cp["policy"]]
            observations.append((cp["id"], t))
            kind = policy["kind"]
            if kind == "deny_if_any" and t or kind == "deny_if_mask" and t & policy["mask"]:
                exceptions.append((cp["id"], cp["arg"], t, step, policy["name"]))
                if halt:
                    return True
        return False

    def address(memory: dict, arg: str, nid: str, step: int) -> int:
        a = decode(val[arg], types[arg])
        if not 0 <= a < memory["size"]:
            raise Trap("OutOfBoundsAddress", nid, step)
        return a

    def run() -> tuple[int, bool]:
        if judge(0, [cp for cp in checkpoints if cp["arg"] in val]):  # inputs, constants
            return 0, True
        for step, node in enumerate(kernel["nodes"], start=1):
            nid, op, args = node["id"], node["op"], node["args"]
            if op == "store":
                m, cells, cell_tags = memories[args[0]]
                a = address(m, args[1], nid, step)
                cells[a] = decode(val[args[2]], types[args[2]]) & ((1 << m["width"]) - 1)
                data_tag = tags[args[2]]
                cell_tags[a] = data_tag if precise else data_tag | tags[args[1]]
                continue
            result = types[nid] = (node["width"], node.get("signed", False))
            if op == "load":
                m, cells, cell_tags = memories[args[0]]
                a = address(m, args[1], nid, step)
                val[nid] = cells[a] & ((1 << m["width"]) - 1)
                tags[nid] = cell_tags[a] | tags[args[1]]
            else:
                bits, arg_types = [val[a] for a in args], [types[a] for a in args]
                try:
                    val[nid] = value(op, bits, arg_types, result)
                except ZeroDivisionError:
                    raise Trap("DivisionByZero", nid, step) from None
                arg_tags = [tags[a] for a in args]
                tags[nid] = tag(op, precise, bits, arg_types, result, arg_tags)
            if judge(step, watchers.get(nid, ())):
                return step, True
        return len(kernel["nodes"]), False

    try:
        steps, halted = run()
    except Trap as e:
        trap = e.trap
        steps, halted, outputs = trap[2] - 1, False, {}
    else:
        trap = None
        outputs = {} if halted else {
            o["id"]: (val[o["source"]], boundary if coarse else tags[o["source"]])
            for o in kernel["outputs"]
        }
    return {
        "outputs": outputs,
        "exceptions": exceptions,
        "observations": observations,
        "steps": steps,
        "halted": halted,
        "trap": trap,
    }
