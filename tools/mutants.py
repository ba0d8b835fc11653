#!/usr/bin/env python3
"""A mutation gate: the tier-1 tests must kill a fixed catalogue of
semantic mutants.

    python3 tools/mutants.py              # on HEAD
    python3 tools/mutants.py --rev REV
    python3 tools/mutants.py --only M23,M52   # the control and these entries

REV is anything `git rev-parse` accepts; to check uncommitted work,
stage it and pass the commit `git stash create` prints. Each entry of
MUTANTS is (name, file, exact old text, new text, the claim the mutant
breaks). For each mutant the tool extracts a fresh `git archive` copy of
REV, replaces the old text, which must occur exactly once in its file,
by the new one, and runs tier-1 there with -x, as ROADMAP.md's tier-1
command does, less the tier-1 check of this catalogue. A mutant whose run fails, crashes or times out is killed;
one whose run passes survived, and a survivor is a missing test, not a
reason to drop the entry. Each run's address space is capped at 2 GB,
since a mutant may ask for huge ints, and its time at ten minutes. The tool first runs tier-1 on REV as it
is, then prints one line per mutant with the first test that failed. It
exits 1 if any mutant survived, and 2 if tier-1 fails without a mutant
or an entry's old text does not occur exactly once in REV.

--only runs the control and the named entries only, and still checks
every entry's old text; a name not in MUTANTS exits 2 before anything
runs. It is for checking entries a change re-points; the full run is
the gate.
"""

from __future__ import annotations

import argparse
import io
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BITVALUE, TAINT, TAINTED, KERNEL_IR, DOT, SIMULATOR, MONITOR = (
    f"src/diftsim/{m}.py"
    for m in ("bitvalue", "taint", "tainted", "kernel_ir", "dot", "simulator", "policy_monitor")
)
MODEL = "tests/reference_model.py"

MUTANTS = [
    # Values.
    ("M1", BITVALUE, "    return -q if (a < 0) != (b < 0) else q\n", "    return a // b\n",
     "div truncates toward zero"),
    ("M2", BITVALUE, "    return a - b * (-q if (a < 0) != (b < 0) else q)\n", "    return a % b\n",
     "mod follows the dividend's sign"),
    ("M3", BITVALUE, "op((x ^ sx) - sx, y % width)", "op((x ^ sx) - sx, y)",
     "the shift amount is reduced modulo the result width"),
    ("M4", BITVALUE, "return _not(types[0].mask & mask)", "return _not(mask)",
     "not complements its operand within the operand's own width"),
    ("M5", BITVALUE, "return -((x ^ sx) - sx) & mask", "return -x & mask",
     "neg negates the operand's decoded value"),
    ("M6", BITVALUE, "return ((y ^ sy) - sy if x else (z ^ sz) - sz) & mask",
     "return (y if x else z) & mask", "mux rewraps the chosen value, sign included"),
    ("M7", BITVALUE, "signs = [sign_bit(ty) if ty.width < result_ty.width else 0 for ty in types]",
     "signs = [0 for ty in types]", "a narrow signed operand is sign-extended"),
    # Tag rules.
    ("M8", TAINT, "if (tx == 0 and x == 0) or (ty == 0 and y == 0):", "if x == 0 or y == 0:",
     "only an untainted zero kills mul and and"),
    ("M9", TAINT,
     "return ty.mask if ty.signed and ty.width < result_ty.width else result_ty.mask",
     "return ty.mask", "the or kill is judged at the result type"),
    ("M10", TAINT, "return tx | (ty if x else tz)", "return tx | ty | tz",
     "precise mux keeps the selector's and the chosen branch's tags only"),
    ("M11", TAINT, "def _join(x, y, z, tx, ty, tz):\n    return tx | ty | tz",
     "def _join(x, y, z, tx, ty, tz):\n    return tx | ty", "union joins every operand's tag"),
    ("M12", TAINT, "if kind is MUL or kind is AND:",
     "if kind is MUL or kind is AND or kind is OpKind.XOR:", "xor has no zero kill"),
    # The rest.
    ("M13", BITVALUE, "        signs = [sign_bit(ty) for ty in types]",
     "        signs = [0 if kind in COMPARE_OPS else sign_bit(ty) for ty in types]",
     "comparisons decode signed operands"),
    ("M14", TAINTED, "operands[0][0].ty if result_ty is None", "operands[-1][0].ty if result_ty is None",
     "propagate's result type defaults to the first operand's"),
    ("M15", TAINTED, "if kind in COMPARE_OPS and (result_ty.width != 1 or result_ty.signed):",
     "if False:", "eval_binop refuses a comparison whose result is not u1"),
    ("M16", TAINTED, "tag = propagate(rule, kind,", "tag = propagate(PropagationRule.UNION, kind,",
     "apply_binop tags under the rule it is given"),
    ("M17", TAINT, "if (tx == 0 and (x & kx) == kx) or (ty == 0 and (y & ky) == ky):",
     "if (x & kx) == kx or (y & ky) == ky:", "only an untainted all-ones operand kills or"),
    ("M18", MODEL, '            outcomes.add("trap")', "            continue",
     "the model's independence oracle counts a trap as an outcome"),
    ("M19", TAINT, "MAX_TAG_WIDTH = 32", "MAX_TAG_WIDTH = 16", "tags are up to 32 bits wide"),
    ("M20", BITVALUE, "    s = sign_bit(ty)\n    return (bits ^ s) - s", "    return bits",
     "decode reads signed bits as two's complement"),
    # The front end.
    ("M21", KERNEL_IR, "signature = (op, keys[out], keys[x]", "signature = (op, keys[x]",
     "lower shares functions only between nodes of one result type"),
    ("M22", KERNEL_IR, "_new(BitValue, (ty, value & ty.mask))", "_new(BitValue, (ty, value))",
     "a parsed constant's bits are its value wrapped to its type"),
    ("M23", DOT,
     "t = names.get(ty) or names.setdefault(ty, str(ty))\n        vnodes.append(f'  \"v:{i}\" [shape=ellipse",
     "t = names.get(ty.width) or names.setdefault(ty.width, str(ty))\n"
     "        vnodes.append(f'  \"v:{i}\" [shape=ellipse",
     "emit_dot labels an input with its own type"),
    # Runs: the value pass, the replay and the halting cut.
    ("M24", BITVALUE, "return cells[i] & mask", "return cells[i]",
     "a load wraps the cell it reads to the memory's width"),
    ("M25", SIMULATOR, "boundary |= join", "pass",
     "the coarse boundary joins every memory's initial tags"),
    ("M26", SIMULATOR, "cells = list(override)", "cells = override",
     "a run copies a memory override and never writes the caller's list"),
    ("M27", SIMULATOR, "trap[3] <= stop", "trap[3] < stop",
     "a trap at the last step a replay needs stops that replay"),
    ("M28", SIMULATOR, "bisect_right(steps, done)", "bisect_right(steps, done - 1)",
     "a run observes every checkpoint up to and at its last step"),
    ("M29", SIMULATOR, "ran = i\n", "ran = i - 1\n",
     "a halting run observes the checkpoint that denied"),
    ("M30", SIMULATOR, "if t_p & ~t_u:", "if t_p & ~t_u & 1:",
     "fuzz checks every bit of precise within union"),
    ("M31", SIMULATOR, "_cells(m.size, init_tags)", "_cells(m.size, ())",
     "a fine run starts from the memories' initial tags"),
    ("M32", SIMULATOR, "if (boundary if tags is None else tags[slot]) & bits:",
     "if (0 if tags is None else tags[slot]) & bits:",
     "a halting coarse run judges its checkpoints on the boundary tag"),
    ("M33", SIMULATOR, "if seq != opt_seq:", "if False:",
     "check compares the optimized exception sequence"),
    ("M34", SIMULATOR, "if base_tag & ~wide_tag:", "if False:",
     "fuzz checks union monotonicity"),
    ("M35", SIMULATOR, "            if trap is not None:\n                break\n", "",
     "a halting run stops at a trap"),
    ("M36", SIMULATOR, "vals += k.plan.constants", "vals += [0] * len(k.plan.constants)",
     "a value pass holds the kernel's constants"),
    ("M37", SIMULATOR, '                warn(iid, "input not assigned; defaulting to 0")\n',
     "                pass\n", "an input left unassigned is a warning"),
    ("M38", SIMULATOR, "repeat(tag_in) if tag_in else", "repeat(tag_in) if False else",
     "a nonzero REG_TAG_IN word tags the inputs left untagged"),
    ("M39", SIMULATOR, "if value != ovalue:", "if False:",
     "check compares the optimized output values with the baseline's"),
    # Memory tags.
    ("M40", TAINT, "data_tag if precise else addr_tag | data_tag", "data_tag",
     "a union store joins the address tag into the cell"),
    ("M41", TAINT, "return addr_tag | cell_tags[(addr ^ sy) - sy]",
     "return cell_tags[(addr ^ sy) - sy]", "a load joins the address tag"),
    # The monitor.
    ("M42", MONITOR, "exceptions[-1].tag_bits", "exceptions[0].tag_bits",
     "REG_TAG_OUT holds the last denial's tag bits"),
    ("M43", MONITOR, "if word & 1:", "if word & 2:",
     "bit 0 of a REG_STATUS write clears the queue"),
    ("M44", MONITOR, "    state.exceptions.clear()\n    return drained", "    return drained",
     "drain_exceptions empties the queue"),
    ("M45", MONITOR, "state.exceptions += exceptions", "state.exceptions += exceptions[:1]",
     "record queues every denial of a run"),
    # The survivors of the first run-level probe, each with its own test.
    ("M46", SIMULATOR, "if bad or denied:", "if bad:",
     "fuzz closure counts a checkpoint's denial"),
    ("M47", SIMULATOR, "mask = itertools.repeat((1 << k.tag_width) - 1)", "mask = itertools.repeat(-1)",
     "an input tag is cut to the kernel's tag width"),
    ("M48", SIMULATOR, "if tag != otag:", "if tag & ~otag:",
     "check reports an optimized output tag that gains bits"),
    ("M49", SIMULATOR, "if halted != opt_halted:", "if False:",
     "check reports a pass after which only one kernel halts"),
    # The rest of the run-level seed list.
    ("M50", SIMULATOR, "runs = [(zero_inputs, zero_memories, rule) for rule in rules]",
     "runs = [(zero_inputs, k.plan.memory_tags, rule) for rule in rules]",
     "fuzz closure runs start every memory from zero tags"),
    ("M51", SIMULATOR, "trap = _execute(k, vals, walked, stop)", "trap = _execute(k, vals, walked)",
     "a replay extends its value pass only to the step it stops at"),
    # DOT escaping is decided once per kernel, over every string it writes.
    ("M52", DOT, "            chain.from_iterable(map(itemgetter(2), k.nodes)),\n", "",
     "emit_dot escapes a node argument that names no declaration"),
    ("M53", DOT, "            chain.from_iterable(k.outputs),\n", "",
     "emit_dot escapes an output's id and source"),
    ("M54", DOT, "            (k.name,),\n", "", "emit_dot escapes the kernel name"),
]
# Tier-1 but for tests/test_mutants.py, whose check of the old texts every
# mutant fails.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
MEMORY_BYTES = 2 << 30
TIMEOUT_S = 600


def git(*argv: str) -> bytes:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, check=True).stdout


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_mutant(archive: bytes, entry: tuple | None) -> str:
    """Tier-1's verdict on one mutant, or with no entry on archive as it
    is, in a fresh copy of archive: "survived" if it passed, else "killed
    by" the first failing test, "killed (timeout)" or "killed (exit N)"."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        if entry is not None:
            _, file, old, new, _ = entry
            path = Path(tmp) / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            p = subprocess.run(TIER1, cwd=tmp, env=env, capture_output=True, text=True,
                               timeout=TIMEOUT_S, preexec_fn=cap_memory)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    if p.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in p.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return f"killed by {failed[0]}" if failed else f"killed (exit {p.returncode})"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--rev", default="HEAD")
    ap.add_argument("--only", help="comma-separated entry names, e.g. M23,M52")
    args = ap.parse_args(argv)
    chosen = MUTANTS
    if args.only is not None:
        names = args.only.split(",")
        unknown = sorted(set(names) - {entry[0] for entry in MUTANTS})
        if unknown:
            print(f"unknown mutants: {' '.join(unknown)}")
            return 2
        chosen = [entry for entry in MUTANTS if entry[0] in names]
    sha = git("rev-parse", "--verify", args.rev + "^{commit}").decode().strip()
    archive = git("archive", "--format=tar", sha)
    for name, file, old, _, _ in MUTANTS:
        count = git("show", f"{sha}:{file}").decode().count(old)
        if count != 1:
            print(f"{name}: old text occurs {count} times in {file} at {sha[:12]}, not once")
            return 2
    control = run_mutant(archive, None)
    if control != "survived":
        print(f"tier-1 fails at {sha[:12]} without a mutant: {control}")
        return 2
    print(f"# {len(chosen)} mutants on {sha[:12]}, whose tier-1 passes", flush=True)
    survived = []
    for entry in chosen:
        started = time.monotonic()
        verdict = run_mutant(archive, entry)
        print(f"{entry[0]:4} {time.monotonic() - started:5.1f}s  {entry[1]}: {entry[4]}: "
              f"{verdict}", flush=True)
        if verdict == "survived":
            survived.append(entry[0])
    print(f"killed {len(chosen) - len(survived)}/{len(chosen)}"
          + (f"; survived: {' '.join(survived)}" if survived else ""))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
