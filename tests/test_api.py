"""The package's public surface, and where the checked tagged layer lives."""

import ast
import dis
import importlib
import inspect
import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import diftsim
from diftsim import bitvalue, dot, kernel_ir, policy_monitor, simulator, taint

PACKAGE = Path(diftsim.__file__).resolve().parent
BENCHMARKS = PACKAGE.parent.parent / "benchmarks"

PUBLIC_NAMES = [
    "ArityMismatch", "BadAddress", "BitType", "BitValue", "CheckpointDecl", "CoarseBoundary",
    "ConsistencyReport", "ConstDecl", "Diagnostic", "DiftConfig", "DiftError", "DiftValue",
    "DivisionByZero", "EvalError", "FineGrained", "InputDecl", "InvalidType", "Kernel",
    "MemoryDecl", "MonitorState", "Node", "OpKind", "OutOfBoundsAddress", "OutputDecl", "Policy",
    "PolicyKind", "PropagationRule", "PropertyReport", "REG_EXC_COUNT", "REG_STATUS",
    "REG_TAG_IN", "REG_TAG_OUT", "RunInputs", "SecurityException", "SimulationReport", "Tag",
    "TypeMismatch", "WidthMismatch", "apply_binop", "check_consistency", "const_fold",
    "dead_code_elim", "drain_exceptions", "emit_dot", "eval_binop", "fixture_path",
    "fuzz_properties", "inputs_to_json", "instrument", "parse_inputs", "parse_kernel",
    "propagate", "reg_read", "reg_write", "run_baseline", "run_dift", "sample_inputs", "validate",
]
# Names no caller reads from the package, each still at home in its module.
UNEXPORTED = {
    "bitvalue": ["BINARY_OPS", "COMPARE_OPS", "UNARY_OPS", "VALUE_OPS"],
    "kernel_ir": ["InstrumentedGraph", "has_errors"],
    "policy_monitor": ["checkpoint"],
    "simulator": ["Counterexample", "Mismatch"],
}


def test_public_names_are_pinned():
    names = [
        n for n in dir(diftsim)
        if not n.startswith("_") and not isinstance(getattr(diftsim, n), types.ModuleType)
    ]
    assert len(PUBLIC_NAMES) == 58
    assert names == sorted(PUBLIC_NAMES)
    for home, unexported in UNEXPORTED.items():
        module = importlib.import_module(f"diftsim.{home}")
        assert all(hasattr(module, n) and not hasattr(diftsim, n) for n in unexported)
    assert not hasattr(diftsim, "to_int") and not hasattr(bitvalue, "to_int")


def benchmark_reads() -> tuple[set[str], set[tuple[str, str]]]:
    """What benchmarks/*.py reads of the package: the names it takes from
    diftsim (as ds.<name>, self.ds.<name> or by "from diftsim import"),
    and the (home module, name) pairs of spans.TRACED."""
    names, traced = set(), set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "ds"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "ds"
            ):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "diftsim":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
                traced.update(ast.literal_eval(node.value))
    return names, traced


# What the benchmark still reads that item 3 of ROADMAP.md would delete or
# fold: the checked tagged layer, the two mode types and the single-
# observation checkpoint. Benchmark v2 (item 2) unpins them.
PINNED_FOR_ITEM_3 = {
    "Tag", "DiftValue", "eval_binop", "propagate", "apply_binop", "FineGrained", "CoarseBoundary",
}


def test_every_name_the_benchmark_reads_resolves():
    importlib.import_module("diftsim.cli")  # as the benchmark's import_diftsim does
    names, traced = benchmark_reads()
    assert {"run_dift", "simulator", "RunInputs"} <= names and len(traced) == 12
    assert [n for n in sorted(names) if not hasattr(diftsim, n)] == []
    missing = [
        (home, n) for home, n in sorted(traced)
        if not hasattr(importlib.import_module(f"diftsim.{home}"), n)
    ]
    assert missing == []
    assert PINNED_FOR_ITEM_3 <= names and ("policy_monitor", "checkpoint") in traced


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_the_package_init_imports_tainted():
    importers = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if (
                    module.split(".")[-1] == "tainted"
                    or any(alias.name == "tainted" for alias in node.names)
                ):
                    importers.add(name)
            elif isinstance(node, ast.Import):
                if any(alias.name.split(".")[-1] == "tainted" for alias in node.names):
                    importers.add(name)
    assert importers == {"__init__.py"}


def test_only_tainted_defines_or_uses_tag():
    users, importers = set(), set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name) and node.id == "Tag"
                or isinstance(node, ast.Attribute) and node.attr == "Tag"
                or isinstance(node, ast.ClassDef) and node.name == "Tag"
            ):
                users.add(name)
            elif isinstance(node, ast.ImportFrom) and any(a.name == "Tag" for a in node.names):
                importers.add((name, node.module))
    assert users == {"tainted.py"}
    assert importers == {("__init__.py", "tainted")}


def fresh(code: str):
    """What code prints as JSON, run in a new interpreter without site
    packages that finds the package through PYTHONPATH, as the CLI does."""
    code = "import json, sys\n" + textwrap.dedent(code)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


LOADED = "[m for m in sys.modules if m.startswith('diftsim')]"


def test_the_cli_loads_neither_the_simulator_nor_tainted():
    loaded = fresh(f"import diftsim.cli\nprint(json.dumps({LOADED}))")
    assert "diftsim.cli" in loaded
    assert "diftsim.simulator" not in loaded and "diftsim.tainted" not in loaded


def test_only_instrument_loads_the_dot_renderer():
    fir4, inputs = (str(diftsim.fixture_path(n)) for n in ("fir4.json", "fir4_inputs.json"))
    commands = [
        ["run", fir4, inputs], ["check", fir4, "--samples", "5"], ["fuzz", fir4, "--trials", "5"],
        ["instrument", fir4],
    ]
    loaded = fresh(f"""
        import contextlib, io
        from diftsim.cli import main
        loaded = []
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            loaded.append([argv[0], code, "diftsim.dot" in sys.modules])
        print(json.dumps(loaded))
    """)
    assert loaded == [
        ["run", 10, False], ["check", 0, False], ["fuzz", 0, False], ["instrument", 0, True],
    ]


NAMES = [*PUBLIC_NAMES, "simulator", "tainted"]


def test_dir_lists_every_name_and_loads_nothing():
    listed, loaded = fresh(f"import diftsim\nprint(json.dumps([dir(diftsim), {LOADED}]))")
    assert set(NAMES) <= set(listed)
    assert "diftsim.simulator" not in loaded and "diftsim.tainted" not in loaded


@pytest.mark.parametrize("first", ["attribute", "from_import"])
def test_every_name_resolves_by_attribute_and_by_from_import(first):
    # Each way first in a new interpreter, then the other: both give the
    # object the name's home module holds.
    by_attribute = "got = {n: getattr(diftsim, n) for n in names}"
    by_import = f"from diftsim import {', '.join(NAMES)}; imported = {{n: globals()[n] for n in names}}"
    homes = fresh(f"""
        import diftsim
        names = {NAMES!r}
        {by_attribute if first == "attribute" else by_import}
        {by_import if first == "attribute" else by_attribute}
        assert all(got[n] is imported[n] for n in names)
        print(json.dumps({{
            n: v.__name__ if isinstance(v, type(sys)) else getattr(v, "__module__", None)
            for n, v in got.items()
        }}))
    """)
    assert homes["simulator"] == "diftsim.simulator" and homes["tainted"] == "diftsim.tainted"
    assert homes["run_dift"] == homes["RunInputs"] == "diftsim.simulator"
    assert homes["Tag"] == homes["propagate"] == "diftsim.tainted"
    assert homes["parse_kernel"] == "diftsim.kernel_ir"


def test_a_star_import_binds_every_name():
    bound = fresh("from diftsim import *\nprint(json.dumps(sorted(globals())))")
    assert set(NAMES) <= set(bound)


def test_the_benchmark_tracer_leaves_no_shim_in_the_package():
    # The traced benchmark run shims the package's names too: one the
    # package resolves lazily must get its original back when the tracer
    # leaves, as an eager one does.
    exported, unshimmed, left, in_package = fresh(f"""
        sys.path.insert(0, {str(BENCHMARKS)!r})
        from spans import TRACED, Tracer
        import diftsim, diftsim.cli, diftsim.simulator
        homes = {{n: sys.modules["diftsim." + home] for home, n in TRACED}}
        originals = {{n: getattr(homes[n], n) for n in homes}}
        exported = {{n: fn for n, fn in originals.items() if n in dir(diftsim)}}
        with Tracer().installed(0):
            unshimmed = [n for n, fn in originals.items() if getattr(homes[n], n) is fn]
            unshimmed += [n for n, fn in exported.items() if getattr(diftsim, n) is fn]
        left = [n for n, fn in exported.items() if vars(diftsim).get(n, fn) is not fn]
        left += [n for n, fn in exported.items() if getattr(diftsim, n) is not fn]
        left += [n for n, fn in originals.items() if getattr(homes[n], n) is not fn]
        print(json.dumps([sorted(exported), unshimmed, left, hasattr(diftsim, "checkpoint")]))
    """)
    # checkpoint is traced on its home module only: the package does not export it.
    assert "checkpoint" not in exported and len(exported) == len(benchmark_reads()[1]) - 1
    assert unshimmed == [] and left == [] and not in_package


# The code that runs per node, per lowered signature or per run. On
# CPython 3.11 a read such as OpKind.STORE goes through EnumType's
# __getattr__ hook, about ten times the cost of a global read, so these
# compare against the members that bitvalue, taint and policy_monitor
# bind as module constants.
PER_NODE = [
    kernel_ir.parse_kernel, kernel_ir.validate, kernel_ir.const_fold, kernel_ir.dead_code_elim,
    dot.emit_dot, kernel_ir.lower, bitvalue.value_fn, taint.tag_fn, simulator._track,
    simulator.fuzz_properties, policy_monitor.Policy.denied_bits.func,
]
ENUMS = {"OpKind", "PropagationRule", "PolicyKind"}


def _enum_member_reads(code: types.CodeType) -> list[str]:
    """Each global enum class in ENUMS that code, or code nested in it,
    loads and then reads an attribute of."""
    found = []
    instructions = list(dis.get_instructions(code))
    for load, read in zip(instructions, instructions[1:]):
        if load.opname == "LOAD_GLOBAL" and load.argval in ENUMS and read.opname in (
            "LOAD_ATTR", "LOAD_METHOD"
        ):
            found.append(f"{code.co_name}: {load.argval}.{read.argval}")
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            found += _enum_member_reads(const)
    return found


def test_the_per_node_code_reads_no_enum_member_through_its_class():
    # A wrapped function (parse_kernel, lower) is read through its wrapper.
    reads = [read for fn in PER_NODE for read in _enum_member_reads(inspect.unwrap(fn).__code__)]
    assert reads == []


# Tests compare runs with the reference model through the public API. A
# test may read a private simulator name only to observe or inject what no
# public result shows, and only the name it is listed with here.
PRIVATE_READS = {
    ("test_simulator", "test_halting_runs_walk_no_value_past_their_deny"): {"_execute"},
    ("test_simulator", "test_fuzz_passes_trials_that_trap_alike"): {"_values"},
    ("test_api", "PER_NODE"): {"_track"},
}


def private_simulator_reads(module: str, source: str) -> list[tuple[str, str, str]]:
    """(module, place, name) for each _-prefixed name of diftsim.simulator
    that source reads: as an attribute of the module, by a from-import, or
    as a string beside the module in a call (getattr, monkeypatch.setattr).
    The place is the top-level function, class or assigned name it is in."""
    tree = ast.parse(source)
    aliases = set()  # the names source binds to the simulator module
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module_name = getattr(node, "module", None)
            for alias in node.names:
                if (module_name, alias.name) == ("diftsim", "simulator") or (
                    alias.name == "diftsim.simulator" and alias.asname
                ):
                    aliases.add(alias.asname or alias.name)

    def is_simulator(node) -> bool:
        return isinstance(node, ast.Name) and node.id in aliases or (
            ast.unparse(node) == "diftsim.simulator"
        )

    found = []
    for top in tree.body:
        place = getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0])
        for node in ast.walk(top):
            names = []
            if isinstance(node, ast.Attribute) and is_simulator(node.value):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "diftsim.simulator":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Call) and any(map(is_simulator, node.args)):
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
            found += [
                (module, place, name) for name in names
                if isinstance(name, str) and name.startswith("_") and not name.startswith("__")
            ]
    return found


def test_no_test_reads_a_private_simulator_name_outside_its_allowance():
    found = [
        read
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for read in private_simulator_reads(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert found, "the scan finds the allowed reads"
    assert [read for read in found if read[2] not in PRIVATE_READS.get(read[:2], ())] == []
    # A walker that replays the simulator's own value pass is refused.
    walker = textwrap.dedent("""
        def fired_in_order(k, ri):
            from diftsim import simulator
            return simulator._values(k, ri)[0]
    """)
    assert private_simulator_reads("t", walker) == [("t", "fired_in_order", "_values")]
