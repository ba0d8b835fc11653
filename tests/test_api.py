"""The package's public surface, and where the checked tagged layer lives."""

import ast
import types
from pathlib import Path

import diftsim

PACKAGE = Path(diftsim.__file__).resolve().parent

PUBLIC_NAMES = [
    "ArityMismatch", "BINARY_OPS", "BadAddress", "BitType", "BitValue", "COMPARE_OPS",
    "CheckpointDecl", "CoarseBoundary", "ConsistencyReport", "ConstDecl", "Counterexample",
    "Diagnostic", "DiftConfig", "DiftError", "DiftValue", "DivisionByZero", "EvalError",
    "FineGrained", "InputDecl", "InstrumentedGraph", "InvalidType", "Kernel", "MemoryDecl",
    "Mismatch", "MonitorState", "Node", "OpKind", "OutOfBoundsAddress", "OutputDecl", "Policy",
    "PolicyKind", "PropagationRule", "PropertyReport", "REG_EXC_COUNT", "REG_STATUS",
    "REG_TAG_IN", "REG_TAG_OUT", "RunInputs", "SecurityException", "SimulationReport", "Tag",
    "TypeMismatch", "UNARY_OPS", "VALUE_OPS", "WidthMismatch", "WidthTooLarge", "apply_binop",
    "check_consistency", "checkpoint", "const_fold", "dead_code_elim", "drain_exceptions",
    "emit_dot", "eval_binop", "fixture_path", "fuzz_properties", "has_errors",
    "independence_oracle", "inputs_to_json", "instrument", "parse_inputs", "parse_kernel",
    "propagate", "reg_read", "reg_write", "run_baseline", "run_dift", "sample_inputs", "to_int",
    "validate",
]


def test_public_names_are_pinned():
    names = [
        n for n in dir(diftsim)
        if not n.startswith("_") and not isinstance(getattr(diftsim, n), types.ModuleType)
    ]
    assert len(PUBLIC_NAMES) == 70
    assert names == sorted(PUBLIC_NAMES)


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
