"""Dynamic information flow tracking for straight-line dataflow kernels.

The toolkit pairs bit-accurate values with taint tags, propagates tags
through every operator under a selectable rule, watches declared
checkpoints with a policy monitor, and ships a simulator plus compiler
passes that provably preserve values, tags, and the exception sequence.
Two known defects, open in ROADMAP.md, are the exceptions until they
are fixed: dead_code_elim drops a dead node that traps, and a store at a
tainted address leaks under both rules (it leaves the other cells' tags
unchanged, and the precise store drops the address tag, a kill no test
validates). The strict xfail test_dce_keeps_dead_division_that_traps in
tests/test_kernel_ir.py pins the first, and
test_a_store_at_a_tainted_address_is_noninterfering in
tests/test_simulator.py the second; this note goes when each is fixed.
"""

from .bitvalue import BitType, BitValue, OpKind
from .errors import (
    ArityMismatch,
    BadAddress,
    DiftError,
    DivisionByZero,
    EvalError,
    InvalidType,
    OutOfBoundsAddress,
    TypeMismatch,
    WidthMismatch,
)
from .kernel_ir import (
    CheckpointDecl,
    ConstDecl,
    Diagnostic,
    InputDecl,
    Kernel,
    MemoryDecl,
    Node,
    OutputDecl,
    const_fold,
    dead_code_elim,
    emit_dot,
    instrument,
    parse_kernel,
    validate,
)
from .policy_monitor import (
    REG_EXC_COUNT,
    REG_STATUS,
    REG_TAG_IN,
    REG_TAG_OUT,
    MonitorState,
    Policy,
    PolicyKind,
    SecurityException,
    drain_exceptions,
    reg_read,
    reg_write,
)
from .taint import CoarseBoundary, DiftConfig, FineGrained, PropagationRule

__version__ = "0.1.0"

# The simulator and tainted exports, and those two modules, are resolved
# on first access by __getattr__, so instrument and --help never import
# the simulator and no command imports tainted.
_SIMULATOR = frozenset({
    "simulator", "ConsistencyReport", "PropertyReport", "RunInputs", "SimulationReport",
    "check_consistency", "fuzz_properties", "inputs_to_json", "parse_inputs", "run_baseline",
    "run_dift", "sample_inputs",
})
_TAINTED = frozenset({"tainted", "DiftValue", "Tag", "apply_binop", "eval_binop", "propagate"})


def __getattr__(name: str):
    # "from .simulator import", not "from . import simulator": the latter
    # asks the package for the module first, which would call back here.
    if name in _SIMULATOR:
        from .simulator import (
            ConsistencyReport, PropertyReport, RunInputs, SimulationReport, check_consistency,
            fuzz_properties, inputs_to_json, parse_inputs, run_baseline, run_dift, sample_inputs,
        )
    elif name in _TAINTED:
        from .tainted import DiftValue, Tag, apply_binop, eval_binop, propagate
    elif name == "__all__":  # what "from diftsim import *" binds: every public name
        return [n for n in __dir__() if not n.startswith("_")]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    resolved = locals()
    del resolved["name"]
    globals().update(resolved)  # the import itself bound the module here
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SIMULATOR | _TAINTED)


def fixture_path(name: str):
    """Path to one of the shipped demo kernels or inputs files."""
    from importlib import resources  # imported lazily: no CLI command needs it

    return resources.files(__name__) / "fixtures" / name
