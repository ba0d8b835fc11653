"""Dynamic information flow tracking for straight-line dataflow kernels.

The toolkit pairs bit-accurate values with taint tags, propagates tags
through every operator under a selectable rule, watches declared
checkpoints with a policy monitor, and ships a simulator plus compiler
passes that provably preserve values, tags, and the exception sequence.
Two known defects, open in ROADMAP.md, are the exceptions until they are
fixed: dead_code_elim drops a dead node that traps, and const_fold can
reorder coarse-mode exceptions. Strict xfail tests in
tests/test_kernel_ir.py pin both.
"""

from .bitvalue import (
    BINARY_OPS,
    COMPARE_OPS,
    UNARY_OPS,
    VALUE_OPS,
    BitType,
    BitValue,
    OpKind,
    to_int,
)
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
    WidthTooLarge,
)
from .kernel_ir import (
    CheckpointDecl,
    ConstDecl,
    Diagnostic,
    InputDecl,
    InstrumentedGraph,
    Kernel,
    MemoryDecl,
    Node,
    OutputDecl,
    const_fold,
    dead_code_elim,
    emit_dot,
    has_errors,
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
    checkpoint,
    drain_exceptions,
    reg_read,
    reg_write,
)
from .simulator import (
    ConsistencyReport,
    Counterexample,
    Mismatch,
    PropertyReport,
    RunInputs,
    SimulationReport,
    check_consistency,
    fuzz_properties,
    independence_oracle,
    inputs_to_json,
    parse_inputs,
    run_baseline,
    run_dift,
    sample_inputs,
)
from .taint import CoarseBoundary, DiftConfig, FineGrained, PropagationRule
from .tainted import DiftValue, Tag, apply_binop, eval_binop, propagate

__version__ = "0.1.0"


def fixture_path(name: str):
    """Path to one of the shipped demo kernels or inputs files."""
    from importlib import resources  # imported lazily: no CLI command needs it

    return resources.files(__name__) / "fixtures" / name
