"""Command-line entry point: run, instrument, check, fuzz.

Exit codes: 0 success / no deny, 10 at least one security exception,
1 usage error, 2 parse or validation failure, an unreadable input, a
memory override longer than its memory, or an unwritable output path,
3 evaluation error (division by zero, out-of-bounds address). 2 and 3
preempt 10.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DiftError, EvalError
from .kernel_ir import (
    Diagnostic,
    Kernel,
    const_fold,
    dead_code_elim,
    emit_dot,
    instrument,
    parse_kernel,
)
from .simulator import (
    RunInputs,
    check_configs,
    fuzz_properties,
    inputs_to_json,
    parse_inputs,
    run_dift,
)
from .taint import CoarseBoundary, DiftConfig, FineGrained, PropagationRule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_EVAL = 3
EXIT_SECURITY = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the exit table says 1.
    def error(self, message):
        raise _UsageError(message)


class _InvalidInput(Exception):
    pass


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d, file=sys.stderr)


def _read_file(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _InvalidInput(f"error: {path}: no such file")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _InvalidInput(f"error: {path}: not UTF-8 text") from None


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _InvalidInput(f"error: {path}: cannot write ({e.strerror or e})") from None


def _count(text: str) -> int:
    """argparse type of --samples and --trials: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _load_kernel(path: str) -> Kernel:
    kernel, diags = parse_kernel(_read_file(path))
    _print_diags(diags)
    if kernel is None:
        raise _InvalidInput(f"error: {path}: kernel is invalid")
    return kernel


def _load_inputs(path: str) -> RunInputs:
    inputs, diags = parse_inputs(_read_file(path))
    _print_diags(diags)
    if inputs is None:
        raise _InvalidInput(f"error: {path}: inputs file is invalid")
    return inputs


def _make_config(kernel: Kernel, mode: str, rule: str, on_exception: str) -> DiftConfig:
    if mode == "coarse":
        return DiftConfig(kernel.tag_width, CoarseBoundary(), on_exception)
    return DiftConfig(kernel.tag_width, FineGrained(PropagationRule(rule)), on_exception)


def cmd_run(args) -> int:
    kernel = _load_kernel(args.kernel)
    inputs = _load_inputs(args.inputs)
    diags: list[Diagnostic] = []
    if args.optimize:
        kernel = dead_code_elim(const_fold(kernel, diags))
    cfg = _make_config(kernel, args.mode, args.rule, args.on_exception)
    report = run_dift(kernel, inputs, cfg, diags=diags)
    _print_diags(diags)
    text = report.to_json()
    if args.report:
        _write_file(args.report, text)
    else:
        sys.stdout.write(text)
    print(
        f"run {kernel.name}: outputs={len(report.outputs)} "
        f"exceptions={len(report.exceptions)} irq={str(report.irq).lower()} "
        f"steps={report.steps_executed}"
    )
    return EXIT_SECURITY if report.exceptions else EXIT_OK


def cmd_instrument(args) -> int:
    kernel = _load_kernel(args.kernel)
    cfg = DiftConfig(kernel.tag_width, FineGrained(PropagationRule.UNION))
    dot = emit_dot(instrument(kernel, cfg))
    if args.emit_dot:
        _write_file(args.emit_dot, dot)
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_check(args) -> int:
    kernel = _load_kernel(args.kernel)
    configs = [
        _make_config(kernel, "fine", "union", "record"),
        _make_config(kernel, "fine", "precise", "record"),
        _make_config(kernel, "coarse", "union", "record"),
    ]
    total = 0
    for report in check_configs(kernel, configs, args.samples, args.seed):
        print(report.summary())
        for m in report.mismatches[:10]:
            print(f"  sample {m.sample} [{m.kind}]: {m.detail}", file=sys.stderr)
        total += len(report.mismatches)
    print(f"check {kernel.name}: total mismatches={total}")
    return EXIT_OK if total == 0 else EXIT_INVALID


def cmd_fuzz(args) -> int:
    kernel = _load_kernel(args.kernel)
    report = fuzz_properties(kernel, args.trials, args.seed)
    for i, cex in enumerate(report.counterexamples, start=1):
        print(f"counterexample {i}: property={cex.property} trial={cex.trial} {cex.detail}")
        sys.stdout.write(inputs_to_json(cex.inputs))
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diftsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a kernel with tracking and write a report")
    p_run.add_argument("kernel")
    p_run.add_argument("inputs")
    p_run.add_argument("--mode", choices=["fine", "coarse"], default="fine")
    p_run.add_argument("--rule", choices=["union", "precise"], default="union")
    p_run.add_argument("--on-exception", choices=["record", "halt"], default="record")
    p_run.add_argument("--optimize", action="store_true")
    p_run.add_argument("--report", metavar="PATH")
    p_run.set_defaults(func=cmd_run)

    p_inst = sub.add_parser("instrument", help="emit the instrumented graph as DOT")
    p_inst.add_argument("kernel")
    p_inst.add_argument("--emit-dot", metavar="PATH")
    p_inst.set_defaults(func=cmd_instrument)

    p_check = sub.add_parser("check", help="differential consistency check")
    p_check.add_argument("kernel")
    p_check.add_argument("--samples", type=_count, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="property fuzzing with seeded trials")
    p_fuzz.add_argument("kernel")
    p_fuzz.add_argument("--trials", type=_count, default=200)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _InvalidInput as e:
        print(e, file=sys.stderr)
        return EXIT_INVALID
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_EVAL
    except DiftError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
