import json
import os
import pathlib
import subprocess
import sys

import pytest

import diftsim.taint
from diftsim import (
    DiftConfig,
    FineGrained,
    PropagationRule,
    fixture_path,
    fuzz_properties,
    inputs_to_json,
    parse_kernel,
    run_dift,
)
from diftsim.cli import main
from diftsim.kernel_ir import MAX_MEMORY_CELLS, has_errors
from conftest import load_kernel, tainting_tag_fn

FIR4 = str(fixture_path("fir4.json"))
DOT8 = str(fixture_path("dot8.json"))
OVERFLOW = str(fixture_path("overflow_demo.json"))
OVERFLOW_TAINTED = str(fixture_path("overflow_tainted.json"))
OVERFLOW_CLEAN = str(fixture_path("overflow_clean.json"))
DOT8_INPUTS = str(fixture_path("dot8_inputs.json"))
FIR4_INPUTS = str(fixture_path("fir4_inputs.json"))


def test_run_tainted_overflow_exits_10(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["run", OVERFLOW, OVERFLOW_TAINTED, "--report", str(report)])
    assert code == 10
    doc = json.loads(report.read_text())
    assert len(doc["exceptions"]) == 1
    assert doc["exceptions"][0]["checkpoint"] == "cp_addr"
    summary = capsys.readouterr().out.strip()
    assert summary == "run overflow_demo: outputs=2 exceptions=1 irq=true steps=5"


def test_run_without_report_prints_json(capsys):
    code = main(["run", OVERFLOW, OVERFLOW_CLEAN])
    assert code == 0
    out = capsys.readouterr().out
    body, summary = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    assert json.loads(body)["irq"] is False
    assert summary.startswith("run overflow_demo:")


def test_malformed_kernel_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "name": ???\n}')
    assert main(["run", str(bad), OVERFLOW_CLEAN]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_file_exits_2(capsys):
    # A path that goes on through a regular file is just as missing.
    for path in ("/nonexistent/kernel.json", f"{OVERFLOW}/kernel.json"):
        assert main(["run", path, OVERFLOW_CLEAN]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: no such file\n")


def test_unreadable_file_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # A directory, or a device such as /dev/null, is not a kernel file.
    for path in (str(tmp_path), os.devnull):
        assert main(["run", path, OVERFLOW_CLEAN]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: cannot read (not a regular file)\n")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(pathlib.Path, "read_text", denied)
    assert main(["run", OVERFLOW, OVERFLOW_CLEAN]) == 2
    assert capsys.readouterr() == ("", f"error: {OVERFLOW}: cannot read (Permission denied)\n")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["run", str(bad), OVERFLOW_CLEAN]) == 2
    assert main(["run", OVERFLOW, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("not UTF-8 text") == 2


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["run", str(deep), OVERFLOW_CLEAN]) == 2
    assert main(["run", OVERFLOW, str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.count("nested too deeply") == 2


@pytest.mark.parametrize("which", ["kernel", "inputs"])
def test_an_overlong_integer_literal_exits_2(tmp_path, which):
    # json.loads refuses an integer of more than 4300 digits (int's default
    # digit limit) with a plain ValueError, not a JSONDecodeError.
    kernel, inputs = (json.loads(pathlib.Path(p).read_text()) for p in (FIR4, FIR4_INPUTS))
    if which == "kernel":
        kernel["constants"][0]["value"] = "LONG"
    else:
        inputs["values"]["x0"] = "LONG"
    paths = []
    for name, doc in (("kernel.json", kernel), ("inputs.json", inputs)):
        path = tmp_path / name
        path.write_text(json.dumps(doc).replace('"LONG"', "7" * 5000))
        paths.append(str(path))
    argvs = [["run", *paths]] + ([["instrument", paths[0]]] if which == "kernel" else [])
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "diftsim", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(
            f"error: {which}: invalid JSON: integer literal has too many digits\n"
        )


def test_oversized_memory_exits_2(tmp_path, capsys):
    # Rejected at parse time, before any run or sample allocates the cells.
    doc = json.loads(pathlib.Path(OVERFLOW).read_text())
    for size in (2**20 + 1, 2**40):
        doc["memories"][0]["size"] = size
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        kernel, diags = parse_kernel(big.read_text())
        assert kernel is None
        assert [str(d) for d in diags] == [
            f"error: buf: memory size must be at most {MAX_MEMORY_CELLS}"
        ]
        for argv in (["run", str(big), OVERFLOW_CLEAN], ["check", str(big)], ["fuzz", str(big)]):
            assert main(argv) == 2
            assert str(diags[0]) in capsys.readouterr().err
    doc["memories"][0]["size"] = MAX_MEMORY_CELLS
    kernel, diags = parse_kernel(json.dumps(doc))
    assert kernel is not None and not has_errors(diags)


@pytest.mark.parametrize("text, message", [
    ("[1]", "inputs: top-level document must be an object"),
    ('{"memory": [1]}', "memory: memory must map ids to lists"),
    ('{"memory": {"a": [1, true]}}', "memory: a must be a list of integers"),
    ('{"memory": {"a": 5}}', "memory: a must be a list of integers"),
])
def test_bad_inputs_document_exits_2(tmp_path, capsys, text, message):
    inputs = tmp_path / "i.json"
    inputs.write_text(text)
    assert main(["run", OVERFLOW, str(inputs)]) == 2
    assert capsys.readouterr().err == f"error: {message}\nerror: {inputs}: inputs file is invalid\n"


def test_usage_error_exits_1(capsys):
    assert main(["run", OVERFLOW, OVERFLOW_CLEAN, "--mode", "psychic"]) == 1
    assert main(["frobnicate"]) == 1


DIVZERO = {
    "name": "divzero",
    "tag_width": 2,
    "inputs": [
        {"id": "a", "width": 4, "signed": False},
        {"id": "b", "width": 4, "signed": False},
    ],
    "nodes": [{"id": "q", "op": "div", "args": ["a", "b"], "width": 4, "signed": False}],
    "outputs": [{"id": "out", "source": "q"}],
}


def test_eval_error_exits_3(tmp_path, capsys):
    kernel = tmp_path / "k.json"
    kernel.write_text(json.dumps(DIVZERO))
    inputs = tmp_path / "i.json"
    inputs.write_text('{"values": {"a": 1, "b": 0}}')
    assert main(["run", str(kernel), str(inputs)]) == 3
    assert "evaluation error" in capsys.readouterr().err


def test_memory_override_longer_than_memory_exits_2(tmp_path, capsys):
    inputs = tmp_path / "i.json"
    inputs.write_text(json.dumps({"values": {"idx": 1, "val": 2}, "memory": {"buf": [0] * 33}}))
    assert main(["run", OVERFLOW, str(inputs)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: memory override for buf has 33 cells, size is 8\n"


def test_optimize_flag_matches_unoptimized(tmp_path):
    plain, opt = tmp_path / "plain.json", tmp_path / "opt.json"
    assert main(["run", DOT8, DOT8_INPUTS, "--report", str(plain)]) == 10
    assert main(["run", DOT8, DOT8_INPUTS, "--optimize", "--report", str(opt)]) == 10
    a, b = json.loads(plain.read_text()), json.loads(opt.read_text())
    assert a["outputs"] == b["outputs"]
    assert a["irq"] == b["irq"]
    # the optimizer removed nodes, so the step count shrinks
    assert b["steps"] < a["steps"]


def test_instrument_matches_golden_and_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert main(["instrument", FIR4, "--emit-dot", str(out1)]) == 0
    assert main(["instrument", FIR4, "--emit-dot", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "fir4_instrumented.dot"
    assert out1.read_text() == golden.read_text()
    assert main(["instrument", FIR4]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_instrument_invalid_kernel_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "tag_width": 2, "mystery": []}')
    assert main(["instrument", str(bad)]) == 2


def test_instrument_unwritable_dot_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "fir4.dot"
    assert main(["instrument", FIR4, "--emit-dot", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {missing}: cannot write (") and err.endswith(")\n")
    assert err.count("\n") == 1


def test_run_unwritable_report_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    assert main(["run", OVERFLOW, OVERFLOW_TAINTED, "--report", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {missing}: cannot write (") and err.endswith(")\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", FIR4, "--samples", "-3"], "argument --samples: must be at least 1, got -3"),
        (["check", FIR4, "--samples", "0"], "argument --samples: must be at least 1, got 0"),
        (["fuzz", FIR4, "--trials", "-2"], "argument --trials: must be at least 1, got -2"),
        (["fuzz", FIR4, "--trials", "two"], "argument --trials: invalid int value: 'two'"),
    ],
)
def test_counts_below_one_are_usage_errors(argv, message, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_check_exits_0_with_stable_summary(capsys):
    assert main(["check", FIR4, "--samples", "50", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["check", FIR4, "--samples", "50", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    assert "check fir4 mode=fine rule=union: samples=50 mismatches=0" in first
    assert "check fir4 mode=coarse rule=-: samples=50 mismatches=0" in first
    assert "total mismatches=0" in first


@pytest.mark.parametrize("doc_name", ["DEAD_DIVISION_DOC", "FOLDED_CHECKPOINT_DOC"])
def test_check_prints_the_single_configuration_summaries(
    doc_name, tmp_path, capsys, defective_passes
):
    # check shares each sample among its three configurations; it prints
    # what three separate check_consistency calls report. The defective
    # passes give it mismatches to print.
    import test_kernel_ir
    from diftsim import CoarseBoundary, check_consistency

    doc = getattr(test_kernel_ir, doc_name)
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(doc))
    kernel, _ = parse_kernel(json.dumps(doc))
    out, err, total = [], [], 0
    for mode in (*map(FineGrained, PropagationRule), CoarseBoundary()):
        report = check_consistency(kernel, DiftConfig(kernel.tag_width, mode), 80, 7)
        out.append(report.summary())
        err += [f"  sample {m.sample} [{m.kind}]: {m.detail}" for m in report.mismatches[:10]]
        total += len(report.mismatches)
    assert total > 0
    out.append(f"check {kernel.name}: total mismatches={total}")
    assert main(["check", str(path), "--samples", "80", "--seed", "7"]) == 2
    printed = capsys.readouterr()
    assert (printed.out.splitlines(), printed.err.splitlines()) == (out, err)


def test_fuzz_exits_0(capsys):
    assert main(["fuzz", FIR4, "--trials", "60", "--seed", "1"]) == 0
    assert "fuzz fir4: trials=60 counterexamples=0" in capsys.readouterr().out


def test_fuzz_passes_trials_that_trap_alike(tmp_path, capsys):
    # b is 0 in about one trial in sixteen; every run of such a trial
    # traps on q, as check sees too, so fuzz reports no counterexample.
    kernel = tmp_path / "k.json"
    kernel.write_text(json.dumps(DIVZERO))
    assert main(["fuzz", str(kernel), "--trials", "50", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "fuzz divzero: trials=50 counterexamples=0\n"
    assert captured.err == ""
    assert main(["check", str(kernel), "--samples", "50", "--seed", "0"]) == 0
    assert "check divzero: total mismatches=0" in capsys.readouterr().out


def test_fuzz_prints_a_counterexample_with_its_memory(monkeypatch, capsys):
    # A union rule that taints every result breaks closure on dot8's first
    # trial; the counterexample's inputs hold both of dot8's memories.
    monkeypatch.setattr(diftsim.taint, "tag_fn", tainting_tag_fn(PropagationRule.UNION, 1))
    assert main(["fuzz", DOT8, "--trials", "1", "--seed", "0"]) == 2
    inputs = {"values": {"scale": 197}, "tags": {"scale": 0}, "memory": {
        "va": [20, 132, 248, 207, 155, 244, 183, 111], "vb": [71, 144, 71, 48, 128, 75, 158, 50],
    }}
    assert capsys.readouterr().out == (
        "counterexample 1: property=closure trial=0 mode=fine rule=union tainted outputs=['out'] "
        f"exceptions=1 (input and initial memory tags zero)\n{json.dumps(inputs, indent=2)}\n"
        "fuzz dot8: trials=1 counterexamples=1\n"
    )


def test_fuzz_counterexample_round_trips_through_run(tmp_path, capsys, monkeypatch):
    # Break the tag rule in-process, catch a counterexample, then feed its
    # inputs back through cmd_run and confirm the recorded tags reproduce.
    def xor_tag_fn(rule, kind, types, result_ty):
        return lambda x, y, z, tx, ty, tz: tx ^ ty  # fir4's nodes are all binary

    monkeypatch.setattr(diftsim.taint, "tag_fn", xor_tag_fn)
    fir4 = load_kernel("fir4.json")  # parsed here: its plan is lowered under the mutant
    report = fuzz_properties(fir4, trials=200, seed=5)
    cex = next(c for c in report.counterexamples if c.property == "monotonicity")

    assert main(["fuzz", FIR4, "--trials", "200", "--seed", "5"]) == 2
    out = capsys.readouterr().out
    assert "property=monotonicity" in out

    cex_file = tmp_path / "cex.json"
    cex_file.write_text(inputs_to_json(cex.inputs))
    rep_file = tmp_path / "rep.json"
    main(["run", FIR4, str(cex_file), "--report", str(rep_file)])
    doc = json.loads(rep_file.read_text())
    direct = run_dift(fir4, cex.inputs, DiftConfig(4, FineGrained(PropagationRule.UNION)))
    assert doc["outputs"] == {
        oid: {"value": v, "tag": t} for oid, (v, t) in direct.outputs.items()
    }


def test_module_entry_point_subprocess(tmp_path):
    report = tmp_path / "rep.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "diftsim",
            "run",
            OVERFLOW,
            OVERFLOW_TAINTED,
            "--report",
            str(report),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 10
    assert "exceptions=1" in proc.stdout
    assert json.loads(report.read_text())["irq"] is True


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", FIR4, "--trials", "5"],
        ["instrument", FIR4],
        ["check", FIR4, "--samples", "5"],
        ["run", OVERFLOW, OVERFLOW_TAINTED],
    ],
)
def test_unwritable_stdout_exits_2_with_one_line(argv, unbuffered):
    # Every write to /dev/full fails with ENOSPC: one error line, exit 2,
    # and nothing left buffered for the interpreter to fail on at exit.
    # A buffered stdout fails when flushed, an unbuffered one at its first write.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "diftsim", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: stdout: cannot write (No space left on device)\n"


def test_unknown_id_warnings_follow_the_inputs_document(tmp_path):
    # Unknown ids warn in the document's order, whatever the hash seed.
    inputs = tmp_path / "i.json"
    inputs.write_text(
        json.dumps(
            {
                "values": {"idx": 1, "val": 2, "zeta": 1, "alpha": 2, "mid": 3},
                "tags": {"t2": 1, "t1": 1},
                "memory": {"m2": [1], "m1": [2]},
            }
        )
    )
    stderr = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "diftsim", "run", OVERFLOW, str(inputs)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        )
        assert proc.returncode == 0
        stderr.append(proc.stderr)
    assert stderr[0] == stderr[1]
    assert stderr[0].splitlines() == [
        "warning: zeta: value for unknown input ignored",
        "warning: alpha: value for unknown input ignored",
        "warning: mid: value for unknown input ignored",
        "warning: t2: tag for unknown input ignored",
        "warning: t1: tag for unknown input ignored",
        "warning: m2: override for unknown memory ignored",
        "warning: m1: override for unknown memory ignored",
    ]
