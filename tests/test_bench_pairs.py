"""tools/bench_pairs.py: its command line, and its judgement of one gated
metric on synthetic pairs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # median 10.45, IQR 0.55


@pytest.fixture
def tool(monkeypatch):
    # The tool puts the repository on sys.path and turns bytecode writing
    # off when imported; both are restored after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def judge(tool):
    return tool.judge


def test_workload_takes_a_name_a_list_or_all(tool, capsys):
    def workloads(arg):
        return tool.parse_args(["HEAD~1", "HEAD", "--workload", arg, "--seeds", "1-3,9",
                                "--seconds", "30"]).workload

    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["workloads"]
    assert workloads("all") == [w["name"] for w in declared]
    assert workloads("deny-storm") == ["deny-storm"]
    assert workloads("verify-fixtures,large-kernel") == ["verify-fixtures", "large-kernel"]
    args = tool.parse_args(["a", "b", "--workload", "all", "--seeds", "1-3,9", "--seconds", "2"])
    assert (args.parent, args.change, args.seeds, args.seconds) == ("a", "b", [1, 2, 3, 9], 2.0)
    with pytest.raises(SystemExit):
        workloads("deny-storm,no-such")
    assert "unknown workload no-such" in capsys.readouterr().err


def shifted(values, by, losses=0):
    """values moved by `by`, except the first `losses` pairs, which rise by 0.5."""
    return [v + 0.5 if i < losses else v + by for i, v in enumerate(values)]


@pytest.mark.parametrize(
    "after, better, claim, verdict, wins, losses",
    [
        (shifted(PARENT, -2.0), "lower", True, "within bound", 10, 0),
        # Nine wins of ten still claim a gain; eight do not.
        (shifted(PARENT, -2.0, losses=1), "lower", True, "within bound", 9, 1),
        (shifted(PARENT, -2.0, losses=2), "lower", False, "within bound", 8, 2),
        # A gain no larger than the parent's IQR is not claimed.
        (shifted(PARENT, -0.5), "lower", False, "within bound", 10, 0),
        # Ties count for neither side.
        (list(PARENT), "lower", False, "within bound", 0, 0),
        # 16% worse than the parent's median, past the 15% bound.
        ([v * 1.16 for v in PARENT], "lower", False, "REGRESSION", 0, 10),
        ([v * 1.1 for v in PARENT], "lower", False, "within bound", 0, 10),
        # For a metric where higher is better, the same shifts read the other way.
        (shifted(PARENT, 2.0), "higher", True, "within bound", 10, 0),
        ([v * 0.84 for v in PARENT], "higher", False, "REGRESSION", 0, 10),
    ],
)
def test_judge_outcomes(judge, after, better, claim, verdict, wins, losses):
    j = judge(PARENT, after, better, 0.15)
    assert (j["claim"], j["verdict"], j["wins"], j["losses"]) == (claim, verdict, wins, losses)
    assert j["parent"]["median"] == pytest.approx(10.45)
    assert j["iqr"] == pytest.approx(j["parent"]["q3"] - j["parent"]["q1"])


def test_judge_leaves_a_bound_inside_the_parents_spread_unresolved(judge):
    # The parent's IQR (about 1) is wider than 15% of its median 1.5: a
    # change within that spread can be neither cleared nor convicted.
    parent = [1.0, 2.0] * 5
    same = judge(parent, list(reversed(parent)), "lower", 0.15)
    assert same["verdict"] == "unresolved: the parent's IQR is wider than the bound"
    # Unless every change run beats every parent run.
    faster = judge(parent, [0.4] * 10, "lower", 0.15)
    assert faster["verdict"] == "within bound" and faster["claim"]
    # A median worse by more than the bound is a regression all the same.
    assert judge(parent, [2.0] * 10, "lower", 0.15)["verdict"] == "REGRESSION"
