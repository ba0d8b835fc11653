import json
import os
import sys
from pathlib import Path

import pytest

import diftsim.simulator
import diftsim.taint
from diftsim import OpKind, const_fold, fixture_path, parse_inputs, parse_kernel

_ROOT = Path(__file__).resolve().parent.parent
# `python -m diftsim` subprocesses find the package in a source checkout too.
_SRC = str(_ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
# The benchmark's kernel generators and reference evaluator, appended so
# that no module of theirs shadows a test's.
sys.path.append(str(_ROOT / "benchmarks"))


def load_doc(name):
    """A shipped fixture as the JSON document it is."""
    return json.loads(fixture_path(name).read_text())


def load_kernel(name):
    kernel, diags = parse_kernel(fixture_path(name).read_text())
    assert kernel is not None, diags
    return kernel


def load_inputs(name):
    inputs, diags = parse_inputs(fixture_path(name).read_text())
    assert inputs is not None, diags
    return inputs


@pytest.fixture(scope="session")
def fir4():
    return load_kernel("fir4.json")


@pytest.fixture(scope="session")
def dot8():
    return load_kernel("dot8.json")


@pytest.fixture(scope="session")
def overflow_demo():
    return load_kernel("overflow_demo.json")


# The passes as they were with ROADMAP item 1's two defects, for tests that
# need check to find mismatches whatever the real passes do.


def fold_watched_nodes(k, diags=None):
    """const_fold that also folds a node a checkpoint watches, which moves
    the checkpoint to step 0."""
    return const_fold(k._replace(checkpoints=()), diags)._replace(checkpoints=k.checkpoints)


def drop_dead_traps(k):
    """dead_code_elim that also drops a dead node that may trap."""
    live = {source for _, source in k.outputs} | {arg for _, arg, _ in k.checkpoints}
    kept = []
    for node in reversed(k.nodes):
        if node.op is OpKind.STORE or node.id in live:
            kept.append(node)
            live.update(node.args)
    return k._replace(nodes=tuple(reversed(kept)))


@pytest.fixture
def defective_passes(monkeypatch):
    """check_configs, and so check and check_consistency, optimize with
    fold_watched_nodes and drop_dead_traps."""
    monkeypatch.setattr(diftsim.simulator, "const_fold", fold_watched_nodes)
    monkeypatch.setattr(diftsim.simulator, "dead_code_elim", drop_dead_traps)


def tainting_tag_fn(broken_rule, bit):
    """taint.tag_fn with bit joined into every tag its functions return
    under broken_rule, for tests that need fuzz to find counterexamples."""
    tag_fn = diftsim.taint.tag_fn

    def broken(rule, kind, types, result_ty):
        f = tag_fn(rule, kind, types, result_ty)
        return f if rule is not broken_rule else lambda *operands: f(*operands) | bit

    return broken
