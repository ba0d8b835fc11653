import os
from pathlib import Path

import pytest

from diftsim import fixture_path, parse_inputs, parse_kernel

# `python -m diftsim` subprocesses find the package in a source checkout too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


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
