"""tools/mutants.py: each catalogued mutant still applies to the tree, so a
refactor that moves the code it mutates must move the entry too."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def test_the_catalogue_names_each_mutant_once():
    assert [entry[0] for entry in mutants.MUTANTS] == [f"M{i}" for i in range(1, 55)]


@pytest.mark.parametrize("entry", mutants.MUTANTS, ids=[entry[0] for entry in mutants.MUTANTS])
def test_each_mutant_old_text_occurs_exactly_once(entry):
    _, file, old, new, claim = entry
    text = (ROOT / file).read_text(encoding="utf-8")
    assert text.count(old) == 1 and old != new and claim


def test_only_an_unknown_entry_exits_2_before_anything_runs(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("ran before the names were checked")

    monkeypatch.setattr(mutants, "git", refused)
    monkeypatch.setattr(mutants, "run_mutant", refused)
    assert mutants.main(["--only", "M23,M99,nope"]) == 2
    assert capsys.readouterr().out == "unknown mutants: M99 nope\n"
