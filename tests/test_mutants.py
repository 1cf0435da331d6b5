"""scripts/mutants.py's mutant list stays applicable: each old text occurs
exactly once in its module, so no mutant silently stops applying when the
code it mutates changes.  No mutant is run here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("module,old,new,label", mutants.MUTANTS, ids=[m[3] for m in mutants.MUTANTS])
def test_each_mutant_applies_to_exactly_one_place(module, old, new, label):
    assert old != new
    assert (mutants.PACKAGE / module).read_text().count(old) == 1


def test_the_list_spans_the_layers_it_scores():
    assert len(mutants.MUTANTS) >= 15
    assert {m[0] for m in mutants.MUTANTS} == {"geometry.py", "closed.py", "fieldtheory.py", "jetcore.py", "harness/checks.py"}
    assert len({m[3] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_every_config_is_a_file():
    assert all(config is None or config.is_file() for config in mutants.CONFIGS.values())
