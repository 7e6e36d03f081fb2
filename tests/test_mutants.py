"""The mutation check's list stays applicable: each mutant's old text occurs
exactly once in its source file, and the edited file still compiles. Running
the mutants is left to ``python tests/mutants.py``; see its docstring."""

import pytest

from mutants import MUTANTS, SRC, mutated_source


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_compiles(mutant):
    mutated = mutated_source(mutant)  # a ValueError unless the old text occurs once
    assert mutated != (SRC / mutant.path).read_text()
    compile(mutated, mutant.path, "exec")
