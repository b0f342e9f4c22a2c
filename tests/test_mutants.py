"""The committed mutant list: every verdict holds, every ``verify`` line fails under some mutant, and each mutant
that passes ``verify`` says why and names the test that kills it."""
import re
from pathlib import Path

import pytest
from mutants import LINES, MUTANTS, applied, failed_lines

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_fails_the_lines_it_lists(mutant):
    with applied(mutant):
        assert failed_lines() == mutant.fails
    assert failed_lines() == frozenset()  # and the package is itself again


def test_every_line_fails_under_some_mutant():
    assert len(LINES) == 8 and set().union(*(mutant.fails for mutant in MUTANTS)) == set(LINES)


def test_each_mutant_that_passes_verify_says_why_and_names_its_killing_test():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert bool(mutant.reason) != bool(mutant.fails), mutant.name
        if mutant.fails:
            assert mutant.killed_by is None, mutant.name
        elif mutant.killed_by is None:  # only an equivalent mutant dies nowhere
            assert mutant.reason.startswith("equivalent: "), mutant.name
        else:
            path, name = re.fullmatch(r"(tests/\w+\.py)::(\w+)(?:\[[^\]]+\])?", mutant.killed_by).groups()
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), mutant.killed_by
