"""The mutant list of tests/mutants.py must match the source it mutates.

The runner itself runs outside this suite; here each snippet must still
occur exactly once in src/, in the file the mutant names, and each test file
it names must exist.
"""

import pathlib

import pytest

from mutants import MUTANTS, SRC

TESTS = pathlib.Path(__file__).resolve().parent


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_occurs_exactly_once_in_src(mutant):
    counts = {
        path.name: path.read_text().count(mutant.snippet)
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: n for name, n in counts.items() if n} == {mutant.path: 1}
    assert mutant.snippet != mutant.replacement
    assert mutant.tests and all((TESTS / f).is_file() for f in mutant.tests)
