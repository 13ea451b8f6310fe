"""Every mutant in ``mutants.py`` still applies to the source: each old text
of its edits occurs exactly once in ``src/rnnfast``, in the mutant's own
file.  Whether the tests kill them is checked by ``python
tests/mutants.py``, not here."""

import pytest
from mutants import MUTANTS, PACKAGE, ROOT

SOURCES = {path.name: path.read_text() for path in (ROOT / PACKAGE).glob("*.py")}


def test_mutant_ids_are_distinct():
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_each_old_text_occurs_once_in_src(mutant):
    _id, name, edits, tests = mutant
    assert edits and tests
    for old, _new in edits:
        assert SOURCES[name].count(old) == 1
        assert sum(source.count(old) for source in SOURCES.values()) == 1
