"""The mutant runner's patches still land: each mutant's text occurs exactly once
in its file, so a refactor that moves patched code fails here, not only when
``python tests/mutants.py`` is run by hand."""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_matches_its_file_exactly_once(mutant):
    text = (ROOT / "src" / "compound_uq" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert bool(mutant.must_fail) != bool(mutant.survives), "a mutant is either caught by named criteria or listed as a survivor"
