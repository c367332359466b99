"""The mutant catalogue stays applicable to the tree it lands on.

``tests/mutants/run.py`` applies each entry and runs its killers, which
takes minutes and is not part of this suite.  Here each entry's old text
must occur exactly once in its file and each killer must name a test
function of an existing test file, so a refactor that moves the code or
renames a test updates the catalogue with it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mutants.catalogue import CATALOGUE

ROOT = Path(__file__).resolve().parents[1]


def test_the_catalogue_ids_are_unique():
    ids = [mutant.id for mutant in CATALOGUE]
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda mutant: mutant.id)
def test_each_mutant_applies_once_and_names_its_killers(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{mutant.id}: its old text is in {mutant.file} " \
                                        f"{text.count(mutant.old)} times"
    assert mutant.new != mutant.old and mutant.killers
    for killer in mutant.killers:
        path, _, name = killer.partition("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), killer
