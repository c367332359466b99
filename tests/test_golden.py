"""The golden corpus: every pinned CLI invocation keeps its output bytes.

``tests/golden/corpus.py`` lists the invocations and runs them in
process; ``tests/golden/digests.json`` holds the SHA-256 of each one's
exit code, standard streams and written files.  A change that alters an
output on purpose regenerates the digests with
``tests/golden/regenerate.py``.
"""

from __future__ import annotations

import json

import pytest

from golden.corpus import DIGESTS, GROUPS, run_group

EXPECTED = json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(GROUPS))
def test_the_corpus_outputs_are_unchanged(name, tmp_path):
    digests = run_group(name, tmp_path)
    expected = {key: value for key, value in EXPECTED.items() if key.startswith(f"{name}: ")}
    changed = sorted(key for key in expected.keys() | digests.keys()
                     if expected.get(key) != digests.get(key))
    assert changed == [], f"outputs changed for {changed}"


def test_every_digest_belongs_to_an_invocation():
    ids = [f"{name}: {' '.join(step)}" for name, steps in GROUPS.items()
           for step in steps if step[0] != "edit"]
    assert len(set(ids)) == len(ids)
    assert set(EXPECTED) == set(ids)
