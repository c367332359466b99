"""Source rules that no other test checks.

No guarantee of the library may depend on ``assert``, which ``python -O``
strips: every check that can fail raises a domain error instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "trisections").glob("*.py"))


def test_the_library_sources_are_found():
    assert {path.name for path in SOURCES} >= {"core.py", "moves.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_the_library_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
