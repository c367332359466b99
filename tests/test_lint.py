"""Source rules that no other test checks.

No guarantee of the library may depend on ``assert``, which ``python -O``
strips: every check that can fail raises a domain error instead.  And no
module imports a name it does not read.
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


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "__init__.py"], ids=lambda path: path.name
)
def test_the_library_has_no_unused_imports(path):
    # The package's __init__ imports are its export list, so it is exempt.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted((line, name) for name, line in imported.items() if name not in read)
    assert unused == [], f"{path.name} imports names it never reads: {unused}"
