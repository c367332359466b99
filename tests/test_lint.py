"""Source rules that no other test checks.

No guarantee of the library may depend on ``assert``, which ``python -O``
strips: every check that can fail raises a domain error instead.  No
module imports a name it does not read.  Only ``core`` writes a
component label ``c<n>``, so that its label table is the one source of
fresh labels, and only ``core`` and ``moves`` read that table, so that
the canonical run in ``moves`` is the one place outside ``core`` that
takes a move's new labels.  Only ``moves`` reads the move tables, so that
how a move changes labels and genera is stated in one module.  And the library
writes JSON only from its templates, never through ``json``'s encoder,
so that every document has one writer.  Every name the package exports
has a reader outside the tests, so that no public function lives only
for them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "trisections").glob("*.py"))


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


def _label_formats(tree: ast.AST) -> list[int]:
    # The lines of every f-string that starts with the constant "c" and
    # then a formatted value: f"c{n}", f"c{n + 1}" and the like.
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr) and len(node.values) > 1
        and isinstance(node.values[0], ast.Constant) and node.values[0].value == "c"
        and isinstance(node.values[1], ast.FormattedValue)
    ]


def test_the_label_check_finds_a_label_format():
    assert _label_formats(ast.parse('x = [f"c{n}" for n in r] + [f"c{n + 1}!"]')) == [1, 1]
    assert _label_formats(ast.parse('x = f"arc{n}", f"{n}c", "c0", f"c"')) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "core.py"], ids=lambda path: path.name
)
def test_only_core_formats_component_labels(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _label_formats(tree)
    assert lines == [], f"{path.name} formats c<n> labels on lines {lines}; use core.LABELS"


_MOVE_TABLES = frozenset((
    "_MOVE_RULES", "_GENERA_ROWS", "_TABLE_END", "_link", "_DISK_PAIRS", "_DISK_REACH", "_disk_run",
))


def _move_table_reads(tree: ast.AST) -> list[int]:
    # The lines that import or read one of moves' tables by name or attribute.
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name in _MOVE_TABLES)
        or (isinstance(node, ast.Name) and node.id in _MOVE_TABLES)
        or (isinstance(node, ast.Attribute) and node.attr in _MOVE_TABLES)
    )


def test_the_move_table_check_finds_a_read():
    source = ("from .moves import (\n  _link,\n  _tuple,\n)\nx = moves._TABLE_END + 1\ny = _MOVE_RULES\n"
              "z = moves._GENERA_ROWS\nrun = moves._DISK_PAIRS[1][0][:2]\nfrom .moves import _DISK_REACH\n"
              "records = _disk_run(1, 0, 3)\n")
    assert _move_table_reads(ast.parse(source)) == [2, 5, 6, 7, 8, 9, 10]
    assert _move_table_reads(ast.parse("from .moves import _tuple\nlink = x.link\n")) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name != "moves.py"], ids=lambda path: path.name
)
def test_only_moves_reads_the_move_tables(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _move_table_reads(tree)
    assert lines == [], (f"{path.name} reads the move tables on lines {lines}; "
                         "check moves through a function of moves")


_LABEL_TABLE = frozenset(("LABELS", "_LABEL_COUNT"))


def _label_table_reads(tree: ast.AST) -> list[int]:
    # The lines that import or read core's label table by name or attribute.
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.alias) and node.name in _LABEL_TABLE)
        or (isinstance(node, ast.Name) and node.id in _LABEL_TABLE)
        or (isinstance(node, ast.Attribute) and node.attr in _LABEL_TABLE)
    )


def test_the_label_table_check_finds_a_read():
    source = ("from .core import (\n  LABELS,\n  component_labels,\n)\n"
              "x = core._LABEL_COUNT\ny = LABELS[0]\n")
    assert _label_table_reads(ast.parse(source)) == [2, 5, 6]
    assert _label_table_reads(ast.parse("from .core import component_labels\nx = labels\n")) == []


@pytest.mark.parametrize(
    "path", [path for path in SOURCES if path.name not in ("core.py", "moves.py")],
    ids=lambda path: path.name,
)
def test_only_core_and_moves_read_the_label_table(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _label_table_reads(tree)
    assert lines == [], (f"{path.name} reads core.LABELS on lines {lines}; make a move's "
                         "labels through moves, or others through core.component_labels")


_ENCODER_NAMES = frozenset(("dump", "dumps", "JSONEncoder"))


def _encoder_uses(tree: ast.AST) -> list[int]:
    # The lines that import json's encoder, call json.dump(s) or name JSONEncoder.
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder")
            and any(alias.name in _ENCODER_NAMES for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr in _ENCODER_NAMES
            and (node.attr == "JSONEncoder"
                 or isinstance(node.value, ast.Name) and node.value.id == "json"))
        or (isinstance(node, ast.Name) and node.id == "JSONEncoder")
    )


def test_the_encoder_check_finds_a_use():
    source = ("import json\nfrom json import dumps\nx = json.dumps(1)\n"
              "class E(json.JSONEncoder):\n  pass\ny = JSONEncoder\n")
    assert _encoder_uses(ast.parse(source)) == [2, 3, 4, 6]
    source = "import json\nfrom json.encoder import encode_basestring\nx = json.loads(s)\n"
    assert _encoder_uses(ast.parse(source)) == []


def test_the_library_uses_no_json_encoder():
    uses = {
        path.name: lines for path in SOURCES
        if (lines := _encoder_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))))
    }
    assert uses == {}, f"the library writes JSON through json's encoder on lines {uses}; use a template"


def _names_read(tree: ast.AST) -> set[str]:
    # Every name a module reads, imports or reaches as "module.name".
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            module, dot, name = node.value.partition(".")
            if dot and module.isidentifier() and name.isidentifier():
                names.add(name)
    return names


def test_the_export_check_finds_a_read():
    source = ("from .moves import balance\nx = core.trivial\ny = replay(z)\n"
              "TARGETS = {'explorer.reachable': None, 'no dotted name.': 1}\ndef unused(): pass\n")
    assert _names_read(ast.parse(source)) >= {"balance", "trivial", "replay", "reachable"}
    assert _names_read(ast.parse(source)).isdisjoint({"unused", "name", "no dotted name"})


def test_every_exported_name_is_used_outside_the_tests():
    # A reader is another library module, the frozen release criteria in
    # test_acceptance.py, or the benchmark, which reaches functions by name.
    init = ast.parse((ROOT / "src" / "trisections" / "__init__.py").read_text(encoding="utf-8"))
    exported = {
        alias.asname or alias.name for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    readers = [path for path in SOURCES if path.name != "__init__.py"]
    readers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    read = set().union(*(_names_read(ast.parse(path.read_text(encoding="utf-8"))) for path in readers))
    unread = sorted(exported - read)
    assert unread == [], f"the package exports names that only the tests read: {unread}"
