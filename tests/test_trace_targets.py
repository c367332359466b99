"""The library names the benchmark reaches by name still exist.

``bench/tracing.py`` wraps each ``module.function`` of its ``TARGETS`` and
``Tracer.install`` fails on a missing one, so ``bench/run.py --trace 1``
breaks silently when a refactor renames or deletes a target.  The
workloads of ``bench/workloads.py`` call the library through module
attributes (``planner.replay``) and through names imported from it
(``MoveGraphNode.from_state``), so a deleted public name breaks the
benchmark itself.  Both files are parsed, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _trace_targets() -> list[str]:
    for node in _parse(TRACING).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise LookupError(f"no TARGETS assignment in {TRACING}")


def _workload_names() -> list[str]:
    """Every ``module.name.attr`` chain the workloads read off the library.

    A chain starts at a name the module imports from ``trisections`` or one
    of its submodules (``cli``, ``MoveGraphNode``, ``unwrapped_replay``),
    which stands for its dotted name in the package, aliases undone.
    """
    tree = _parse(WORKLOADS)
    roots: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module is not None:
            package, _, module = node.module.partition(".")
            if package == "trisections":
                for alias in node.names:
                    dotted = f"{module}.{alias.name}" if module else alias.name
                    roots[alias.asname or alias.name] = dotted
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            names.add(".".join([roots[node.id], *reversed(chain)]))
    return sorted(names)


def _resolve(dotted: str):
    module, *names = dotted.split(".")
    value = importlib.import_module(f"trisections.{module}")
    for name in names:
        value = getattr(value, name)
    return value


def test_the_tracer_lists_targets():
    assert len(_trace_targets()) >= 20


@pytest.mark.parametrize("target", _trace_targets())
def test_every_benchmark_target_resolves_to_a_callable(target):
    assert callable(_resolve(target)), target


def test_the_workloads_reach_the_library_by_name():
    names = _workload_names()
    for expected in ("cli.main", "planner.replay", "explorer.MoveGraphNode.from_state"):
        assert expected in names
    assert len(names) >= 10


@pytest.mark.parametrize("name", _workload_names())
def test_workload_names_resolve(name):
    _resolve(name)
