"""The library names the benchmark reaches by name still exist.

``bench/tracing.py`` wraps each ``module.function`` of its ``TARGETS`` and
``Tracer.install`` fails on a missing one, so ``bench/run.py --trace 1``
breaks silently when a refactor renames or deletes a target.  The search
workload also calls ``MoveGraphNode.from_state``.  The targets are read
from the tracer's source, which is parsed and not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _trace_targets() -> list[str]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return [ast.literal_eval(key) for key in node.value.keys]
    raise LookupError(f"no TARGETS assignment in {TRACING}")


def _resolve(dotted: str):
    module, *names = dotted.split(".")
    value = importlib.import_module(f"trisections.{module}")
    for name in names:
        value = getattr(value, name)
    return value


def test_the_tracer_lists_targets():
    assert len(_trace_targets()) >= 20


@pytest.mark.parametrize("target", _trace_targets() + ["core.MoveGraphNode.from_state"])
def test_every_benchmark_target_resolves_to_a_callable(target):
    assert callable(_resolve(target)), target
