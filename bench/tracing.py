"""In-memory span tracer around the engine's public functions.

Tracing lives entirely in the benchmark.  :meth:`Tracer.install` replaces
each target function in every ``trisections.*`` namespace that bound it,
the defining module and each module that from-imported it, so calls
between library modules are caught as well as calls from the benchmark.
A span is ``[name, start_ns, end_ns, parent, op, amount]``; ``amount`` is
an exact count of work a call did (records replayed, nodes found, bytes
produced) where one is defined.  Spans stay in memory and are written
out once, after the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path


def _bytes_out(args, result) -> int:
    return len(result.encode("utf-8"))


def _bytes_in(args, result) -> int:
    return len(args[0].encode("utf-8"))


def _plan_records(args, report) -> int:
    return len(report.a.concatenated()) + len(report.b.concatenated())


def _witness_moves(args, found) -> int:
    return 0 if found is None else len(found[1]) + len(found[2])


# "module.function" -> amount extractor (or None).  Every library call the
# CLI makes is listed, so that cli.main's self time is the CLI's own work.
TARGETS = {
    "core.construct": None,
    "core.state_from_profile": None,
    "core.is_feasible": None,
    "moves.apply_stabilization": None,
    "moves.balance": None,
    "moves.fake_heegaard_stab": None,
    "moves.build_heegaard": lambda args, result: len(result[2]),
    "planner.plan_common_stabilization": _plan_records,
    "planner.replay": lambda args, result: len(args[1]),
    "explorer.bfs_reachable": lambda args, result: len(result),
    "explorer.shortest_path": None,
    "explorer.realize_path": None,
    "explorer.common_stabilization_search": _witness_moves,
    "explorer.verify_properties": None,
    "serialize.state_to_text": _bytes_out,
    "serialize.script_to_text": _bytes_out,
    "serialize.verification_report_to_text": _bytes_out,
    "serialize.state_from_text": _bytes_in,
    "serialize.script_from_text": _bytes_in,
    "cli.main": None,
}


class Tracer:
    """Records nested spans for the wrapped functions and for each op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._bindings: list[tuple] = []

    def install(self) -> None:
        """Wrap every target in every ``trisections`` module that binds it."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "trisections" or name.startswith("trisections.")
        ]
        for target, amount in TARGETS.items():
            module_name, name = target.split(".")
            original = getattr(importlib.import_module(f"trisections.{module_name}"), name)
            wrapper = self._wrap(target, original, amount)
            self._bindings += [
                (module, name, original, wrapper)
                for module in modules
                if vars(module).get(name) is original
            ]
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Bind the wrappers (on) or the original functions (off)."""
        for module, name, original, wrapper in self._bindings:
            setattr(module, name, wrapper if on else original)

    def _wrap(self, name: str, fn, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, result)
            return result

        return traced

    def begin_op(self, op: int, kind: str) -> None:
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append([f"op.{kind}", time.perf_counter_ns(), 0, -1, op, 0])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    def write(self, path: Path, header: dict) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, amount in self.spans:
                out.write(json.dumps([name, start - origin, end - origin, parent, op, amount]) + "\n")


class Stats:
    """Per (span name, op tag) totals: calls, inclusive ns, self ns, amount.

    Self time is a span's duration minus the time its direct child spans
    cover; spans nest strictly because the benchmark is single-threaded.
    """

    def __init__(self, spans: list[list], tag_of_op: list[str]) -> None:
        covered = [0] * len(spans)
        for name, start, end, parent, op, amount in spans:
            if parent >= 0:
                covered[parent] += end - start
        rows: dict[tuple[str, str], list[int]] = {}
        for index, (name, start, end, parent, op, amount) in enumerate(spans):
            row = rows.setdefault((name, tag_of_op[op]), [0, 0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[index]
            row[3] += amount
        self._rows = rows

    def get(self, name: str, tag_prefix: str = "") -> tuple[int, int, int, int]:
        """Totals for ``name`` over the ops whose tag starts with ``tag_prefix``."""
        total = [0, 0, 0, 0]
        for (row_name, tag), row in self._rows.items():
            if row_name == name and tag.startswith(tag_prefix):
                total = [a + b for a, b in zip(total, row)]
        return tuple(total)

    def exact_counts(self) -> dict[str, list[int]]:
        """Calls and amount per span name: identical for identical inputs."""
        counts: dict[str, list[int]] = {}
        for (name, _), (calls, _, _, amount) in sorted(self._rows.items()):
            entry = counts.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += amount
        return counts


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0
