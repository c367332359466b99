"""Run the mutant catalogue against copies of the tree.

Run ``python tests/mutants/run.py [ID ...]`` from the repository root.
It first runs every killer on an unmutated copy, which must pass.  Then,
for each entry of ``catalogue.CATALOGUE`` (or each one named), it copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
replaces the entry's old text by its new text there, and runs the
entry's killers in one ``pytest`` run (without ``-x``), reading which of
them failed from pytest's ``-rfE`` summary.  A killer fails when one of
its tests fails or errors, or its file does not collect.  It prints one
line an entry: ``killed`` when every named killer failed; ``survived``
with the killers that passed; ``timeout`` when the run does not end in
time, since it then cannot tell which killers failed; ``stale`` when the
old text is not found exactly once.  It exits 0 only when every entry it
ran was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import CATALOGUE, Mutant

ROOT = Path(__file__).resolve().parents[2]
TIMEOUT_S = 600


def _failures(mutant: Mutant | None, tests: list[str]) -> set[str] | str:
    # Copy the tree, apply the mutant if any, run the tests: the node ids
    # pytest reports as failed or in error, or stale, timeout or an error line.
    with tempfile.TemporaryDirectory(prefix="mutant-") as directory:
        tree = Path(directory)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        if mutant is not None:
            target = tree / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return "stale"
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)  # the copy's conftest exports its own src/
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
        if proc.returncode not in (0, 1, 2):  # 2: the mutated tree no longer imports
            return f"error (pytest exit {proc.returncode}): {proc.stdout[-300:]!r}"
        # A summary line is "FAILED <node id> - <message>" or "ERROR <node id>".
        return {line.partition(" ")[2] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))}


def _failed(killer: str, failures: set[str]) -> bool:
    # Whether a test of the killer (any of its parameters) or its file failed.
    path = killer.partition("::")[0]
    return any(failure in (killer, path)
               or failure.startswith((f"{killer}[", f"{killer} ", f"{path} "))
               for failure in failures)


def main(ids: list[str]) -> int:
    unknown = sorted(set(ids) - {mutant.id for mutant in CATALOGUE})
    if unknown:
        print(f"unknown mutant ids: {unknown}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in CATALOGUE if not ids or mutant.id in ids]
    killers = sorted({killer for mutant in chosen for killer in mutant.killers})
    baseline = _failures(None, killers)
    if baseline != set():
        print(f"the unmutated tree does not pass its killers: {baseline}", file=sys.stderr)
        return 2
    killed = 0
    for mutant in chosen:
        started = time.perf_counter()
        failures = _failures(mutant, list(mutant.killers))
        if isinstance(failures, str):
            verdict = failures
        else:
            passed = [killer for killer in mutant.killers if not _failed(killer, failures)]
            verdict = f"survived; passed: {', '.join(passed)}" if passed else "killed"
        killed += verdict == "killed"
        print(f"{mutant.id}: {verdict} ({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
