"""The CLI prints the same bytes on every interpreter ``pyproject.toml`` admits.

The suite runs on one interpreter; this smoke test looks for other
CPython 3.10 or newer installations, the siblings of this interpreter's
installation directory and any ``python3.1x`` on ``PATH``, keeps one
per minor version that starts and is not this one's, and runs a few
commands on each of them, two refused replays among them, comparing exit
code, stdout and stderr.  It skips when it finds none.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import WRONG_CREATED

from trisections.core import from_heegaard, koda_ozawa
from trisections.serialize import state_to_text

SRC = Path(__file__).resolve().parents[1] / "src"

# Each command with the exit code it must end with.  The refused replays
# print two move records in full on stderr.
COMMANDS = (
    (["new", "koda-ozawa"], 0),
    (["balance", "koda.json"], 0),
    (["plan", "koda.json", "heegaard.json", "--rs-bound", "1"], 0),
    (["explore", "--start", "koda.json", "--max-sum", "8"], 0),
    (["verify", "--max-sum", "6"], 0),
    (["replay", "heegaard.json", "same.json"], 1),
    (["replay", "koda.json", "distinct.json"], 1),
)


def _candidates() -> list[Path]:
    # Sibling installations first, then every python3.1x on PATH, in order,
    # each file once and this interpreter's never.
    found = sorted(Path(sys.base_prefix).parent.glob("*/bin/python3"))
    for directory in os.get_exec_path():
        found += sorted(Path(directory).glob("python3.1[0-9]"))
    unique: dict[Path, Path] = {}
    for path in found:
        unique.setdefault(path.resolve(), path)
    unique.pop(Path(sys.executable).resolve(), None)
    return list(unique.values())


def _minor_version(executable: Path) -> tuple[int, int] | None:
    # A pyenv shim for a version that is not selected exits nonzero, and
    # some candidates are no interpreter at all.
    try:
        proc = subprocess.run(
            [str(executable), "-I", "-S", "-c", "import sys; print(*sys.version_info[:2])"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or not all(word.isdigit() for word in words):
        return None
    return int(words[0]), int(words[1])


def _other_interpreters() -> dict[tuple[int, int], Path]:
    # A python3.1x whose name gives a version already at hand is not probed:
    # pyenv's shims take a few tenths of a second each to start.
    others: dict[tuple[int, int], Path] = {sys.version_info[:2]: Path(sys.executable)}
    for executable in _candidates():
        if executable.name in {f"python{major}.{minor}" for major, minor in others}:
            continue
        version = _minor_version(executable)
        if version is not None and version >= (3, 10):
            others.setdefault(version, executable)
    del others[sys.version_info[:2]]
    return others


def _outputs(
    executables: list[str], command: list[str], cwd: Path
) -> list[tuple[int, bytes, bytes]]:
    # The exit code, stdout and stderr of the command on each interpreter,
    # run side by side.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [
        subprocess.Popen([executable, "-S", "-m", "trisections.cli", *command],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd, env=env)
        for executable in executables
    ]
    outputs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=60)
        outputs.append((proc.returncode, stdout, stderr))
    return outputs


def test_other_interpreters_print_the_same_bytes(tmp_path):
    others = _other_interpreters()
    if not others:
        pytest.skip("no other Python 3.10+ interpreter starts here")
    (tmp_path / "koda.json").write_text(state_to_text(koda_ozawa()), encoding="utf-8")
    (tmp_path / "heegaard.json").write_text(state_to_text(from_heegaard(2)), encoding="utf-8")
    for kind, (_, records, _) in WRONG_CREATED.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(records), encoding="utf-8")
    executables = [sys.executable, *map(str, others.values())]
    for command, code in COMMANDS:
        expected, *outputs = _outputs(executables, command, tmp_path)
        assert expected[0] == code and expected[1 if code == 0 else 2], command
        for version, output in zip(others, outputs):
            assert output == expected, (version, command)
