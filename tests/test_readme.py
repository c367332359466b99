"""README's examples run as written, and its size limits are the CLI's.

The Library block is executed as Python, and every line of the CLI
block runs in a scratch directory with ``trisect`` bound to this
interpreter's ``python -m trisections.cli``.  A line's commands joined
by ``|`` run in order, each fed the output of the one before.
"""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from itertools import groupby
from pathlib import Path

from trisections import Profile, cli
from trisections.explorer import node_count

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
TRISECT = [sys.executable, "-m", "trisections.cli"]


def _block(heading: str, language: str) -> str:
    # The first fenced block of that language in the section under the heading.
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _run_line(line: str, cwd: Path) -> bytes:
    # The stdout of the line's last command; every command must exit 0.
    words = shlex.split(line, comments=True)
    commands = [list(run) for pipe, run in groupby(words, key="|".__eq__) if not pipe]
    output = b""
    for command in commands:
        assert command[0] == "trisect", line
        proc = subprocess.run(TRISECT + command[1:], input=output, capture_output=True, cwd=cwd)
        assert proc.returncode == 0, (line, proc.stderr.decode(errors="replace"))
        output = proc.stdout
    return output


def test_the_library_example_runs_and_says_what_it_prints(capsys):
    namespace: dict = {}
    exec(_block("Library", "python"), namespace)
    assert namespace["state"].profile == Profile(2, 2, 0, 1)
    assert namespace["balanced"].profile == Profile(2, 2, 2, 1) and len(namespace["script"]) == 2
    assert namespace["genus"] == 4
    assert capsys.readouterr().out == f"{namespace['report'].final_profile}\n"


def test_every_cli_line_exits_zero_and_replay_is_byte_identical(tmp_path):
    lines = [line for line in _block("CLI", "sh").splitlines() if line.startswith("trisect ")]
    replays = [line for line in lines if line.startswith("trisect replay ")]
    assert len(replays) == 1 and "byte-identical" in replays[0]
    for line in lines:
        output = _run_line(line, tmp_path)
        if line in replays:
            assert output == (tmp_path / "balanced.json").read_bytes()


def _stated(pattern: str) -> tuple[int, ...]:
    # The numbers the CLI section's prose states where the pattern matches.
    prose = " ".join(README.split("\n## CLI\n", 1)[1].split("```", 1)[0].split())
    found = re.search(pattern, prose)
    assert found is not None, pattern
    return tuple(int(number.replace(",", "")) for number in found.groups())


def test_the_stated_size_limits_are_the_cli_limits():
    assert _stated(r"link of more than ([\d,]+) components") == (cli.MAX_COMPONENTS,)
    assert _stated(r"a script of more than ([\d,]+) moves") == (cli.MAX_SCRIPT_MOVES,)
    assert _stated(r"`--rs-bound` over ([\d,]+) or a plan of more than ([\d,]+) records") == (
        cli.MAX_SCRIPT_MOVES, cli.MAX_SCRIPT_MOVES
    )
    assert _stated(r"holds more than ([\d,]+) nodes") == (cli.MAX_NODES,)
    assert _stated(r"more than ([\d,]+) bytes \(room for ([\d,]+) records and ([\d,]+) labels") == (
        cli.MAX_INPUT_BYTES, cli.MAX_SCRIPT_MOVES, cli.MAX_COMPONENTS
    )
    (max_sum,) = _stated(r"`verify` accepts `--max-sum` up to (\d+)")
    assert node_count(max_sum, cli.MAX_NODES) <= cli.MAX_NODES < node_count(max_sum + 1, cli.MAX_NODES)
