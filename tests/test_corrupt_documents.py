"""Corrupted state and script files: a format error, and nothing else.

Each example takes a real document and corrupts its bytes: flipped
bytes, a truncation, a repeated or deleted line (which repeats or drops
a key), or a value replaced by one of another type.  Reading the result
either succeeds or raises :class:`StateFormatError`; through the CLI,
``show`` and ``replay`` refuse a rejected file with exit 2, a one-line
message on stderr and nothing on stdout.
"""

from __future__ import annotations

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trisections import cli
from trisections.core import from_heegaard, koda_ozawa, open_book
from trisections.moves import balance, build_heegaard, fake_heegaard_stab
from trisections.planner import plan_common_stabilization
from trisections.serialize import (
    StateFormatError,
    script_from_text,
    script_to_text,
    state_from_text,
    state_to_text,
)

_STATES = [
    state_to_text(balance(koda_ozawa())[0]).encode(),
    state_to_text(fake_heegaard_stab(koda_ozawa())).encode(),
    state_to_text(build_heegaard(open_book(10), 1)[0]).encode(),
]
_REPORT = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 2)
_SCRIPTS = [
    script_to_text(_REPORT.a.concatenated()).encode(),
    script_to_text(balance(from_heegaard(3))[1]).encode(),
]
_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?[0-9]+|true|false|null')
_OTHER_TYPES = [b"null", b"true", b"1", b"-1", b"2.5", b'"x"', b'"c0"', b"[]", b"{}", b'["c0"]']


@st.composite
def _corruptions(draw, texts: list[bytes]) -> bytes:
    data = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "truncate", "repeat-line", "delete-line", "retype"]))
        if kind == "flip":
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:draw(st.integers(0, len(data) - 1))]
        elif kind in ("repeat-line", "delete-line"):
            lines = data.split(b"\n")
            at = draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = [lines[at]] * (2 if kind == "repeat-line" else 0)
            data = b"\n".join(lines)
        else:
            tokens = list(_TOKEN.finditer(data))
            if tokens:
                token = tokens[draw(st.integers(0, len(tokens) - 1))]
                data = data[:token.start()] + draw(st.sampled_from(_OTHER_TYPES)) + data[token.end():]
        if not data:
            break
    return data


def _read(reader, text: str) -> None:
    try:
        reader(text)
    except StateFormatError:
        pass


_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SETTINGS
@given(_corruptions(_STATES), _corruptions(_SCRIPTS))
def test_corrupted_documents_raise_only_format_errors(state_bytes, script_bytes):
    # Any other exception escapes _read and fails the test.
    for data, reader in ((state_bytes, state_from_text), (script_bytes, script_from_text)):
        _read(reader, data.decode("utf-8", errors="surrogateescape"))
        _read(reader, data.decode("utf-8", errors="replace"))


def _rejected(data: bytes, reader) -> bool:
    try:
        reader(data.decode("utf-8"))
    except (UnicodeDecodeError, StateFormatError):
        return True
    return False


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corrupt")
    (root / "state.json").write_bytes(_STATES[0])
    (root / "script.json").write_bytes(_SCRIPTS[0])
    return root


@settings(
    max_examples=150, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_corruptions(_STATES), _corruptions(_SCRIPTS))
def test_show_and_replay_refuse_corrupted_files_with_exit_2(files, state_bytes, script_bytes):
    state_file, script_file = files / "state.json", files / "script.json"
    bad_state, bad_script = files / "bad-state.json", files / "bad-script.json"
    bad_state.write_bytes(state_bytes)
    bad_script.write_bytes(script_bytes)
    cases = [
        (["show", str(bad_state)], _rejected(state_bytes, state_from_text), "state"),
        (["replay", str(bad_state), str(script_file)], _rejected(state_bytes, state_from_text), "state"),
        (["replay", str(state_file), str(bad_script)], _rejected(script_bytes, script_from_text), "script"),
    ]
    for argv, rejected, context in cases:
        code, out, err = _run(argv)
        if rejected:
            assert code == 2 and out == "", (argv, code, err)
            assert err.startswith(f"StateFormatError: {context}") and err.count("\n") == 1, err
        else:
            assert code in (0, 1), (argv, code, err)
        assert "Traceback" not in err
