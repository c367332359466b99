"""End-to-end command line tests.

Each test runs the real interpreter entry point in a subprocess: state
and report JSON must arrive on stdout (or -o files) so commands compose
through pipes, human summaries on stderr, and exit codes must separate
domain errors (1) from usage and format errors (2).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

import pytest

from trisections import cli
from trisections.cli import MAX_COMPONENTS, MAX_INPUT_BYTES, MAX_NODES, MAX_SCRIPT_MOVES
from trisections.core import (
    MoveGraphNode,
    connect_sum_equal_genus,
    from_heegaard,
    koda_ozawa,
    open_book,
    split_heegaard,
    tunnel_system,
)
from trisections.explorer import _listing, node_count
from trisections.moves import build_heegaard
from trisections.planner import plan_lengths
from trisections.serialize import state_to_text


def run_cli(*args: str, stdin_text: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "trisections.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def heegaard2(tmp_path):
    path = tmp_path / "heegaard2.json"
    assert run_cli("new", "from-heegaard", "2", "-o", str(path)).returncode == 0
    return path


@pytest.fixture()
def koda(tmp_path):
    path = tmp_path / "koda.json"
    assert run_cli("new", "koda-ozawa", "-o", str(path)).returncode == 0
    return path


# -- construction and display -----------------------------------------------------


def test_new_writes_json_to_stdout_and_summary_to_stderr():
    proc = run_cli("new", "from-heegaard", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["genera"] == {"g12": 2, "g13": 0, "g23": 0}
    assert "profile (2,2,0;1)" in proc.stderr
    assert "profile" not in proc.stdout


def test_new_is_byte_deterministic():
    first = run_cli("new", "open-book", "3")
    second = run_cli("new", "open-book", "3")
    assert first.stdout == second.stdout


def test_show_prints_the_expected_summary(heegaard2):
    proc = run_cli("show", str(heegaard2))
    assert proc.returncode == 0
    assert proc.stdout == (
        "label: from-heegaard(genus=2)\n"
        "profile: (2,2,0;1)\n"
        "genera: g12=2 g13=0 g23=0\n"
        "boundary components (b=1): c0\n"
        "feasible: yes\n"
        "balanced: no\n"
        "trivial: no\n"
        "history: 0 moves\n"
    )


def test_show_reads_stdin_with_dash():
    state_text = run_cli("new", "koda-ozawa").stdout
    proc = run_cli("show", "-", stdin_text=state_text)
    assert proc.returncode == 0
    assert "profile: (1,2,2;2)" in proc.stdout


def test_show_surfaces_the_odd_surface_bundle_note():
    state_text = run_cli("new", "surface-bundle", "3").stdout
    proc = run_cli("show", "-", stdin_text=state_text)
    assert proc.returncode == 0
    assert "note:" in proc.stdout
    assert "(2g,g+1,g+1;3)" in proc.stdout


def test_new_rejects_unknown_kind_with_usage_exit():
    assert run_cli("new", "lens-space").returncode == 2


def test_new_rejects_missing_and_extra_parameters():
    assert run_cli("new", "from-heegaard").returncode == 2
    assert run_cli("new", "trivial", "5").returncode == 2


def test_new_rejects_out_of_domain_parameter_with_domain_exit():
    proc = run_cli("new", "from-heegaard", "-1")
    assert proc.returncode == 1
    assert "OutOfDomain" in proc.stderr


def test_show_missing_file_is_an_io_error():
    assert run_cli("show", "/nonexistent/state.json").returncode == 2


@pytest.mark.parametrize(
    "closed, args",
    [
        (0, ("show", "-")),
        (0, ("stab", "--handlebody", "1", "--arc", "same:c0")),
        (1, ("new", "trivial")),
        (1, ("show", "KODA")),
    ],
)
def test_a_closed_standard_stream_is_an_io_error(koda, closed, args):
    # The child starts with fd 0 or fd 1 closed, as `<&-` or `>&-` leave it.
    argv = [str(koda) if arg == "KODA" else arg for arg in args]
    proc = subprocess.run(
        [sys.executable, "-m", "trisections.cli", *argv],
        capture_output=True, text=True, preexec_fn=lambda: os.close(closed),
    )
    stream = ("input", "output")[closed]
    assert proc.returncode == 2
    assert proc.stderr == f"IO error: standard {stream} is closed\n"


def test_show_rejects_malformed_state():
    proc = run_cli("show", "-", stdin_text='{"version": 1}')
    assert proc.returncode == 2
    assert "StateFormatError" in proc.stderr


# -- single moves -------------------------------------------------------------------


def test_stab_updates_the_profile(heegaard2, tmp_path):
    out = tmp_path / "after.json"
    proc = run_cli(
        "stab", str(heegaard2), "--handlebody", "3", "--arc", "same:c0",
        "-o", str(out),
    )
    assert proc.returncode == 0
    assert "(2,2,0;1) -> (2,2,1;2)" in proc.stderr
    shown = run_cli("show", str(out))
    assert "boundary components (b=2): c1 c2" in shown.stdout


def test_stab_rejects_illegal_moves_with_domain_exit(heegaard2):
    proc = run_cli("stab", str(heegaard2), "--handlebody", "1", "--arc", "same:c0")
    assert proc.returncode == 1
    assert "IllegalMove" in proc.stderr
    # A well-formed label that is not in the link is a domain error too.
    proc = run_cli("stab", str(heegaard2), "--handlebody", "3", "--arc", "same:c7")
    assert proc.returncode == 1
    assert "IllegalMove: component 'c7' is not in the boundary link" in proc.stderr


def test_stab_rejects_malformed_arcs_with_usage_exit(heegaard2):
    assert run_cli("stab", str(heegaard2), "--handlebody", "1", "--arc", "c0").returncode == 2
    assert (
        run_cli("stab", str(heegaard2), "--handlebody", "1", "--arc", "distinct:c0,c0").returncode
        == 2
    )
    proc = run_cli("stab", str(heegaard2), "--handlebody", "1", "--arc", "distinct:c0,c1,c2")
    assert proc.returncode == 2
    assert "arc must look like same:cK or distinct:cK,cL, got 'distinct:c0,c1,c2'" in proc.stderr
    # Labels that are not component ids are usage errors, not missing components.
    for arc, label in (("same:foo", "foo"), ("same:c01", "c01"), ("distinct:c0, c1", " c1")):
        proc = run_cli("stab", str(heegaard2), "--handlebody", "1", "--arc", arc)
        assert proc.returncode == 2
        assert f"component identifiers look like 'c12', got {label!r}" in proc.stderr


def test_destab_warns_about_the_formal_caveat(koda):
    proc = run_cli("destab", str(koda), "--handlebody", "1", "--arc", "distinct:c0,c1")
    assert proc.returncode == 0
    assert "no destabilizing disk certified" in proc.stderr
    state = json.loads(proc.stdout)
    assert "destab" in state["label"]


def test_destab_rejects_illegal_moves(koda):
    proc = run_cli("destab", str(koda), "--handlebody", "1", "--arc", "same:c0")
    assert proc.returncode == 1
    assert "IllegalMove" in proc.stderr


def test_fake_stab_moves_the_profile_diagonally(koda):
    proc = run_cli("fake-stab", str(koda))
    assert proc.returncode == 0
    assert "(1,2,2;2) -> (2,3,2;2)" in proc.stderr


def test_fake_stab_rejects_the_trivial_state(tmp_path):
    path = tmp_path / "trivial.json"
    run_cli("new", "trivial", "-o", str(path))
    assert run_cli("fake-stab", str(path)).returncode == 1


# -- balance, build, replay ----------------------------------------------------------


def test_commands_compose_through_pipes():
    state_text = run_cli("new", "from-heegaard", "2").stdout
    balanced_text = run_cli("balance", stdin_text=state_text).stdout
    proc = run_cli("show", "-", stdin_text=balanced_text)
    assert "profile: (2,2,2;1)" in proc.stdout
    assert "balanced: yes" in proc.stdout
    assert "history: 2 moves" in proc.stdout


def test_balance_script_replays_to_identical_bytes(heegaard2, tmp_path):
    balanced = tmp_path / "balanced.json"
    script = tmp_path / "script.json"
    proc = run_cli(
        "balance", str(heegaard2), "-o", str(balanced), "--script", str(script)
    )
    assert proc.returncode == 0
    assert "balance: 2 moves" in proc.stderr
    replayed = tmp_path / "replayed.json"
    proc = run_cli("replay", str(heegaard2), str(script), "-o", str(replayed))
    assert proc.returncode == 0
    assert replayed.read_bytes() == balanced.read_bytes()


def test_build_heegaard_reports_the_splitting_genus(koda, tmp_path):
    out = tmp_path / "built.json"
    proc = run_cli("build-heegaard", str(koda), "--handlebody", "1", "-o", str(out))
    assert proc.returncode == 0
    assert "Heegaard genus 4" in proc.stderr
    assert "build-heegaard H1: 3 moves" in proc.stderr
    shown = run_cli("show", str(out))
    assert "profile: (4,2,2;1)" in shown.stdout


def test_replay_rejects_malformed_scripts(heegaard2, tmp_path):
    script = tmp_path / "script.json"
    script.write_text("{乱}", encoding="utf-8")
    assert run_cli("replay", str(heegaard2), str(script)).returncode == 2


_SURROGATE_LABEL = state_to_text(from_heegaard(2)).replace(
    '"from-heegaard(genus=2)"', '"\\ud800"'
)

# Histories whose labels replay but that no legal moves make: walking the
# genera back from the stored ones drops one below zero.
_MERGE_INTO_TRIVIAL = json.dumps({
    "version": 1, "label": "", "genera": {"g12": 0, "g13": 0, "g23": 0},
    "link": {"components": ["c2"], "next_id": 3},
    "history": [{"op": "stab", "handlebody": 1, "arc": {"distinct": ["c0", "c1"]},
                 "created": ["c2"], "removed": ["c0", "c1"]}],
})
_ILLEGAL_STAB_FROM_KODA_OZAWA = json.dumps({
    "version": 1, "label": "", "genera": {"g12": 0, "g13": 0, "g23": 1},
    "link": {"components": ["c1", "c4"], "next_id": 5},
    "history": [{"op": "stab", "handlebody": 3, "arc": {"same": "c0"},
                 "created": ["c2", "c3"], "removed": ["c0"]},
                {"op": "destab", "handlebody": 3, "arc": {"distinct": ["c2", "c3"]},
                 "created": ["c4"], "removed": ["c2", "c3"]}],
})


@pytest.mark.parametrize(
    "hostile, state_error, script_error",
    [
        ("[" * 100_000, "state: not valid JSON (", "script: not valid JSON ("),
        ("9" * 5_001, "state: not valid JSON (", "script: not valid JSON ("),
        ('[{"op": "stab", "handlebody": ' + "1" * 5_001 + "}]",
         "state: not valid JSON (", "script: not valid JSON ("),
        (_SURROGATE_LABEL, "state.label: not valid UTF-8 (",
         "script: expected a JSON array of move records"),
        (_MERGE_INTO_TRIVIAL, "state: history step 1 would start from genera",
         "script: expected a JSON array of move records"),
        (_ILLEGAL_STAB_FROM_KODA_OZAWA, "state: history step 2 would start from genera",
         "script: expected a JSON array of move records"),
    ],
    ids=["deep-nesting", "long-integer", "long-integer-in-a-record", "lone-surrogate-label",
         "merge-into-trivial", "illegal-stab-from-koda-ozawa"],
)
def test_hostile_json_is_a_format_error(tmp_path, capsys, hostile, state_error, script_error):
    # In-process, so the nesting reaches the JSON decoder's recursion limit.
    bad = tmp_path / "hostile.json"
    bad.write_text(hostile, encoding="utf-8")
    state = tmp_path / "state.json"
    state.write_text(state_to_text(from_heegaard(2)), encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("[]\n", encoding="utf-8")
    for argv, error in (
        (["show", str(bad)], state_error),
        (["replay", str(bad), str(script)], state_error),
        (["replay", str(state), str(bad)], script_error),
    ):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"StateFormatError: {error}"), err[:200]


def test_huge_integers_are_refused_without_a_traceback(tmp_path, capsys):
    # Within the JSON decoder's digit limit, but h1 = g12 + g13 would not
    # print: a format error for a document, a size error for ``new``.
    nines = int("9" * 4300)
    state = json.loads(state_to_text(from_heegaard(2)))
    state["genera"] |= {"g12": nines, "g13": nines}
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(state), encoding="utf-8")
    assert cli.main(["show", str(huge)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err == "StateFormatError: state.genera.g12: has more than 4000 digits\n"
    for kind in ("open-book", "connect-sum"):
        assert cli.main(["new", kind, "9" * 4300]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"SizeLimitExceeded: new {kind}: "), err[:200]


def test_replay_rejects_inapplicable_scripts(heegaard2, koda, tmp_path):
    script = tmp_path / "script.json"
    run_cli("balance", str(koda), "-o", "/dev/null", "--script", str(script))
    proc = run_cli("replay", str(heegaard2), str(script))
    assert proc.returncode == 1
    assert "script step 1" in proc.stderr


def test_replay_rejects_scripts_whose_labels_differ_from_the_moves(koda, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{
        "op": "stab", "handlebody": 1, "arc": {"distinct": ["c0", "c1"]},
        "created": ["c9"], "removed": ["c0", "c1"],
    }]), encoding="utf-8")
    proc = run_cli("replay", str(koda), str(script))
    assert proc.returncode == 1
    assert "script step 1" in proc.stderr
    assert proc.stdout == ""


def test_replay_refuses_labels_with_a_trailing_newline(koda, tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{
        "op": "stab", "handlebody": 1, "arc": {"distinct": ["c0\n", "c1"]},
        "created": ["c2"], "removed": ["c0\n", "c1"],
    }]), encoding="utf-8")
    assert cli.main(["replay", str(koda), str(script)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "StateFormatError: script[0].arc.distinct[0]: "
        "component identifiers look like 'c12', got 'c0\\n'\n"
    )


# Scripts of one record that names a wrong created label (c9), one per arc
# kind, with the state each starts from and the refusal `replay` prints.
# The refusal holds two record reprs in full, so a changed record text
# shows here and in tests/test_interpreters.py.
WRONG_CREATED = {
    "same": ("from-heegaard 2", [{
        "op": "stab", "handlebody": 3, "arc": {"same": "c0"},
        "created": ["c1", "c9"], "removed": ["c0"],
    }], (
        "IllegalMove: script step 1: the move applies as MoveRecord(op='stab', handlebody=3, "
        "arc=SameComponent(component='c0'), created=('c1', 'c2'), removed=('c0',)), "
        "not as recorded MoveRecord(op='stab', handlebody=3, "
        "arc=SameComponent(component='c0'), created=('c1', 'c9'), removed=('c0',))\n"
    )),
    "distinct": ("koda-ozawa", [{
        "op": "stab", "handlebody": 1, "arc": {"distinct": ["c1", "c0"]},
        "created": ["c9"], "removed": ["c0", "c1"],
    }], (
        "IllegalMove: script step 1: the move applies as MoveRecord(op='stab', handlebody=1, "
        "arc=DistinctComponents(first='c0', second='c1'), created=('c2',), removed=('c0', 'c1')), "
        "not as recorded MoveRecord(op='stab', handlebody=1, "
        "arc=DistinctComponents(first='c0', second='c1'), created=('c9',), removed=('c0', 'c1'))\n"
    )),
}


@pytest.mark.parametrize("kind", sorted(WRONG_CREATED))
def test_replay_refusal_prints_both_records_in_full(kind, tmp_path):
    constructor, records, refusal = WRONG_CREATED[kind]
    state = tmp_path / "state.json"
    assert run_cli("new", *constructor.split(), "-o", str(state)).returncode == 0
    script = tmp_path / "script.json"
    script.write_text(json.dumps(records), encoding="utf-8")
    proc = run_cli("replay", str(state), str(script))
    assert proc.returncode == 1
    assert proc.stderr == refusal
    assert proc.stdout == ""


# -- planning --------------------------------------------------------------------------


def test_plan_emits_a_report(koda, heegaard2, tmp_path):
    report_path = tmp_path / "plan.json"
    proc = run_cli(
        "plan", str(koda), str(heegaard2), "--rs-bound", "1", "-o", str(report_path)
    )
    assert proc.returncode == 0
    report = json.loads(report_path.read_text())
    assert report["final_profile"] == [5, 13, 8, 1]
    assert "final profile (5,13,8;1)" in proc.stderr


def test_plan_report_scripts_replay_through_the_cli(koda, heegaard2, tmp_path):
    report = json.loads(run_cli("plan", str(koda), str(heegaard2), "--rs-bound", "0").stdout)
    state_text = koda.read_text()
    for name in (
        "step1_balance",
        "step2_build",
        "step3_fake",
        "step4_s12_to_disk",
        "step5_s13_to_disk",
    ):
        script_path = tmp_path / f"{name}.json"
        script_path.write_text(json.dumps(report["a"]["steps"][name]), encoding="utf-8")
        proc = run_cli("replay", "-", str(script_path), stdin_text=state_text)
        assert proc.returncode == 0
        state_text = proc.stdout
    final = run_cli("show", "-", stdin_text=state_text)
    profile = "(%d,%d,%d;%d)" % tuple(report["final_profile"])
    assert f"profile: {profile}" in final.stdout


def test_plan_rejects_trivial_inputs(tmp_path, koda):
    path = tmp_path / "trivial.json"
    run_cli("new", "trivial", "-o", str(path))
    proc = run_cli("plan", str(path), str(koda), "--rs-bound", "0")
    assert proc.returncode == 1
    assert "TrivialInput" in proc.stderr


def test_plan_rejects_negative_rs_bound(koda, heegaard2):
    proc = run_cli("plan", str(koda), str(heegaard2), "--rs-bound", "-1")
    assert proc.returncode == 1
    assert "OutOfDomain" in proc.stderr


# -- explore and verify ------------------------------------------------------------------


def test_explore_lists_reachable_nodes_deterministically(heegaard2):
    first = run_cli("explore", "--start", str(heegaard2), "--max-sum", "6")
    second = run_cli("explore", "--start", str(heegaard2), "--max-sum", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert "(2,0,0;b=1) depth=0" in lines
    assert "(1,1,1;b=1) depth=2" in lines
    assert all("depth=" in line for line in lines)


def test_explore_threads_do_not_change_the_listing(heegaard2):
    plain = run_cli("explore", "--start", str(heegaard2), "--max-sum", "8")
    threaded = run_cli(
        "explore", "--start", str(heegaard2), "--max-sum", "8", "--threads", "4"
    )
    assert plain.stdout == threaded.stdout


def test_explore_emits_a_replayable_shortest_script(koda, tmp_path):
    balanced = tmp_path / "balanced.json"
    run_cli("balance", str(koda), "-o", str(balanced))
    proc = run_cli(
        "explore", "--start", str(koda), "--max-sum", "9",
        "--shortest-to", str(balanced),
    )
    assert proc.returncode == 0
    script_path = tmp_path / "shortest.json"
    script_path.write_text(proc.stdout, encoding="utf-8")
    replayed = tmp_path / "replayed.json"
    assert run_cli("replay", str(koda), str(script_path), "-o", str(replayed)).returncode == 0
    assert replayed.read_bytes() == balanced.read_bytes()


def test_explore_reports_notfound_for_unreachable_goals(koda, tmp_path):
    balanced = tmp_path / "balanced.json"
    run_cli("balance", str(koda), "-o", str(balanced))
    proc = run_cli(
        "explore", "--start", str(balanced), "--max-sum", "9",
        "--shortest-to", str(koda),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("NotFound:")


def test_verify_refuses_a_negative_max_sum(tmp_path):
    # A negative bound names an empty range, which would pass every check
    # without checking a node.
    report_path = tmp_path / "verify.json"
    proc = run_cli("verify", "--max-sum", "-3", "-o", str(report_path))
    assert proc.returncode == 2
    assert proc.stderr == "usage error: verify: --max-sum must be at least 0, got -3\n"
    assert proc.stdout == ""
    assert not report_path.exists()


def test_verify_passes_and_writes_a_report(tmp_path):
    report_path = tmp_path / "verify.json"
    proc = run_cli("verify", "--max-sum", "6", "-o", str(report_path))
    assert proc.returncode == 0
    assert proc.stderr.count("PASS") == 5
    report = json.loads(report_path.read_text())
    assert [entry["pass"] for entry in report["entries"]] == [True] * 5


# -- size limits --------------------------------------------------------------------

_CAPPED_BYTES = 256 * 2**20


def run_capped_cli(
    *args: str, stdin_text: str | None = None, cap_bytes: int = _CAPPED_BYTES
) -> subprocess.CompletedProcess:
    # A guard that is missing or comes too late runs into the address-space
    # cap (MemoryError) or the timeout instead of exhausting the host.
    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    return subprocess.run(
        [sys.executable, "-m", "trisections.cli", *args],
        input=stdin_text, capture_output=True, text=True, preexec_fn=cap, timeout=60,
    )


def _assert_refused(proc: subprocess.CompletedProcess, what: str) -> None:
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr.startswith(f"SizeLimitExceeded: {what}"), proc.stderr[-500:]
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_new_refuses_a_huge_boundary_link():
    proc = run_capped_cli("new", "connect-sum", "1000000000")
    _assert_refused(proc, "new connect-sum: the number of boundary components would be 1000000001")
    _assert_refused(run_capped_cli("new", "connect-sum", str(MAX_COMPONENTS)), "new connect-sum")
    assert run_capped_cli("new", "connect-sum", str(MAX_COMPONENTS - 1)).returncode == 0


def test_build_heegaard_refuses_a_huge_script():
    huge = run_cli("new", "open-book", "1000000000").stdout  # b = 1, small file
    proc = run_capped_cli("build-heegaard", "--handlebody", "1", stdin_text=huge)
    _assert_refused(proc, "build-heegaard H1: the script length would be 2000000000")
    # open-book g builds along any handlebody in 2g moves.
    g = MAX_SCRIPT_MOVES // 2 + 1
    edge = run_cli("new", "open-book", str(g)).stdout
    _assert_refused(run_capped_cli("build-heegaard", "--handlebody", "2", stdin_text=edge),
                    f"build-heegaard H2: the script length would be {2 * g}")


def test_balance_refuses_a_huge_script():
    lopsided = run_cli("new", "split-heegaard", "1000000000", "1").stdout
    proc = run_capped_cli("balance", stdin_text=lopsided)
    _assert_refused(proc, "balance: the script length would be 1000000000")


def test_plan_refuses_a_huge_rs_bound(koda, heegaard2):
    proc = run_capped_cli("plan", str(koda), str(heegaard2), "--rs-bound", "100000000")
    _assert_refused(proc, "plan: the fake stabilizations per side would be 100000000")
    over = str(MAX_SCRIPT_MOVES + 1)
    _assert_refused(run_capped_cli("plan", str(koda), str(heegaard2), "--rs-bound", over),
                    f"plan: the fake stabilizations per side would be {over}")


def test_plan_refuses_a_huge_plan(koda, tmp_path):
    # A file of under 300 bytes whose plan would run to millions of
    # records, or about 10**41: refused by its length, before any move.
    huge = tmp_path / "huge.json"
    for g12 in (300_000, 10**40):
        node = MoveGraphNode(g12, 0, 0, 1)
        huge.write_text(state_to_text(node.to_state()), encoding="utf-8")
        assert huge.stat().st_size < 300
        for a, b in ((node, koda_ozawa().genera), (koda_ozawa().genera, node)):
            length = plan_lengths(a, b, 0)[0]
            files = [str(huge) if side is node else str(koda) for side in (a, b)]
            proc = run_capped_cli("plan", *files, "--rs-bound", "0")
            _assert_refused(proc, f"plan: the records of side a would be {length}, over")
    # The edge: one record over the limit, from small inputs and a large
    # rs_bound (five records a side each).
    node, rs_bound = next(
        (node, (MAX_SCRIPT_MOVES + 1 - length) // 5)
        for node in (MoveGraphNode(g12, 0, 0, 1) for g12 in range(1, 20))
        if (MAX_SCRIPT_MOVES + 1 - (length := plan_lengths(node, node, 0)[0])) % 5 == 0
    )
    assert plan_lengths(node, node, rs_bound) == (MAX_SCRIPT_MOVES + 1,) * 2
    huge.write_text(state_to_text(node.to_state()), encoding="utf-8")
    proc = run_capped_cli("plan", str(huge), str(huge), "--rs-bound", str(rs_bound))
    _assert_refused(proc, f"plan: the records of side a would be {MAX_SCRIPT_MOVES + 1}, over")


def test_explore_refuses_a_huge_shortest_script(koda, tmp_path):
    far = tmp_path / "far.json"
    far.write_text(run_cli("new", "open-book", "1000000000").stdout, encoding="utf-8")
    proc = run_capped_cli("explore", "--start", str(koda), "--max-sum", "10000000000",
                          "--shortest-to", str(far))
    _assert_refused(proc, "explore: the script length would be 5999999995")
    # split-heegaard g 2 is (g,2,g-2;1), 2g - 5 moves above koda-ozawa's (1,2,2;2).
    g = (MAX_SCRIPT_MOVES + 6) // 2
    edge = tmp_path / "edge.json"
    edge.write_text(run_cli("new", "split-heegaard", str(g), "2").stdout, encoding="utf-8")
    proc = run_capped_cli("explore", "--start", str(koda), "--max-sum", str(2 * g),
                          "--shortest-to", str(edge))
    _assert_refused(proc, f"explore: the script length would be {MAX_SCRIPT_MOVES + 1}")


def _listed(start, max_sum: int) -> int:
    # The count of explore's listing from a state, capped as explore caps it.
    return _listing(start.genera, max_sum, 1, MAX_NODES)[0]


def test_explore_refuses_a_huge_listing(koda, tmp_path):
    over = f"explore: the nodes listed would be more than the limit of {MAX_NODES}"
    book = tmp_path / "book.json"
    book.write_text(run_cli("new", "open-book", "1").stdout, encoding="utf-8")
    for start, max_sum in ((koda, "10000000000"), (book, "1000000")):
        _assert_refused(run_capped_cli("explore", "--start", str(start), "--max-sum", max_sum), over)
    # The edge: koda-ozawa lists 99,073 nodes at 82 and more than the limit at 83.
    assert _listed(koda_ozawa(), 82) == 99_073
    assert _listed(koda_ozawa(), 83) == MAX_NODES + 1
    _assert_refused(run_capped_cli("explore", "--start", str(koda), "--max-sum", "83"), over)
    # A start high up lists few nodes, however large max_sum, and so does a
    # start at high b, since b moves by one a move.
    for kind, param, max_sum, listed in (("open-book", "100", "606", 256),
                                         ("connect-sum", "1000", "3010", 1_012)):
        high = tmp_path / f"{kind}.json"
        high.write_text(run_cli("new", kind, param).stdout, encoding="utf-8")
        proc = run_capped_cli("explore", "--start", str(high), "--max-sum", max_sum)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stderr == f"explore: {listed} nodes reachable within sum_h <= {max_sum}\n"


def test_the_size_guards_stop_at_once_far_above_the_limit():
    # Each count walks only until it passes the limit, so a request with D
    # near the range of --max-sum is refused in well under a second.
    started = time.perf_counter()
    for start, max_sum in ((open_book(1), 10**6), (koda_ozawa(), 10**10)):
        assert _listed(start, max_sum) == MAX_NODES + 1
    assert node_count(10**9, MAX_NODES) == MAX_NODES + 1
    assert time.perf_counter() - started < 1.0


def test_verify_refuses_a_huge_node_range():
    for max_sum in ("1000000000", "83"):
        _assert_refused(run_capped_cli("verify", "--max-sum", max_sum),
                        f"verify: the nodes with sum_h <= {max_sum} would be more than the limit "
                        f"of {MAX_NODES}")
    # The edge: 99,435 nodes at 82, more than the limit at 83.
    assert node_count(82, MAX_NODES) <= MAX_NODES < node_count(83, MAX_NODES)


def test_verify_holds_one_walk_at_a_time():
    # The common-stabilization check walks each node to the hub and drops
    # the walk.  Holding every node's capped walk, records included, until
    # the hub is known needs more than 64 MB of address space at max_sum 40.
    proc = run_capped_cli("verify", "--max-sum", "40", cap_bytes=64 * 2**20)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stderr.count("PASS") == 5
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def largest_state(tmp_path_factory):
    # The largest state in the writer's layout within MAX_INPUT_BYTES: the
    # H1 build of open-book 74,181, 148,362 records in 35.2 MB.
    text = state_to_text(build_heegaard(open_book(74_181), 1)[0])
    assert MAX_INPUT_BYTES - 479 < len(text.encode("utf-8")) <= MAX_INPUT_BYTES  # 479 bytes a genus
    path = tmp_path_factory.mktemp("largest") / "largest.json"
    path.write_text(text, encoding="utf-8")
    return path


def test_running_out_of_memory_is_one_line(largest_state):
    # Reading a 35.2 MB state needs more than 64 MB of address space: the
    # CLI says so in one line, not a traceback.
    proc = run_capped_cli("show", str(largest_state), cap_bytes=64 * 2**20)
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stderr.startswith("MemoryError: "), proc.stderr[-500:]
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_the_largest_state_in_the_writers_layout_reads_in_bounded_memory(largest_state):
    # Read record by record, with no parse tree beside the records: 128 MB
    # peak RSS on a 2-vCPU Linux host, against 231 MB through json.loads.
    proc = run_capped_cli("show", str(largest_state), cap_bytes=224 * 2**20)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.endswith("history: 148362 moves\n") and proc.stderr == ""


def test_benchmark_requests_are_well_under_the_node_limit():
    # The listings at max_sum 30 and 36 and verify at 10 that the
    # benchmark runs, from its five starts.
    for start in (koda_ozawa(), tunnel_system(1), split_heegaard(2, 1), open_book(1),
                  connect_sum_equal_genus(1)):
        assert _listed(start, 36) <= MAX_NODES // 20
    assert node_count(10, MAX_NODES) <= MAX_NODES // 1000


def test_oversized_inputs_are_refused_before_reading(koda, tmp_path):
    big = tmp_path / "big.json"
    with open(big, "wb") as file:  # sparse: no bytes are written
        file.truncate(MAX_INPUT_BYTES + 1)
    limit = f"the input is over the limit of {MAX_INPUT_BYTES} bytes"
    _assert_refused(run_capped_cli("show", str(big)), f"state: {limit}")
    _assert_refused(run_capped_cli("replay", str(koda), str(big)), f"script: {limit}")
    padded = "[" + " " * MAX_INPUT_BYTES + "]"
    _assert_refused(run_capped_cli("show", "-", stdin_text=padded), f"state: {limit}")
    # At the limit a document is read: here, one that is not JSON.
    with open(big, "wb") as file:
        file.truncate(MAX_INPUT_BYTES)
    proc = run_capped_cli("show", str(big))
    assert proc.returncode == 2 and proc.stderr.startswith("StateFormatError: state: not valid JSON")
    assert proc.stderr.count("\n") == 1


def test_help_exits_cleanly():
    assert run_cli("--help").returncode == 0


# -- one parser per process -----------------------------------------------------------

_PARSER_RUNS = {
    # a usage error, then a valid command
    "usage-then-valid": ([["stab", "--handlebody", "4", "--arc", "same:c0"],
                          ["new", "koda-ozawa"]], [2, 0]),
    # two different subcommands in a row
    "two-commands": ([["new", "from-heegaard", "2"], ["verify", "--max-sum", "3"]], [0, 0]),
    # help, of the program and of a subcommand, then a command
    "help": ([["--help"], ["plan", "--help"], ["new", "trivial"]], [0, 0, 0]),
}


def _outcomes(capsys, runs) -> list[tuple[int, str, str]]:
    outcomes = []
    for argv in runs:
        code = cli.main(argv)
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


@pytest.mark.parametrize("runs, codes", _PARSER_RUNS.values(), ids=_PARSER_RUNS.keys())
def test_the_shared_parser_answers_as_a_fresh_one(monkeypatch, capsys, runs, codes):
    cli._build_parser()  # the process's parser exists before the runs
    shared = _outcomes(capsys, runs)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _outcomes(capsys, runs)
    assert shared == fresh
    assert [code for code, _, _ in shared] == codes
    assert all(out or err for _, out, err in shared)
