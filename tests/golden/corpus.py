"""The golden corpus: CLI invocations whose output bytes are pinned.

Each group is a run of steps in one fresh directory, so a later step
reads the files an earlier one wrote.  A step is either a ``trisect``
argument list, run in process through :func:`trisections.cli.main`, or
an ``("edit", file, old, new)`` tuple that replaces the first ``old`` in
a file, or the whole file when ``old`` is None, to change a document
before a step reads it.  An argument list may hold ``"|"``: it is then a
pipeline whose every stage after the first reads the standard output of
the one before as its standard input.  Each invocation has one SHA-256
over its exit code, standard output, standard error and the files it
wrote or changed; ``digests.json`` holds them by id.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from trisections import cli

DIGESTS = Path(__file__).with_name("digests.json")

_KINDS = [
    ["trivial"], ["from-heegaard", "0"], ["from-heegaard", "2"], ["split-heegaard", "3", "1"],
    ["open-book", "1"], ["tunnel", "2"], ["connect-sum", "2"], ["connect-sum", "1100"],
    ["surface-bundle", "1"], ["surface-bundle", "2"], ["koda-ozawa"],
]

# The starts of the benchmark's explore requests (CliIO.STARTS in bench/workloads.py).
_BENCH_STARTS = [
    ["koda-ozawa"], ["tunnel", "1"], ["split-heegaard", "2", "1"], ["open-book", "1"],
    ["connect-sum", "1"],
]

# The state d1.json of the "layouts" group, as json.dumps writes it with
# separators (",", ":"); and a label with every kind of escape.
_MINIFIED = (
    '{"version":1,"label":"from-heegaard(genus=2) | formal destab: parameter-level inverse only; '
    'no destabilizing disk certified","genera":{"g12":2,"g13":0,"g23":0},"link":{"components":'
    '["c3"],"next_id":4},"history":[{"op":"stab","handlebody":3,"arc":{"same":"c0"},"created":'
    '["c1","c2"],"removed":["c0"]},{"op":"destab","handlebody":3,"arc":{"distinct":["c1","c2"]},'
    '"created":["c3"],"removed":["c1","c2"]}]}'
)
_ESCAPED_LABEL = r'"tab\t quote\" slash\/ backslash\\ \u00e9 é \ud83d\ude00 \u0001 \u2028 \u0063"'


def _script_text(records: list[str]) -> str:
    # A script in the writer's layout from records written as
    # "op handlebody arc created removed", each list of labels comma-joined;
    # an arc of one label is a one-component arc.
    items = []
    for record in records:
        op, handlebody, arc, created, removed = record.split()
        ends = arc.split(",")
        items.append({"op": op, "handlebody": int(handlebody),
                      "arc": {"same": ends[0]} if len(ends) == 1 else {"distinct": ends},
                      "created": created.split(","), "removed": removed.split(",")})
    return json.dumps(items, indent=2) + "\n"


# Side a of the plan from koda-ozawa to from-heegaard 2 at rs_bound 3, by
# hand: step 1's merge, step 2's split and merge, three fake stabilizations
# (the second on the pair c9, c10, of two lengths and in string order), and
# the split/merge pairs that make S12 and then S13 disks.
_PLAN_RECORDS = [
    "stab 1 c0,c1 c2 c0,c1",
    "stab 1 c2 c3,c4 c2",
    "stab 1 c3,c4 c5 c3,c4",
    "fake_stab 1 c6,c7 c8 c5",
    "fake_stab 1 c10,c9 c11 c8",
    "fake_stab 1 c12,c13 c14 c11",
    *(pair for i, first, count in ((3, 14, 5), (2, 29, 7)) for n in range(first, first + 3 * count, 3)
      for pair in (f"stab {i} c{n} c{n + 1},c{n + 2} c{n}",
                   f"stab {i} c{n + 1},c{n + 2} c{n + 3} c{n + 1},c{n + 2}")),
]
_PLAN_SCRIPT = _script_text(_PLAN_RECORDS)

# Two fake stabilizations of connect-sum 1100 (b = 1,101), whose labels
# lie past c1023.
_FAKE_SCRIPT = _script_text(["fake_stab 1 c1101 c1102,c1103 c0,c1",
                             "fake_stab 1 c1104 c1105,c1106 c10,c100"])

# The merge of c1999 and c2000 in the history of the H1 build of open-book
# 700, as the writer lays it out.
_MERGE_2001 = (
    '    {\n      "op": "stab",\n      "handlebody": 1,\n      "arc": {\n        "distinct": [\n'
    '          "c1999",\n          "c2000"\n        ]\n      },\n      "created": [\n'
    '        "c2001"\n      ],\n      "removed": [\n        "c1999",\n        "c2000"\n      ]\n'
    "    },\n"
)

# Copies of that build, each with (old, new) edits that fail one check of
# the stored history: a created label off by one past c1023; a split of
# c5, long dead; components and next_id that the replay does not reach;
# g12 too low for the 700 merges, so that the genera start below zero at
# step 400, or at steps 2 and 4, of which the walk back names 4; and a
# merge dropped, so that the history implies no initial component.
_STORED_FAULTS = (
    ("created", [('"c1999",\n        "c2000"', '"c1999",\n        "c2001"')]),
    ("removed", [('"same": "c1998"', '"same": "c5"'),
                 ('"removed": [\n        "c1998"', '"removed": [\n        "c5"')]),
    ("components", [('"components": [\n      "c2100"', '"components": [\n      "c2099"')]),
    ("next_id", [('"next_id": 2101', '"next_id": 2102')]),
    ("middle", [('"g12": 1400', '"g12": 500')]),
    ("twice", [('"g12": 1400', '"g12": 698')]),
    ("initial", [(_MERGE_2001, "")]),
)

GROUPS: dict[str, list] = {
    "new": [["new", *kind] for kind in _KINDS] + [
        ["new", "open-book", "1", "-o", "open-book.json"],
        ["show", "open-book.json"],
        ["new", "from-heegaard", "-1"],
        ["new", "surface-bundle", "0"],
    ],
    "moves": [
        ["new", "from-heegaard", "2", "-o", "h2.json"],
        ["stab", "h2.json", "--handlebody", "3", "--arc", "same:c0", "-o", "s1.json"],
        ["destab", "s1.json", "--handlebody", "3", "--arc", "distinct:c1,c2", "-o", "d1.json"],
        ["show", "d1.json"],
        ["stab", "s1.json", "--handlebody", "1", "--arc", "distinct:c1,c2"],
        ["stab", "h2.json", "--handlebody", "2", "--arc", "same:c0"],
        ["stab", "h2.json", "--handlebody", "3", "--arc", "same:c9"],
        ["destab", "h2.json", "--handlebody", "3", "--arc", "same:c0"],
        ["new", "open-book", "1", "-o", "ob.json"],
        ["fake-stab", "ob.json", "-o", "f1.json"],
        ["fake-stab", "f1.json"],
        ["new", "koda-ozawa", "-o", "koda.json"],
        ["fake-stab", "koda.json"],
        ["fake-stab", "h2.json"],
        ["new", "connect-sum", "1100", "-o", "cs.json"],
        ["stab", "cs.json", "--handlebody", "2", "--arc", "distinct:c1099,c1100", "-o", "cs2.json"],
        ["stab", "cs2.json", "--handlebody", "3", "--arc", "same:c1101"],
        ["stab", "cs.json", "--handlebody", "3", "--arc", "distinct:c1023,c1024"],
        ["stab", "cs.json", "--handlebody", "3", "--arc", "same:c1023"],
        ["destab", "cs.json", "--handlebody", "1", "--arc", "distinct:c0,c1100"],
    ],
    "scripts": [
        ["new", "tunnel", "2", "-o", "tunnel.json"],
        ["balance", "tunnel.json", "-o", "balanced.json", "--script", "balance.json"],
        ["replay", "tunnel.json", "balance.json"],
        *(step for i in "123" for step in (
            ["build-heegaard", "balanced.json", "--handlebody", i, "--script", f"build{i}.json"],
            ["replay", "balanced.json", f"build{i}.json", "-o", f"built{i}.json"],
        )),
        ("edit", "build1.json", '"c7"', '"c9"'),
        ["replay", "balanced.json", "build1.json"],
    ],
    "plan": [
        ["new", "from-heegaard", "2", "-o", "a.json"],
        ["new", "koda-ozawa", "-o", "b.json"],
        ["plan", "a.json", "b.json", "--rs-bound", "0"],
        ["plan", "a.json", "b.json", "--rs-bound", "1", "-o", "plan1.json"],
        ["plan", "b.json", "a.json", "--rs-bound", "2"],
        ["plan", "a.json", "b.json", "--rs-bound", "-1"],
        ["new", "trivial", "-o", "t.json"],
        ["plan", "a.json", "t.json", "--rs-bound", "1"],
    ],
    "explore": [
        ["new", "from-heegaard", "2", "-o", "a.json"],
        ["new", "open-book", "1", "-o", "b.json"],
        ["explore", "--start", "a.json", "--max-sum", "8"],
        ["explore", "--start", "a.json", "--max-sum", "8", "--shortest-to", "b.json"],
        ["explore", "--start", "b.json", "--max-sum", "8", "--shortest-to", "a.json"],
        # The listing's edges: the trivial start lists only itself, a start
        # above the bound lists nothing, a zero height lies outside its own
        # cone, b = 2, and a request at the CLI's size limit.
        ["new", "trivial", "-o", "t.json"],
        ["explore", "--start", "t.json", "--max-sum", "4"],
        ["explore", "--start", "b.json", "--max-sum", "5"],
        ["new", "from-heegaard", "3", "-o", "h3.json"],
        ["explore", "--start", "h3.json", "--max-sum", "20"],
        ["new", "koda-ozawa", "-o", "koda.json"],
        ["explore", "--start", "koda.json", "--max-sum", "36"],
        ["new", "connect-sum", "1000", "-o", "cs.json"],
        ["explore", "--start", "cs.json", "--max-sum", "3008"],
        # Listings that a bound far above their length once refused.
        ["explore", "--start", "cs.json", "--max-sum", "3010"],
        ["new", "open-book", "200", "-o", "ob200.json"],
        ["explore", "--start", "ob200.json", "--max-sum", "1230"],
        ["new", "open-book", "2000", "-o", "ob2000.json"],
        ["explore", "--start", "ob2000.json", "--max-sum", "12030"],
    ],
    "verify": [["verify", "--max-sum", str(n)] for n in range(7)] + [
        ["verify", "--max-sum", "6", "-o", "verify6.json"],
    ],
    "refusals": [
        ["new", "from-heegaard"],
        ["verify", "--max-sum", "-1"],
        ["new", "connect-sum", "100000"],
        # Over the node limit: at its edge and far above it.
        ["new", "koda-ozawa", "-o", "koda.json"],
        ["explore", "--start", "koda.json", "--max-sum", "83"],
        ["explore", "--start", "koda.json", "--max-sum", "10000000000"],
        ["new", "open-book", "1", "-o", "ob.json"],
        ["explore", "--start", "ob.json", "--max-sum", "1000000"],
        ["verify", "--max-sum", "83"],
        ["verify", "--max-sum", "1000000000"],
    ],
    # The benchmark's exact explore and verify requests: its five starts
    # at both of its bounds, and verify at its bound to stdout and to a file.
    "bench": [
        *(step for n, kind in enumerate(_BENCH_STARTS) for step in (
            ["new", *kind, "-o", f"start{n}.json"],
            ["explore", "--start", f"start{n}.json", "--max-sum", "30"],
            ["explore", "--start", f"start{n}.json", "--max-sum", "36"],
        )),
        ["verify", "--max-sum", "10"],
        ["verify", "--max-sum", "10", "-o", "verify10.json"],
    ],
    # argparse's own errors, wrapped to the COLUMNS the runner pins.
    "usage": [
        ["frobnicate"],
        ["verify"],
        ["stab", "--handlebody", "4", "--arc", "same:c0"],
    ],
    # Documents in and out of the writer's layout: piped input through
    # "-", a minified state and a label that needs escaping.
    "layouts": [
        ["new", "koda-ozawa", "|", "show", "-"],
        ["new", "tunnel", "2", "-o", "tunnel.json"],
        ["balance", "tunnel.json", "-o", "balanced.json", "--script", "balance.json"],
        ["new", "tunnel", "2", "|", "replay", "-", "balance.json"],
        ["new", "tunnel", "2", "|", "balance", "-", "|", "stab", "-", "--handlebody", "1",
         "--arc", "distinct:c4,c5", "|", "destab", "-", "--handlebody", "1", "--arc", "same:c6",
         "|", "show", "-"],
        ["new", "from-heegaard", "2", "-o", "h2.json"],
        ["stab", "h2.json", "--handlebody", "3", "--arc", "same:c0", "-o", "s1.json"],
        ["destab", "s1.json", "--handlebody", "3", "--arc", "distinct:c1,c2", "-o", "d1.json"],
        ("edit", "d1.json", None, _MINIFIED),
        ["show", "d1.json"],
        ["stab", "d1.json", "--handlebody", "3", "--arc", "same:c3"],
        ["destab", "s1.json", "--handlebody", "3", "--arc", "distinct:c1,c2", "-o", "d2.json"],
        ("edit", "d2.json", '  "version": 1,\n', '  "version": 2,\n  "version": 1,\n'),
        ["show", "d2.json"],
        ("edit", "h2.json", '"from-heegaard(genus=2)"', _ESCAPED_LABEL),
        ["show", "h2.json"],
        ["stab", "h2.json", "--handlebody", "3", "--arc", "same:c0"],
        ["new", "from-heegaard", "2", "|", "show", "-"],
    ],
    # Scripts replayed a run at a time: refused replays of mutated balance
    # and plan scripts, a plan script by hand with fake stabilizations,
    # and an H1 build at b = 1 whose split/merge pairs cross c99/c100,
    # c999/c1000 and the end of core.LABELS (c1023/c1024).
    "replays": [
        ["new", "tunnel", "2", "-o", "tunnel.json"],
        ["balance", "tunnel.json", "-o", "balanced.json", "--script", "balance.json"],
        ("edit", "balance.json", '"handlebody": 1', '"handlebody": 3'),
        ["replay", "tunnel.json", "balance.json"],
        ["balance", "tunnel.json", "--script", "balance2.json"],
        ("edit", "balance2.json", '"c3"', '"c4"'),
        ["replay", "tunnel.json", "balance2.json"],
        ["new", "koda-ozawa", "-o", "koda.json"],
        ("edit", "plan.json", None, _PLAN_SCRIPT),
        ["replay", "koda.json", "plan.json"],
        ["replay", "koda.json", "plan.json", "-o", "planned.json"],
        ["show", "planned.json"],
        ("edit", "plan1.json", None, _PLAN_SCRIPT),
        ("edit", "plan1.json", '"c11"', '"c12"'),
        ["replay", "koda.json", "plan1.json"],
        ("edit", "plan2.json", None, _PLAN_SCRIPT),
        ("edit", "plan2.json", '"handlebody": 3', '"handlebody": 1'),
        ["replay", "koda.json", "plan2.json"],
        # Without step 27, the split of c44, the pair of the next is not live.
        ("edit", "plan3.json", None, _script_text(_PLAN_RECORDS[:26] + _PLAN_RECORDS[27:])),
        ["replay", "koda.json", "plan3.json"],
        ["new", "open-book", "400", "-o", "ob.json"],
        ["build-heegaard", "ob.json", "--handlebody", "1", "--script", "build.json",
         "-o", "built.json"],
        ["replay", "ob.json", "build.json"],
        # A fake_stab record at b = 2 and then a destab at b = 2 (a merge),
        # both in one replayed script; and fake_stab records whose labels lie
        # past c1023, the second on the pair c10, c100 of two lengths, replayed
        # as written and with a created label off by one.
        ("edit", "koda2.json", None, _script_text(["fake_stab 1 c2 c3,c4 c0,c1",
                                                    "destab 1 c3,c4 c5 c3,c4"])),
        ["replay", "koda.json", "koda2.json"],
        ["new", "connect-sum", "1100", "-o", "cs.json"],
        ("edit", "fakes.json", None, _FAKE_SCRIPT),
        ["replay", "cs.json", "fakes.json"],
        ("edit", "fakes1.json", None, _FAKE_SCRIPT),
        ("edit", "fakes1.json", '"c1106"', '"c1107"'),
        ["replay", "cs.json", "fakes1.json"],
    ],
    # Shortest scripts from explore: one from b = 99 to b = 1,021 whose
    # created labels cross c99/c100 and c1023/c1024, a short one at high b,
    # a goal out of reach only by b, and a goal above --max-sum.
    "shortest": [
        ["new", "connect-sum", "98", "-o", "cs98.json"],
        ["new", "connect-sum", "1020", "-o", "cs1020.json"],
        ["new", "connect-sum", "1021", "-o", "cs1021.json"],
        ["explore", "--start", "cs98.json", "--max-sum", "3060", "--shortest-to", "cs1020.json"],
        ["explore", "--start", "cs1020.json", "--max-sum", "3063", "--shortest-to", "cs1021.json"],
        ["new", "connect-sum", "5", "-o", "cs5.json"],
        ["new", "open-book", "3", "-o", "ob3.json"],
        ["explore", "--start", "cs5.json", "--max-sum", "30", "--shortest-to", "ob3.json"],
        ["new", "from-heegaard", "2", "-o", "h2.json"],
        ["new", "open-book", "1", "-o", "ob1.json"],
        ["explore", "--start", "h2.json", "--max-sum", "5", "--shortest-to", "ob1.json"],
        ["explore", "--start", "h2.json", "--max-sum", "6", "--shortest-to", "ob1.json"],
    ],
    # Canonical runs from states with a history, whose labels are not
    # c0 .. c<b-1> and whose next_id is above b: a shortest script whose
    # labels cross c9/c10, balance at b >= 2 and at b = 1 past c1023, a
    # fake stabilization at b = 1 past c1023, and a plan at high b.
    "histories": [
        ["new", "connect-sum", "5", "-o", "cs5.json"],
        ["stab", "cs5.json", "--handlebody", "1", "--arc", "distinct:c0,c1", "-o", "s.json"],
        ["new", "connect-sum", "8", "-o", "cs8.json"],
        ["explore", "--start", "s.json", "--max-sum", "40", "--shortest-to", "cs8.json"],
        ["balance", "s.json", "--script", "balance.json"],
        ["new", "connect-sum", "1100", "-o", "cs1100.json"],
        ["build-heegaard", "cs1100.json", "--handlebody", "1", "-o", "built.json"],
        ["balance", "built.json", "--script", "balance2.json"],
        ["fake-stab", "built.json"],
        ["new", "connect-sum", "40", "-o", "cs40.json"],
        ["new", "koda-ozawa", "-o", "koda.json"],
        ["plan", "cs40.json", "koda.json", "--rs-bound", "1"],
    ],
    # A stored history past c1023 (the H1 build of open-book 700: labels up
    # to c2100, g12 and g13 rising by one at each merge), read as built and
    # in copies edited to fail each check of the history in turn.
    "stored": [
        ["new", "open-book", "700", "-o", "ob.json"],
        ["build-heegaard", "ob.json", "--handlebody", "1", "-o", "built.json"],
        ["show", "built.json"],
        *(step for name, edits in _STORED_FAULTS for step in (
            ["build-heegaard", "ob.json", "--handlebody", "1", "-o", f"{name}.json"],
            *(("edit", f"{name}.json", old, new) for old, new in edits),
            ["show", f"{name}.json"],
        )),
    ],
}


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def _invoke(argv: list[str], stdin: str | None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _run(step: list[str]) -> tuple:
    # One invocation as (exit code, stdout, stderr); a pipeline as the
    # tuple of its exit codes, its last stdout and every stderr in turn.
    stages, stage = [], []
    for arg in step:
        if arg == "|":
            stages.append(stage)
            stage = []
        else:
            stage.append(arg)
    stages.append(stage)
    codes, out, errs = [], None, []
    for argv in stages:
        code, out, err = _invoke(argv, out)
        codes.append(code)
        errs.append(err)
    if len(stages) == 1:
        return codes[0], out, errs[0]
    return tuple(codes), out, "".join(errs)


def run_group(name: str, directory: Path) -> dict[str, str]:
    """Run one group in ``directory`` (the working directory meanwhile); its digests by id.

    ``COLUMNS`` is pinned meanwhile, since argparse wraps its usage text to it.
    """
    digests = {}
    before = _files(directory)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        for step in GROUPS[name]:
            if step[0] == "edit":
                _, file, old, new = step
                path = Path(file)
                text = "" if old is None else path.read_text(encoding="utf-8")
                if old is not None and old not in text:
                    raise ValueError(f"{name}: {file} does not hold {old!r}")
                path.write_text(new if old is None else text.replace(old, new, 1), encoding="utf-8")
                before = _files(directory)
                continue
            code, out, err = _run(step)
            after = _files(directory)
            written = sorted((file, data) for file, data in after.items() if before.get(file) != data)
            before = after
            blob = repr((code, out, err, written)).encode("utf-8")
            digests[f"{name}: {' '.join(step)}"] = hashlib.sha256(blob).hexdigest()
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return digests
