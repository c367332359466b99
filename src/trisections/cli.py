"""Command line interface.

State and report JSON goes to ``-o FILE`` when given and to standard
output otherwise, so commands compose through pipes; human-readable
summaries go to standard error.  Exit codes: 0 on success, 1 on domain
errors (illegal move, infeasible or out-of-domain input, trivial input,
nothing found within a search bound, a request over a size limit) and
when memory runs out, 2 on usage or file format errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from .core import (
    CONSTRUCTORS,
    TrisectionError,
    TrisectionState,
    component_number,
    construct,
    construct_profile,
)
from .moves import (
    DESTAB_CAVEAT,
    DestabMove,
    DistinctComponents,
    SameComponent,
    StabMove,
    apply_destabilization,
    apply_stabilization,
    balance,
    balance_length,
    build_heegaard,
    disk_length,
    fake_heegaard_stab,
)
from .explorer import _listing, node_count, realize_path, shortest_path, verify_properties
from .planner import plan_common_stabilization, plan_lengths, replay
from .serialize import (
    INT_BOUND,
    MAX_DIGITS,
    StateFormatError,
    plan_report_to_text,
    script_from_text,
    script_to_text,
    state_from_text,
    state_to_text,
    verification_report_to_text,
)


# Size limits, checked arithmetically before any work starts: one move
# is cheap, but a request for billions of them or of components would
# run for hours or exhaust memory.
MAX_COMPONENTS = 100_000
MAX_SCRIPT_MOVES = 100_000
# The most nodes explore may list or verify check, counted exactly by a
# walk that stops past this limit (verify accepts max_sum up to 82).
MAX_NODES = 100_000
# The largest document read, sized for a history or script of
# MAX_SCRIPT_MOVES records and a link of MAX_COMPONENTS labels, at up to
# 320 bytes a record and 32 a label (this program writes a record with
# eight-character labels in a state's history in at most 272 bytes, such
# a label in 16).  The reader does not count records: a state in this
# program's layout packs about 148,000 records under the limit (about 237
# bytes each at b = 1), and a minified one about 3 * MAX_SCRIPT_MOVES.
MAX_INPUT_BYTES = 320 * MAX_SCRIPT_MOVES + 32 * MAX_COMPONENTS


class _UsageError(Exception):
    pass


class SizeLimitExceeded(TrisectionError):
    """A request is larger than the CLI's size limits."""


def _check_size(what: str, size: int, limit: int) -> None:
    if size > limit:
        raise SizeLimitExceeded(f"{what} would be {size}, over the limit of {limit}")


def _check_nodes(what: str, count: int) -> None:
    # The count stops at MAX_NODES + 1, so a refusal names the limit alone.
    if count > MAX_NODES:
        raise SizeLimitExceeded(f"{what} would be more than the limit of {MAX_NODES}")


def _read_text(path: str, context: str) -> str:
    # A file over MAX_INPUT_BYTES is refused by its size, and no more than
    # MAX_INPUT_BYTES + 1 bytes are read from anywhere.  The bytes decode as
    # a read in text mode would: a file as UTF-8 with universal newlines,
    # standard input by its own stream's settings.
    limit = MAX_INPUT_BYTES
    if path == "-":
        if sys.stdin is None:  # as Python leaves it when started with fd 0 closed
            raise OSError("standard input is closed")
        data = sys.stdin.buffer.read(limit + 1)
    else:
        with open(path, "rb") as file:
            data = file.read(limit + 1) if os.fstat(file.fileno()).st_size <= limit else None
    if data is None or len(data) > limit:
        raise SizeLimitExceeded(f"{context}: the input is over the limit of {limit} bytes")
    try:
        if path == "-":
            return data.decode(sys.stdin.encoding, sys.stdin.errors)
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as error:
        raise StateFormatError(f"{context}: not valid UTF-8 ({error})") from error


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        if sys.stdout is None:  # as Python leaves it when started with fd 1 closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_state(path: str) -> TrisectionState:
    return state_from_text(_read_text(path, "state"))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _arc_argument(text: str) -> SameComponent | DistinctComponents:
    kind, _, rest = text.partition(":")
    labels = rest.split(",")
    if all(labels) and (kind, len(labels)) in (("same", 1), ("distinct", 2)):
        try:
            for label in labels:
                component_number(label)
            return SameComponent(*labels) if kind == "same" else DistinctComponents(*labels)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from error
    raise argparse.ArgumentTypeError(
        f"arc must look like same:cK or distinct:cK,cL, got {text!r}"
    )


def _cmd_new(args: argparse.Namespace) -> int:
    _, names = CONSTRUCTORS[args.kind]
    if len(args.params) != len(names):
        wanted = " ".join(names) if names else "(none)"
        raise _UsageError(f"constructor {args.kind!r} takes parameters: {wanted}")
    profile = construct_profile(args.kind, tuple(args.params))
    if max(profile.as_tuple()) >= INT_BOUND:
        raise SizeLimitExceeded(
            f"new {args.kind}: the profile would have an entry of more than {MAX_DIGITS} digits"
        )
    _check_size(f"new {args.kind}: the number of boundary components", profile.b, MAX_COMPONENTS)
    state = construct(args.kind, tuple(args.params))
    _write_text(args.output, state_to_text(state))
    _note(f"new {args.kind}: profile {state.profile}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    genera = state.genera
    yesno = {True: "yes", False: "no"}
    lines = [
        f"label: {state.label}",
        f"profile: {state.profile}",
        f"genera: g12={genera.g12} g13={genera.g13} g23={genera.g23}",
        f"boundary components (b={state.b}): {' '.join(state.link.components)}",
        "feasible: yes",
        f"balanced: {yesno[state.is_balanced]}",
        f"trivial: {yesno[state.is_trivial]}",
        f"history: {len(state.history)} moves",
    ]
    _write_text(None, "".join(line + "\n" for line in lines))
    return 0


def _cmd_move(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    if args.command == "stab":
        after = apply_stabilization(state, StabMove(args.handlebody, args.arc))
    else:
        after = apply_destabilization(state, DestabMove(args.handlebody, args.arc))
    _write_text(args.output, state_to_text(after))
    _note(f"{args.command} H{args.handlebody}: profile {state.profile} -> {after.profile}")
    if args.command == "destab":
        _note(f"note: {DESTAB_CAVEAT}")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    _check_size("balance: the script length", balance_length(state), MAX_SCRIPT_MOVES)
    after, script = balance(state)
    _write_text(args.output, state_to_text(after))
    if args.script is not None:
        _write_text(args.script, script_to_text(script))
    _note(f"balance: {len(script)} moves -> profile {after.profile}")
    return 0


def _cmd_build_heegaard(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    _check_size(
        f"build-heegaard H{args.handlebody}: the script length",
        disk_length(state, args.handlebody),
        MAX_SCRIPT_MOVES,
    )
    after, genus, script = build_heegaard(state, args.handlebody)
    _write_text(args.output, state_to_text(after))
    if args.script is not None:
        _write_text(args.script, script_to_text(script))
    _note(
        f"build-heegaard H{args.handlebody}: {len(script)} moves -> "
        f"profile {after.profile}; Heegaard genus {genus}"
    )
    return 0


def _cmd_fake_stab(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    after = fake_heegaard_stab(state)
    _write_text(args.output, state_to_text(after))
    _note(f"fake-stab: profile {state.profile} -> {after.profile}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _check_size("plan: the fake stabilizations per side", args.rs_bound, MAX_SCRIPT_MOVES)
    a = _read_state(args.a)
    b = _read_state(args.b)
    for side, length in zip("ab", plan_lengths(a.genera, b.genera, args.rs_bound)):
        _check_size(f"plan: the records of side {side}", length, MAX_SCRIPT_MOVES)
    report = plan_common_stabilization(a, b, args.rs_bound)
    _write_text(args.output, plan_report_to_text(report))
    _note(
        f"plan: rs_bound={report.rs_bound}; final profile {report.final_profile} "
        f"(a: {len(report.a.concatenated())} records, "
        f"b: {len(report.b.concatenated())} records)"
    )
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    state = _read_state(args.start)
    start = state.genera
    if args.shortest_to is not None:
        goal = _read_state(args.shortest_to).genera
        path = None
        if goal.sum_h() <= args.max_sum:
            length = goal.sum_h() - start.sum_h()
            _check_size("explore: the script length", length, MAX_SCRIPT_MOVES)
            path = shortest_path(start, goal)
        if path is None:
            _note(f"NotFound: no stabilization script from {start} to {goal} within sum_h <= {args.max_sum}")
            return 1
        _, script = realize_path(state, path)
        _write_text(None, script_to_text(script))
        _note(f"explore: shortest script has {len(script)} moves")
        return 0
    # One walk counts the listing, stopping past the limit, and gives its
    # blocks as ints; each line is formatted from them, one head a block.
    count, blocks = _listing(start, args.max_sum, 1, MAX_NODES)
    _check_nodes("explore: the nodes listed", count)
    lines = []
    for g12, g13, g23, values, depth in blocks:
        head = f"({g12},{g13},{g23};b="
        lines += [f"{head}{b}) depth={depth + 3 * b}\n" for b in values]
    _write_text(None, "".join(lines))
    _note(f"explore: {count} nodes reachable within sum_h <= {args.max_sum}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_sum < 0:  # an empty range, which checks nothing
        raise _UsageError(f"verify: --max-sum must be at least 0, got {args.max_sum}")
    _check_nodes(f"verify: the nodes with sum_h <= {args.max_sum}", node_count(args.max_sum, MAX_NODES))
    report = verify_properties(args.max_sum)
    _write_text(args.output, verification_report_to_text(report))
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        extra = f", slack={entry.slack}" if entry.slack is not None else ""
        _note(f"{status} {entry.name} (max_sum={entry.max_sum}{extra})")
    return 0 if report.all_passed else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    state = _read_state(args.file)
    script = script_from_text(_read_text(args.script, "script"))
    after = replay(state, script)
    _write_text(args.output, state_to_text(after))
    _note(f"replay: {len(script)} records -> profile {after.profile}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing reads the parser and changes nothing
    # in it, and help and errors find sys.stdout and sys.stderr when printed.
    parser = argparse.ArgumentParser(
        prog="trisect",
        description="Combinatorial engine for trisections of closed orientable 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("new", _cmd_new, "construct a fresh trisection state")
    p.add_argument("kind", choices=sorted(CONSTRUCTORS))
    p.add_argument("params", nargs="*", type=int, help="constructor parameters")
    p.add_argument("-o", "--output", help="state file (default: stdout)")

    p = add("show", _cmd_show, "print a state's profile, genera and flags")
    p.add_argument("file", help="state file ('-' for stdin)")

    for name in ("stab", "destab"):
        p = add(name, _cmd_move, f"apply one {'formal de' if name == 'destab' else ''}stabilization")
        p.add_argument("file", nargs="?", default="-", help="state file ('-' for stdin)")
        p.add_argument("--handlebody", type=int, required=True, choices=(1, 2, 3))
        p.add_argument("--arc", type=_arc_argument, required=True,
                       help="same:cK or distinct:cK,cL")
        p.add_argument("-o", "--output", help="state file (default: stdout)")

    p = add("balance", _cmd_balance, "stabilize until the three genera agree")
    p.add_argument("file", nargs="?", default="-", help="state file ('-' for stdin)")
    p.add_argument("-o", "--output", help="state file (default: stdout)")
    p.add_argument("--script", help="also write the applied script here")

    p = add("build-heegaard", _cmd_build_heegaard,
            "stabilize one handlebody until the state is a Heegaard splitting")
    p.add_argument("file", nargs="?", default="-", help="state file ('-' for stdin)")
    p.add_argument("--handlebody", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("-o", "--output", help="state file (default: stdout)")
    p.add_argument("--script", help="also write the applied script here")

    p = add("fake-stab", _cmd_fake_stab, "apply one compound fake Heegaard stabilization")
    p.add_argument("file", nargs="?", default="-", help="state file ('-' for stdin)")
    p.add_argument("-o", "--output", help="state file (default: stdout)")

    p = add("plan", _cmd_plan, "plan a common stabilization of two states")
    p.add_argument("a", help="first state file")
    p.add_argument("b", help="second state file")
    p.add_argument("--rs-bound", type=int, required=True,
                   help="number of fake Heegaard stabilizations per side")
    p.add_argument("-o", "--output", help="report file (default: stdout)")

    p = add("explore", _cmd_explore, "list reachable nodes, or a shortest script to one")
    p.add_argument("--start", required=True, help="state file ('-' for stdin)")
    p.add_argument("--max-sum", type=int, required=True,
                   help="bound on h1+h2+h3 of visited nodes")
    p.add_argument("--shortest-to", help="state file; emit a shortest script to it")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored")

    p = add("verify", _cmd_verify, "check engine properties over a node range")
    p.add_argument("--max-sum", type=int, required=True)
    p.add_argument("-o", "--output", help="report file (default: stdout)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored")

    p = add("replay", _cmd_replay, "replay a move script against a state")
    p.add_argument("file", help="state file ('-' for stdin)")
    p.add_argument("script", help="script file (a JSON array of move records)")
    p.add_argument("-o", "--output", help="state file (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except _UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except StateFormatError as error:
        print(f"StateFormatError: {error}", file=sys.stderr)
        return 2
    except TrisectionError as error:
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"IO error: {error}", file=sys.stderr)
        return 2
    except MemoryError as error:
        print(f"MemoryError: {str(error) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
