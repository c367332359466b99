"""JSON wire formats: state files, move scripts, plan and verify reports.

All formats are UTF-8 JSON with fixed key order, so identical inputs
produce byte-identical files.  Parsing is strict: unknown fields,
missing fields, integers of more than :data:`MAX_DIGITS` digits,
malformed identifiers and malformed records are all rejected with
:class:`StateFormatError`.  This module checks the format only:
whether legal moves make a state's history and reach its stored link
and genera is checked in :mod:`trisections.moves`, whose
``IllegalMove`` the reader re-raises as a ``StateFormatError`` that
starts with ``state:``.

A state file looks like::

    {
      "version": 1,
      "label": "from-heegaard(genus=2)",
      "genera": {"g12": 2, "g13": 0, "g23": 0},
      "link": {"components": ["c0"], "next_id": 1},
      "history": []
    }

A move script is a bare JSON array of move records such as::

    {"op": "stab", "handlebody": 3, "arc": {"same": "c0"},
     "created": ["c1", "c2"], "removed": ["c0"]}

State histories hold only ``stab`` and ``destab`` records (a compound
fake Heegaard stabilization stores its two constituents); scripts may
also hold ``fake_stab`` records, replayed as the compound move.

The ``*_to_text`` writers build every document from templates, in the
bytes that ``json.dumps(value, indent=2, ensure_ascii=False) + "\n"``
gives for its JSON value: integers print as ints, ``pass`` as ``true``
or ``false``, and an empty list as ``[]``.  A record of either shape a
move makes is written as pieces of its template: a head up to its first
label, made once for each op and handlebody a move makes, then its
labels as they are, between the template's fixed pieces.  Every record
of a list goes into one list of pieces, joined once.  The labels need no
escape, since ``MoveRecord`` admits only ``c<n>`` labels; a record built
past those checks, with a label that is not alphanumeric or an op or
handlebody that has no head (a ``bool`` among them), takes the general
template instead.  Every other string goes through the encoder's own
``encode_basestring``.

The readers first try that layout itself: a state's header by its
fixed bytes and one pattern, its label by ``json``'s own string
scanner, then the list of records one record at a time, by one pattern
per list depth that admits only the two shapes a move makes, with the
text they share up to the arc's key matched once, through one scanner
whose every match starts where the last one ended.  A
document with any byte outside that layout, or a record whose created
labels are equal or whose pair is out of order, is read from the start
by ``json.loads`` and the checks below, so every other layout reads as
before and every refused document keeps its message.  ``json`` is used
only to read.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import fields
from json.decoder import scanstring
from json.encoder import encode_basestring
from typing import Iterable

from .core import (
    _ID_PATTERN,
    MoveGraphNode,
    TrisectionState,
    are_component_ids,
    component_number,
)
from .explorer import VerificationReport
from .moves import (
    DistinctComponents,
    IllegalMove,
    MoveRecord,
    MoveScript,
    SameComponent,
    _stored_state,
    _tuple,
)
from .planner import PlanReport, PlanSteps

FORMAT_VERSION = 1

# Every integer in a document has at most this many digits, so that every
# height derived from the genera (h_i = g_ij + g_ik + b - 1) prints within
# the interpreter's default limit of 4,300 digits for int-to-str conversion.
MAX_DIGITS = 4000
INT_BOUND = 10**MAX_DIGITS  # every integer lies strictly between -INT_BOUND and INT_BOUND

_STEP_NAMES = tuple(step.name for step in fields(PlanSteps))


class StateFormatError(Exception):
    """A JSON document does not follow the wire format."""


def _loads(text: str, context: str):
    # JSONDecodeError is a ValueError, and so is an integer past the
    # interpreter's digit limit; deep nesting exhausts the recursion limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise StateFormatError(f"{context}: not valid JSON ({error})") from error


# ---------------------------------------------------------------------------
# writing


def _list_text(items: list[str], pad: str) -> str:
    # A list of item texts, each already indented, whose key sits on a
    # line indented by ``pad``.
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _node_text(node: MoveGraphNode, pad: str, b: bool = False) -> str:
    # The genera of a node, and b if asked, as an object that opens on a
    # line indented by ``pad``.
    q = pad + "  "
    text = f'{{\n{q}"g12": {node.g12},\n{q}"g13": {node.g13},\n{q}"g23": {node.g23}'
    return text + (f',\n{q}"b": {node.b}\n{pad}}}' if b else f"\n{pad}}}")


def _labels_text(labels: tuple[str, ...], pad: str) -> str:
    # A list of labels whose key sits on a line indented by ``pad``.
    return _list_text([f"{pad}  {encode_basestring(label)}" for label in labels], pad)


@functools.cache
def _shape_templates(depth: int) -> tuple[str, str]:
    # The two shapes a move makes, as %-templates of a record in a list at
    # ``depth``: an arc that removes its one label and creates two, and an
    # arc that removes its pair and creates one.  Each takes the op, the
    # handlebody, the arc's labels, the created labels and the arc's
    # labels again, as they are: their strings need no escape.
    outer = "  " * depth
    p, q, r, s = (outer + "  " * n for n in (1, 2, 3, 4))
    head = f'{p}{{\n{q}"op": "%s",\n{q}"handlebody": %s,\n{q}"arc": {{\n{r}'
    same = (f'{head}"same": "%s"\n{q}}},\n{q}"created": [\n{r}"%s",\n{r}"%s"\n{q}],\n'
            f'{q}"removed": [\n{r}"%s"\n{q}]\n{p}}}')
    distinct = (f'{head}"distinct": [\n{s}"%s",\n{s}"%s"\n{r}]\n{q}}},\n{q}"created": [\n'
                f'{r}"%s"\n{q}],\n{q}"removed": [\n{r}"%s",\n{r}"%s"\n{q}]\n{p}}}')
    return same, distinct


@functools.cache
def _shape_pieces(depth: int) -> tuple[dict, list[str], list[str]]:
    # _shape_templates(depth) cut at each %s: the text of either shape up to
    # its first label for each op and handlebody a move makes, keyed by
    # (op, handlebody), and the fixed pieces after each label, the last
    # followed by the ",\n" that ends a record in a list.
    same, distinct = (template.split("%s") for template in _shape_templates(depth))
    heads = {(op, i): (f"{same[0]}{op}{same[1]}{i}{same[2]}",
                       f"{distinct[0]}{op}{distinct[1]}{i}{distinct[2]}")
             for op in ("stab", "destab") for i in (1, 2, 3)}
    return heads, [*same[3:-1], same[-1] + ",\n"], [*distinct[3:-1], distinct[-1] + ",\n"]


def _records_text(script: Iterable[MoveRecord], depth: int) -> str:
    """A list of move records, indented as a list at ``depth``.

    ``depth`` is the nesting depth of the list itself (0 for a bare
    script).  Either shape a move makes (an arc that removes itself and
    creates 3 - len(arc) labels) fills its template with its strings as
    they are when they are alphanumeric, as ``MoveRecord`` makes them (an
    op of a fixed set and ``c<n>`` labels) and so need no escape.  Any
    other record comes from the general template, whose strings go
    through the encoder's own ``encode_basestring``.
    """
    # Only an int handlebody takes a head: True == 1 hashes as 1 but is
    # written True.
    heads, (s1, s2, s3, s4), (d1, d2, d3, d4, d5) = _shape_pieces(depth)
    outer = "  " * depth
    p = outer + "  "  # the record's braces
    q = p + "  "  # the record's keys
    r = q + "  "  # the arc's key
    s = r + "  "  # the labels of a two-component arc
    pieces: list[str] = []
    extend = pieces.extend
    for op, handlebody, arc, created, removed in script:
        head = heads.get((op, handlebody)) if type(handlebody) is int else None
        if head is not None and removed == arc and len(created) == 3 - len(arc):
            if isinstance(arc, SameComponent):
                x, (y, z) = arc[0], created
                if x.isalnum() and y.isalnum() and z.isalnum():
                    extend((head[0], x, s1, y, s2, z, s3, x, s4))
                    continue
            else:
                (x, y), z = arc, created[0]
                if x.isalnum() and y.isalnum() and z.isalnum():
                    extend((head[1], x, d1, y, d2, z, d3, x, d4, y, d5))
                    continue
        if isinstance(arc, SameComponent):
            arc_text = f'{{\n{r}"same": {encode_basestring(arc[0])}\n{q}}}'
        else:
            arc_text = (f'{{\n{r}"distinct": [\n{s}{encode_basestring(arc[0])},\n'
                        f"{s}{encode_basestring(arc[1])}\n{r}]\n{q}}}")
        extend((f'{p}{{\n{q}"op": {encode_basestring(op)},\n{q}"handlebody": {handlebody},\n'
                f'{q}"arc": {arc_text},\n{q}"created": {_labels_text(created, q)},\n'
                f'{q}"removed": {_labels_text(removed, q)}\n{p}}}', ",\n"))
    if not pieces:
        return "[]"
    pieces[-1] = pieces[-1][:-2]  # the last record ends the list
    return "[\n" + "".join(pieces) + f"\n{outer}]"


def state_to_text(state: TrisectionState) -> str:
    link = state.link
    return (f'{{\n  "version": {FORMAT_VERSION},\n  "label": {encode_basestring(state.label)},\n'
            f'  "genera": {_node_text(state.genera, "  ")},\n'
            f'  "link": {{\n    "components": {_labels_text(link.components, "    ")},\n'
            f'    "next_id": {link.next_id}\n  }},\n'
            f'  "history": {_records_text(state.history, 1)}\n}}\n')


def script_to_text(script: MoveScript) -> str:
    return _records_text(script, 0) + "\n"


def plan_report_to_text(report: PlanReport) -> str:
    def side_text(name: str, side: PlanSteps) -> str:
        steps = ",\n".join(
            f'      "{step}": {_records_text(getattr(side, step), 3)}' for step in _STEP_NAMES
        )
        return f'  "{name}": {{\n    "steps": {{\n{steps}\n    }}\n  }}'

    h1, h2, h3, b = report.final_profile.as_tuple()
    return (f'{{\n  "version": {FORMAT_VERSION},\n  "rs_bound": {report.rs_bound},\n'
            f'  "final_profile": [\n    {h1},\n    {h2},\n    {h3},\n    {b}\n  ],\n'
            f'  "final_genera": {_node_text(report.final_genera, "  ")},\n'
            f"{side_text('a', report.a)},\n{side_text('b', report.b)}\n}}\n")


def verification_report_to_text(report: VerificationReport) -> str:
    entries = []
    for result in report.entries:
        slack = "" if result.slack is None else f',\n        "slack": {result.slack}'
        nodes = [f"        {_node_text(node, '        ', True)}" for node in result.counterexamples]
        entries.append(f'    {{\n      "property": {encode_basestring(result.name)},\n'
                       f'      "range": {{\n        "max_sum": {result.max_sum}{slack}\n      }},\n'
                       f'      "pass": {"true" if result.passed else "false"},\n'
                       f'      "counterexamples": {_list_text(nodes, "      ")}\n    }}')
    return (f'{{\n  "version": {FORMAT_VERSION},\n  "max_sum": {report.max_sum},\n'
            f'  "entries": {_list_text(entries, "  ")}\n}}\n')


# ---------------------------------------------------------------------------
# strict reading


def _as_object(value, context: str, keys: Iterable[str]) -> dict:
    if not isinstance(value, dict):
        raise StateFormatError(f"{context}: expected an object")
    if unknown := set(value) - set(keys):
        raise StateFormatError(f"{context}: unknown field(s) {sorted(unknown)}")
    if missing := set(keys) - set(value):
        raise StateFormatError(f"{context}: missing field(s) {sorted(missing)}")
    return value


def _as_int(value, context: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise StateFormatError(f"{context}: expected an integer")
    if not -INT_BOUND < value < INT_BOUND:
        raise StateFormatError(f"{context}: has more than {MAX_DIGITS} digits")
    if minimum is not None and value < minimum:
        raise StateFormatError(f"{context}: must be >= {minimum}, got {value}")
    return value


def _as_string(value, context: str) -> str:
    if not isinstance(value, str):
        raise StateFormatError(f"{context}: expected a string")
    return value


def _check_ids(labels, context: str) -> None:
    # Names the first label component_number does not read, the n-th in context.format(n).
    for n, label in enumerate(labels):
        try:
            component_number(_as_string(label, context.format(n)))
        except ValueError as error:
            raise StateFormatError(f"{context.format(n)}: {error}") from error


def _read_ids(value, context: str) -> tuple[str, ...]:
    # A list of unique identifiers.
    if type(value) is not list:
        raise StateFormatError(f"{context}: expected a list of identifiers")
    if not are_component_ids(value):
        _check_ids(value, context + "[{}]")
    if len(value) > 1 and len(set(value)) < len(value):
        raise StateFormatError(f"{context}: identifiers must be unique")
    return tuple(value)


_RECORD_FIELDS = frozenset(("op", "handlebody", "arc", "created", "removed"))


def _read_record(item, ops: tuple[str, ...]) -> MoveRecord:
    # A record as json.loads returns it, through checks in field order
    # with exact types, which state what is valid and name each fault.
    if type(item) is not dict or item.keys() != _RECORD_FIELDS:
        _as_object(item, "", _RECORD_FIELDS)
    op, handlebody, arc = item["op"], item["handlebody"], item["arc"]
    if op not in ops:
        if op == "fake_stab":
            raise StateFormatError(": state histories store the two constituent moves of a "
                                   "compound fake_stab, never the compound record itself")
        raise StateFormatError(f".op: unknown op {_as_string(op, '.op')!r}")
    if type(handlebody) is not int or not 0 < handlebody < 4:
        _as_int(handlebody, ".handlebody")
        raise StateFormatError(".handlebody: must be 1, 2 or 3")
    if type(arc) is not dict or len(arc) != 1:
        raise StateFormatError(".arc: an arc is one of {'same': id} or {'distinct': [id, id]}")
    if "same" in arc:
        ends = (arc["same"],)
    elif "distinct" in arc:
        ends = arc["distinct"]
        if type(ends) is not list or len(ends) != 2:
            raise StateFormatError(".arc.distinct: expected a list of two identifiers")
    else:
        raise StateFormatError(f".arc: unknown arc kind {sorted(arc)}")
    if not are_component_ids(ends):
        _check_ids(ends, ".arc.same" if len(ends) == 1 else ".arc.distinct[{}]")
    if len(ends) == 1:
        arc = _tuple(SameComponent, ends)
    elif ends[0] == ends[1]:
        raise StateFormatError(".arc.distinct: the two components must differ")
    else:  # in the order a DistinctComponents keeps
        ends = (ends[0], ends[1]) if ends[0] < ends[1] else (ends[1], ends[0])
        arc = _tuple(DistinctComponents, ends)
    created = _read_ids(item["created"], ".created")
    removed = _read_ids(item["removed"], ".removed")
    if op == "fake_stab":
        if len(created) != len(removed) or len(created) not in (1, 2):
            raise StateFormatError(": a fake_stab record nets one-for-one or two-for-two components")
    elif removed != ends or len(created) != 3 - len(ends):
        raise StateFormatError(": a " + (
            "one-component arc removes exactly the named component and creates two" if len(ends) == 1
            else "two-component arc removes exactly the named pair and creates one component"))
    return _tuple(MoveRecord, (op, handlebody, arc, created, removed))


def _read_records(items: list, context: str, ops: tuple[str, ...]) -> MoveScript:
    records: list = []
    try:
        for item in items:
            records.append(_read_record(item, ops))
    except StateFormatError as error:
        raise StateFormatError(f"{context}[{len(records)}]{error}") from None
    return tuple(records)


# ---------------------------------------------------------------------------
# the writer's own layout

# A label as core's identifier pattern reads it, and an integer of at most
# MAX_DIGITS digits with no sign or leading zero.
_ID = _ID_PATTERN.pattern.removesuffix(r"\Z").replace("(", "(?:")
_NATURAL = rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}"


@functools.cache
def _record_pattern(depth: int) -> re.Pattern[str]:
    # _shape_templates(depth), either shape, and what follows the record:
    # ",\n" or the list's close.  The shapes agree up to the arc's key, which
    # is matched once.  Its groups are op, handlebody; arc.same, created[0],
    # created[1]; arc.distinct[0], arc.distinct[1], created[0]; the end.
    def pattern(template: str, groups: tuple[str, ...]) -> str:
        pieces = re.escape(template).split("%s")
        return "".join(piece + group for piece, group in zip(pieces, groups)) + pieces[-1]

    label = f'({_ID})'
    same, distinct = _shape_templates(depth)
    cut = same.index('"same"')
    head = pattern(same[:cut], ("(stab|destab)", "([123])"))
    same = pattern(same[cut:], (f"(?P<x>{_ID})", label, label, "(?P=x)"))
    distinct = pattern(distinct[cut:], (f"(?P<y>{_ID})", f"(?P<z>{_ID})", label, "(?P=y)", "(?P=z)"))
    return re.compile(f"{head}(?:{same}|{distinct})(,\n|\n{'  ' * depth}\\])")


_HANDLEBODIES = {"1": 1, "2": 2, "3": 3}


# A state up to its label's opening quote.
_STATE_HEAD = f'{{\n  "version": {FORMAT_VERSION},\n  "label": "'


@functools.cache
def _state_pattern() -> re.Pattern[str]:
    # A state from its label's closing quote up to the history's first
    # record or its empty list's close.
    return re.compile(
        rf',\n  "genera": \{{\n    "g12": (0|{_NATURAL}),\n    "g13": (0|{_NATURAL}),\n'
        rf'    "g23": (0|{_NATURAL})\n  \}},\n  "link": \{{\n    "components": \[\n'
        rf'(      "{_ID}"(?:,\n      "{_ID}")*)\n    \],\n    "next_id": ({_NATURAL})\n  \}},\n'
        rf'  "history": (\[\n|\[\]\n\}})')


def _layout_records(text: str, pos: int, depth: int) -> tuple[MoveScript, int] | None:
    # The records of a list at ``depth`` whose first record starts at
    # ``pos``, and the position past the list's close; None at the first
    # byte outside the layout, or at a record the checked path refuses.  A
    # scanner's match starts where its last one ended.
    match = _record_pattern(depth).scanner(text, pos).match
    records: list = []
    append = records.append
    end = ",\n"
    while end == ",\n":
        found = match()
        if found is None:
            return None
        op, handlebody, label, first, second, low, high, created, end = found.groups()
        if label is not None:  # creates two labels and removes its own
            if first == second:
                return None
            arc = _tuple(SameComponent, (label,))
            append(_tuple(MoveRecord, (op, _HANDLEBODIES[handlebody], arc, (first, second),
                                       (label,))))
        else:  # removes a pair in string order and creates one label
            if not low < high:
                return None
            pair = (low, high)
            arc = _tuple(DistinctComponents, pair)
            append(_tuple(MoveRecord, (op, _HANDLEBODIES[handlebody], arc, (created,), pair)))
    return tuple(records), found.end()


def _layout_script(text: str) -> MoveScript | None:
    # A script in the writer's layout, or None.
    if text in ("[]\n", "[]"):
        return ()
    if text.startswith("[\n"):
        read = _layout_records(text, 2, 0)
        if read is not None and text[read[1]:] in ("\n", ""):
            return read[0]
    return None


def _layout_state(text: str) -> TrisectionState | None:
    # A state in the writer's layout, or None.  Its label is any JSON
    # string, decoded as json.loads decodes it.
    if not text.startswith(_STATE_HEAD):
        return None
    try:
        label, pos = scanstring(text, len(_STATE_HEAD))
        label.encode("utf-8")
    except ValueError:  # a malformed string; a lone surrogate (UnicodeEncodeError)
        return None
    found = _state_pattern().match(text, pos)
    if found is None:
        return None
    g12, g13, g23, listed, next_id, opening = found.groups()
    components = tuple(listed[7:-1].split('",\n      "'))  # past the first indent and quote
    if len(set(components)) < len(components):
        return None
    history, pos = (), found.end()
    if opening == "[\n":
        read = _layout_records(text, pos, 1)
        if read is None or not text.startswith("\n}", read[1]):
            return None
        history, pos = read[0], read[1] + 2
    if text[pos:] not in ("\n", ""):
        return None
    try:
        return _stored_state(int(g12), int(g13), int(g23), components, int(next_id), history, label)
    except IllegalMove as error:
        raise StateFormatError(f"state: {error}") from None


# ---------------------------------------------------------------------------
# entry points


def parse_script(payload) -> MoveScript:
    if not isinstance(payload, list):
        raise StateFormatError("script: expected a JSON array of move records")
    return _read_records(payload, "script", ("stab", "destab", "fake_stab"))


def script_from_text(text: str) -> MoveScript:
    script = _layout_script(text)
    return parse_script(_loads(text, "script")) if script is None else script


def parse_state(payload) -> TrisectionState:
    obj = _as_object(payload, "state", ("version", "label", "genera", "link", "history"))
    version = _as_int(obj["version"], "state.version")
    if version != FORMAT_VERSION:
        raise StateFormatError(f"state.version: expected {FORMAT_VERSION}, got {version}")
    label = _as_string(obj["label"], "state.label")
    try:  # a lone surrogate escape reads into a str that no writer can encode
        label.encode("utf-8")
    except UnicodeEncodeError as error:
        raise StateFormatError(f"state.label: not valid UTF-8 ({error})") from error
    genera_obj = _as_object(obj["genera"], "state.genera", ("g12", "g13", "g23"))
    g12, g13, g23 = (_as_int(genera_obj[name], f"state.genera.{name}", minimum=0)
                     for name in ("g12", "g13", "g23"))
    link_obj = _as_object(obj["link"], "state.link", ("components", "next_id"))
    components = _read_ids(link_obj["components"], "state.link.components")
    if not components:
        raise StateFormatError("state.link.components: the boundary link is never empty")
    next_id = _as_int(link_obj["next_id"], "state.link.next_id", minimum=1)
    history_payload = obj["history"]
    if not isinstance(history_payload, list):
        raise StateFormatError("state.history: expected a list of move records")
    history = _read_records(history_payload, "state.history", ("stab", "destab"))
    try:
        return _stored_state(g12, g13, g23, components, next_id, history, label)
    except IllegalMove as error:
        raise StateFormatError(f"state: {error}") from None


def state_from_text(text: str) -> TrisectionState:
    state = _layout_state(text)
    return parse_state(_loads(text, "state")) if state is None else state
