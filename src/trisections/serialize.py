"""JSON wire formats: state files, move scripts, plan and verify reports.

All formats are UTF-8 JSON with fixed key order, so identical inputs
produce byte-identical files.  Parsing is strict: unknown fields,
missing fields, integers of more than :data:`MAX_DIGITS` digits,
malformed identifiers and histories that do not replay to the stored
component list are all rejected with :class:`StateFormatError`.

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

The ``*_to_payload`` functions give the structured view of every
document, and :func:`canonical_dumps` of a payload is its text.  The
``*_to_text`` writers produce exactly that text, but write each move
record from one template (:func:`_records_text`) instead of running the
stdlib's pure-Python indenting encoder over it; everything else in a
document still goes through :func:`canonical_dumps`.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring
from typing import Iterable

from .core import (
    LinkComponentSet,
    MoveGraphNode,
    TrisectionState,
    component_number,
)
from .explorer import PropertyResult, VerificationReport
from .moves import (
    Arc,
    DistinctComponents,
    MoveRecord,
    MoveScript,
    SameComponent,
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


def canonical_dumps(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _loads(text: str, context: str):
    # JSONDecodeError is a ValueError, and so is an integer past the
    # interpreter's digit limit; deep nesting exhausts the recursion limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise StateFormatError(f"{context}: not valid JSON ({error})") from error


# ---------------------------------------------------------------------------
# payload builders


def arc_to_payload(arc: Arc) -> dict:
    if isinstance(arc, SameComponent):
        return {"same": arc.component}
    return {"distinct": [arc.first, arc.second]}


def record_to_payload(record: MoveRecord) -> dict:
    return {
        "op": record.op,
        "handlebody": record.handlebody,
        "arc": arc_to_payload(record.arc),
        "created": list(record.created),
        "removed": list(record.removed),
    }


def script_to_payload(script: MoveScript) -> list:
    return [record_to_payload(record) for record in script]


def _genera_payload(node: MoveGraphNode) -> dict:
    # The surface genera of a node; b is stored with the link.
    return {"g12": node.g12, "g13": node.g13, "g23": node.g23}


def _state_head(state: TrisectionState) -> dict:
    # A state's payload up to its history.
    return {
        "version": FORMAT_VERSION,
        "label": state.label,
        "genera": _genera_payload(state.genera),
        "link": {
            "components": list(state.link.components),
            "next_id": state.link.next_id,
        },
    }


def state_to_payload(state: TrisectionState) -> dict:
    return _state_head(state) | {"history": script_to_payload(state.history)}


def _plan_head(report: PlanReport) -> dict:
    # A plan report's payload up to its two sides.
    return {
        "version": FORMAT_VERSION,
        "rs_bound": report.rs_bound,
        "final_profile": list(report.final_profile.as_tuple()),
        "final_genera": _genera_payload(report.final_genera),
    }


def plan_report_to_payload(report: PlanReport) -> dict:
    def steps(side: PlanSteps) -> dict:
        return {
            "steps": {name: script_to_payload(getattr(side, name)) for name in _STEP_NAMES}
        }

    return _plan_head(report) | {"a": steps(report.a), "b": steps(report.b)}


def node_to_payload(node: MoveGraphNode) -> dict:
    return _genera_payload(node) | {"b": node.b}


def verification_report_to_payload(report: VerificationReport) -> dict:
    def entry(result: PropertyResult) -> dict:
        range_payload = {"max_sum": result.max_sum}
        if result.slack is not None:
            range_payload["slack"] = result.slack
        return {
            "property": result.name,
            "range": range_payload,
            "pass": result.passed,
            "counterexamples": [node_to_payload(n) for n in result.counterexamples],
        }

    return {
        "version": FORMAT_VERSION,
        "max_sum": report.max_sum,
        "entries": [entry(result) for result in report.entries],
    }


def _labels_text(labels: tuple[str, ...], pad: str) -> str:
    # A list of labels whose key sits on a line indented by ``pad``.
    if not labels:
        return "[]"
    items = ",\n".join([f"{pad}  {encode_basestring(label)}" for label in labels])
    return f"[\n{items}\n{pad}]"


def _records_text(script: Iterable[MoveRecord], depth: int) -> str:
    """A list of move records, as :func:`canonical_dumps` writes it at ``depth``.

    ``depth`` is the nesting depth of the list itself (0 for a bare
    script).  Each record comes from one template, and every string in
    it goes through the encoder's own ``encode_basestring``.
    """
    outer = "  " * depth
    p = outer + "  "  # the record's braces
    q = p + "  "  # the record's keys
    r = q + "  "  # the arc's key
    s = r + "  "  # the labels of a two-component arc
    texts = []
    for record in script:
        arc = record.arc
        if isinstance(arc, SameComponent):
            arc_text = f'{{\n{r}"same": {encode_basestring(arc.component)}\n{q}}}'
        else:
            arc_text = (
                f'{{\n{r}"distinct": [\n{s}{encode_basestring(arc.first)},\n'
                f"{s}{encode_basestring(arc.second)}\n{r}]\n{q}}}"
            )
        texts.append(
            f'{p}{{\n{q}"op": {encode_basestring(record.op)},\n'
            f'{q}"handlebody": {record.handlebody},\n'
            f'{q}"arc": {arc_text},\n'
            f'{q}"created": {_labels_text(record.created, q)},\n'
            f'{q}"removed": {_labels_text(record.removed, q)}\n{p}}}'
        )
    if not texts:
        return "[]"
    return "[\n" + ",\n".join(texts) + f"\n{outer}]"


def _extend(head: str, members: str) -> str:
    # Append members to the top-level object that ``head``, a
    # canonical_dumps text, closes.
    return f"{head[:-3]},\n{members}\n}}\n"


def state_to_text(state: TrisectionState) -> str:
    head = canonical_dumps(_state_head(state))
    return _extend(head, f'  "history": {_records_text(state.history, 1)}')


def script_to_text(script: MoveScript) -> str:
    return _records_text(script, 0) + "\n"


def plan_report_to_text(report: PlanReport) -> str:
    def side_text(name: str, side: PlanSteps) -> str:
        steps = ",\n".join(
            f'      "{step}": {_records_text(getattr(side, step), 3)}' for step in _STEP_NAMES
        )
        return f'  "{name}": {{\n    "steps": {{\n{steps}\n    }}\n  }}'

    head = canonical_dumps(_plan_head(report))
    return _extend(head, f"{side_text('a', report.a)},\n{side_text('b', report.b)}")


def verification_report_to_text(report: VerificationReport) -> str:
    return canonical_dumps(verification_report_to_payload(report))


# ---------------------------------------------------------------------------
# strict parsing


def _as_object(value, context: str, keys: tuple[str, ...]) -> dict:
    if not isinstance(value, dict):
        raise StateFormatError(f"{context}: expected an object")
    unknown = set(value) - set(keys)
    if unknown:
        raise StateFormatError(f"{context}: unknown field(s) {sorted(unknown)}")
    missing = set(keys) - set(value)
    if missing:
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


def _as_id(value, context: str) -> str:
    label = _as_string(value, context)
    try:
        component_number(label)
    except ValueError as error:
        raise StateFormatError(f"{context}: {error}") from error
    return label


def _parse_arc(payload, context: str) -> Arc:
    if not isinstance(payload, dict) or len(payload) != 1:
        raise StateFormatError(f"{context}: an arc is one of {{'same': id}} or {{'distinct': [id, id]}}")
    if "same" in payload:
        return SameComponent(_as_id(payload["same"], f"{context}.same"))
    if "distinct" in payload:
        pair = payload["distinct"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise StateFormatError(f"{context}.distinct: expected a list of two identifiers")
        first = _as_id(pair[0], f"{context}.distinct[0]")
        second = _as_id(pair[1], f"{context}.distinct[1]")
        if first == second:
            raise StateFormatError(f"{context}.distinct: the two components must differ")
        return DistinctComponents(first, second)
    raise StateFormatError(f"{context}: unknown arc kind {sorted(payload)}")


def _parse_id_list(payload, context: str) -> tuple[str, ...]:
    if not isinstance(payload, list):
        raise StateFormatError(f"{context}: expected a list of identifiers")
    labels = tuple(_as_id(item, f"{context}[{n}]") for n, item in enumerate(payload))
    if len(set(labels)) != len(labels):
        raise StateFormatError(f"{context}: identifiers must be unique")
    return labels


def parse_record(payload, context: str, allow_fake: bool) -> MoveRecord:
    obj = _as_object(payload, context, ("op", "handlebody", "arc", "created", "removed"))
    op = _as_string(obj["op"], f"{context}.op")
    if op not in ("stab", "destab", "fake_stab"):
        raise StateFormatError(f"{context}.op: unknown op {op!r}")
    if op == "fake_stab" and not allow_fake:
        raise StateFormatError(
            f"{context}: state histories store the two constituent moves of a "
            "compound fake_stab, never the compound record itself"
        )
    handlebody = _as_int(obj["handlebody"], f"{context}.handlebody")
    if handlebody not in (1, 2, 3):
        raise StateFormatError(f"{context}.handlebody: must be 1, 2 or 3")
    arc = _parse_arc(obj["arc"], f"{context}.arc")
    created = _parse_id_list(obj["created"], f"{context}.created")
    removed = _parse_id_list(obj["removed"], f"{context}.removed")
    if op in ("stab", "destab"):
        if isinstance(arc, SameComponent):
            if removed != (arc.component,) or len(created) != 2:
                raise StateFormatError(
                    f"{context}: a one-component arc removes exactly the named "
                    "component and creates two"
                )
        else:
            if removed != (arc.first, arc.second) or len(created) != 1:
                raise StateFormatError(
                    f"{context}: a two-component arc removes exactly the named "
                    "pair and creates one component"
                )
    else:
        if len(created) != len(removed) or len(created) not in (1, 2):
            raise StateFormatError(
                f"{context}: a fake_stab record nets one-for-one or two-for-two components"
            )
    return MoveRecord(op, handlebody, arc, created, removed)


def parse_script(payload, context: str = "script") -> MoveScript:
    if not isinstance(payload, list):
        raise StateFormatError(f"{context}: expected a JSON array of move records")
    return tuple(
        parse_record(item, f"{context}[{n}]", allow_fake=True)
        for n, item in enumerate(payload)
    )


def script_from_text(text: str) -> MoveScript:
    return parse_script(_loads(text, "script"))


def _rebuild_link(
    components: tuple[str, ...], next_id: int, history: MoveScript, context: str
) -> LinkComponentSet:
    # Replay the history on the fresh link it must start from: every record
    # splits one component or merges two, creating exactly the labels the
    # link hands out, and the replay must land on the stored link.
    count = len(components) - sum(len(r.created) - len(r.removed) for r in history)
    try:
        link = LinkComponentSet.fresh(count)
    except ValueError as error:
        raise StateFormatError(
            f"{context}: the history implies {count} initial components ({error})"
        ) from error
    for step, record in enumerate(history, start=1):
        try:
            if len(record.removed) == 1:
                link, created = link.split(*record.removed)
            else:
                link, merged = link.merge(*record.removed)
                created = (merged,)
        except ValueError as error:
            raise StateFormatError(f"{context}: history step {step}: {error}") from error
        if created != record.created:
            raise StateFormatError(
                f"{context}: history step {step} must create {list(created)}, "
                f"got {list(record.created)}"
            )
    if link.components != components:
        raise StateFormatError(
            f"{context}: stored components {list(components)} do not match the "
            f"history replay {list(link.components)}"
        )
    if link.next_id != next_id:
        raise StateFormatError(
            f"{context}: next_id is {next_id} but the history consumed labels "
            f"up to c{link.next_id - 1}"
        )
    return link


def parse_state(payload) -> TrisectionState:
    obj = _as_object(payload, "state", ("version", "label", "genera", "link", "history"))
    version = _as_int(obj["version"], "state.version")
    if version != FORMAT_VERSION:
        raise StateFormatError(f"state.version: expected {FORMAT_VERSION}, got {version}")
    label = _as_string(obj["label"], "state.label")
    genera_obj = _as_object(obj["genera"], "state.genera", ("g12", "g13", "g23"))
    g12, g13, g23 = (
        _as_int(genera_obj[name], f"state.genera.{name}", minimum=0)
        for name in ("g12", "g13", "g23")
    )
    link_obj = _as_object(obj["link"], "state.link", ("components", "next_id"))
    components = _parse_id_list(link_obj["components"], "state.link.components")
    if not components:
        raise StateFormatError("state.link.components: the boundary link is never empty")
    next_id = _as_int(link_obj["next_id"], "state.link.next_id", minimum=1)
    history_payload = obj["history"]
    if not isinstance(history_payload, list):
        raise StateFormatError("state.history: expected a list of move records")
    history = tuple(
        parse_record(item, f"state.history[{n}]", allow_fake=False)
        for n, item in enumerate(history_payload)
    )
    link = _rebuild_link(components, next_id, history, "state")
    return TrisectionState(MoveGraphNode(g12, g13, g23, link.b), link, history, label)


def state_from_text(text: str) -> TrisectionState:
    return parse_state(_loads(text, "state"))
