"""The field-by-field wire-format parser, kept as the reference reader.

This is the strict parser :mod:`trisections.serialize` used before its
one-pass reader: every field goes through its own helper, every label
through :func:`~trisections.core.component_number`, every record through
the validating constructors, and the history is replayed through
:func:`_split` and :func:`_merge`, the link methods that replay used
(``LinkComponentSet`` no longer has them), and the genera are walked
back through each record's row of ``STAB_DELTAS``.  Only its replay's
error texts are written out instead of read from those functions.
``tests/test_reader_equivalence.py`` requires the reader to accept exactly the
documents this parser accepts, to return equal states and scripts, and
to raise the same message on every document with one fault.
"""

from __future__ import annotations

import json

from trisections.core import (
    STAB_DELTAS,
    LinkComponentSet,
    MoveGraphNode,
    TrisectionState,
    component_number,
)
from trisections.moves import (
    Arc,
    DistinctComponents,
    MoveRecord,
    MoveScript,
    SameComponent,
)
from trisections.serialize import FORMAT_VERSION, INT_BOUND, MAX_DIGITS, StateFormatError


def _loads(text: str, context: str):
    # JSONDecodeError is a ValueError, and so is an integer past the
    # interpreter's digit limit; deep nesting exhausts the recursion limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as error:
        raise StateFormatError(f"{context}: not valid JSON ({error})") from error


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


def _split(link: LinkComponentSet, component: str) -> tuple[LinkComponentSet, tuple[str, str]]:
    # Replace ``component`` by two fresh components (ValueError if missing).
    components = list(link.components)
    del components[components.index(component)]
    first, second = f"c{link.next_id}", f"c{link.next_id + 1}"
    components += first, second
    return LinkComponentSet(tuple(components), link.next_id + 2), (first, second)


def _merge(link: LinkComponentSet, first: str, second: str) -> tuple[LinkComponentSet, str]:
    # Replace two distinct present components by one fresh one (ValueError if not).
    if first == second:
        raise ValueError("cannot merge a component with itself")
    components = list(link.components)
    m, n = sorted((components.index(first), components.index(second)))
    del components[n], components[m]
    merged = f"c{link.next_id}"
    components.append(merged)
    return LinkComponentSet(tuple(components), link.next_id + 1), merged


def _rebuild_link(
    components: tuple[str, ...], next_id: int, history: MoveScript, context: str
) -> LinkComponentSet:
    # Replay the history on the fresh link it must start from: every record
    # splits one component or merges two, creating exactly the labels the
    # link hands out, and the replay must land on the stored link.
    # The error texts are the ones LinkComponentSet.fresh, split and merge
    # gave when this parser was the library's, written out here so that the
    # reference keeps them whatever those methods say now.
    count = len(components) - sum(len(r.created) - len(r.removed) for r in history)
    if count < 1:
        raise StateFormatError(
            f"{context}: the history implies {count} initial components "
            "(need at least one component)"
        )
    link = LinkComponentSet.fresh(count)
    for step, record in enumerate(history, start=1):
        missing = [label for label in record.removed if label not in link.components]
        if missing:
            raise StateFormatError(f"{context}: history step {step}: unknown component {missing[0]!r}")
        if len(record.removed) == 1:
            link, created = _split(link, *record.removed)
        else:
            link, merged = _merge(link, *record.removed)
            created = (merged,)
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


def _check_genera(genera: tuple[int, int, int], history: MoveScript, context: str) -> None:
    # Undo the records from the last to the first, each by its row of
    # STAB_DELTAS (a formal destab along one arc kind is the inverse of the
    # stab along the other); every genus on the way must stay >= 0.
    for step in range(len(history), 0, -1):
        record = history[step - 1]
        same = len(record.removed) == 1
        if record.op == "stab":
            delta = STAB_DELTAS[record.handlebody, "same" if same else "distinct"]
        else:
            delta = tuple(-d for d in STAB_DELTAS[record.handlebody, "distinct" if same else "same"])
        genera = tuple(g - d for g, d in zip(genera, delta))
        if min(genera) < 0:
            raise StateFormatError(
                f"{context}: history step {step} would start from genera "
                f"(g12, g13, g23) = {genera}, below zero"
            )


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
    _check_genera((g12, g13, g23), history, "state")
    return TrisectionState(MoveGraphNode(g12, g13, g23, link.b), link, history, label)


def state_from_text(text: str) -> TrisectionState:
    return parse_state(_loads(text, "state"))
