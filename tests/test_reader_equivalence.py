"""The one-pass reader against the field-by-field reference parser.

``reference_parser`` is the strict parser the wire format had before
its one-pass reader.  A seeded corpus of documents, each a real state
or script with one mutation, must be accepted by both or by neither;
accepted documents must read back as equal states and scripts, and
rejected ones must raise the same :class:`StateFormatError` message.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_parser
from test_serialize import walk_at_b
from trisections.core import (
    are_component_ids,
    component_number,
    connect_sum_equal_genus,
    from_heegaard,
    koda_ozawa,
    open_book,
    surface_bundle,
    trivial,
    tunnel_system,
)
from trisections.moves import (
    DestabMove,
    DistinctComponents,
    SameComponent,
    StabMove,
    apply_destabilization,
    apply_stabilization,
    balance,
    build_heegaard,
    fake_heegaard_stab,
)
from trisections.planner import plan_common_stabilization, replay
from trisections.serialize import (
    StateFormatError,
    script_from_text,
    script_to_text,
    state_from_text,
    state_to_text,
)


def _base_documents() -> list[tuple[str, object]]:
    """Real states and scripts, as (kind, payload)."""
    report = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 2)
    fake_report = plan_common_stabilization(koda_ozawa(), koda_ozawa(), 3)
    table_edge = walk_at_b(1021, 30, seed=5)
    states = [
        trivial(),
        from_heegaard(2),
        balance(koda_ozawa())[0],
        fake_heegaard_stab(koda_ozawa()),
        apply_destabilization(open_book(1), DestabMove(1, SameComponent("c0"))),
        build_heegaard(open_book(3), 2)[0],
        build_heegaard(surface_bundle(3), 1)[0],
        replay(koda_ozawa(), report.a.concatenated()),
        connect_sum_equal_genus(40),
        walk_at_b(61, 40, seed=3),
        table_edge,  # labels on both sides of c1023/c1024
        replace(balance(tunnel_system(3))[0], label='odd "label" \\ é  '),
    ]
    scripts = [
        (),
        balance(from_heegaard(2))[1],
        report.a.concatenated(),
        report.b.concatenated(),
        fake_report.a.step3_fake,
        build_heegaard(connect_sum_equal_genus(300), 1)[2],  # high b: c0 .. c600
        walk_at_b(501, 30, seed=4).history[-30:],
        table_edge.history[-30:],
    ]
    documents = [("state", json.loads(state_to_text(state))) for state in states]
    documents += [("script", json.loads(script_to_text(script))) for script in scripts]
    return documents


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for n, value in enumerate(node):
            yield from _paths(value, path + (n,))


def _get(node, path):
    for key in path:
        node = node[key]
    return node


def _with(node, path, change):
    """A copy of ``node`` whose value at ``path`` is ``change`` of the old one.

    Only the containers along the path are copied.
    """
    if not path:
        return change(node)
    copied = node.copy()
    copied[path[0]] = _with(node[path[0]], path[1:], change)
    return copied


_OTHER_VALUES = [
    None, True, False, 0, 1, 2, -1, 2.5, 10**4000, "", "x", "c0", "c1", "stab", [], {},
    ["c0"], ["c0", "c1"], {"same": "c0"}, [[[["c0"]]]], float("nan"),
]
_BAD_LABELS = [
    "c01", "C1", "c", "x1", " c1", "c1 ", "c-1", "c1.0", "c1\n", "c1\n\n", "c1,c2", "c١",
    "c1\x00", "", ",",
]


def _revalue(value, rng: random.Random):
    if isinstance(value, bool) or value is None:
        return rng.choice([0, 1, "true", not value])
    if isinstance(value, int):
        return rng.choice([value - 1, value + 1, 0, 4, -value, 10**4000, value * 1000 + 7])
    if isinstance(value, str):
        if value.startswith("c") and value[1:].isdigit():
            n = component_number(value)
            return rng.choice([f"c{n + 1}", f"c{max(n - 1, 0)}", f"c{n + 1000}", "c0"]
                              + _BAD_LABELS)
        return rng.choice(["stab", "destab", "fake_stab", "slide", "Stab", "", "same", "c3"])
    return rng.choice(_OTHER_VALUES)


def _places(payload) -> tuple[list, list, list, list]:
    """Every path into a document, and the paths to its leaves, dicts and lists."""
    paths = list(_paths(payload))
    values = [_get(payload, path) for path in paths]
    leaves = [p for p, v in zip(paths, values) if not isinstance(v, (dict, list))]
    dicts = [p for p, v in zip(paths, values) if isinstance(v, dict)]
    lists = [p for p, v in zip(paths, values) if isinstance(v, list)]
    return paths, leaves, dicts, lists


def _mutate(payload, places, rng: random.Random):
    """One mutation of a document with the given ``_places``, and its kind."""
    paths, leaves, dicts, lists = places
    kind = rng.choice([
        "retype", "revalue", "revalue", "drop-key", "add-key", "reorder", "extend", "shrink",
        "history",
    ])
    if kind == "retype":
        path = rng.choice(paths)
        old = _get(payload, path)
        new = rng.choice([v for v in _OTHER_VALUES if type(v) is not type(old)])
        return kind, _with(payload, path, lambda _: new)
    if kind == "revalue":
        path = rng.choice(leaves or paths)
        new = _revalue(_get(payload, path), rng)
        return kind, _with(payload, path, lambda _: new)
    if kind == "drop-key" and dicts:
        path = rng.choice(dicts)
        key = rng.choice(sorted(_get(payload, path)) or ["op"])
        return kind, _with(payload, path, lambda d: {k: v for k, v in d.items() if k != key})
    if kind == "add-key" and dicts:
        path = rng.choice(dicts)
        key = rng.choice(["extra", "same", "distinct", "op", "b", "g14", "next_id", "history"])
        value = rng.choice(_OTHER_VALUES)
        return kind, _with(payload, path, lambda d: d | {key: value})
    if kind == "reorder":
        longer = [p for p in lists if len(_get(payload, p)) >= 2]
        if longer:
            path = rng.choice(longer)
            size = len(_get(payload, path))
            i, j = rng.sample(range(size), 2)

            def swap(items):
                items = items.copy()
                items[i], items[j] = items[j], items[i]
                return items

            return kind, _with(payload, path, swap)
    if kind == "extend" and lists:
        path = rng.choice(lists)
        items = _get(payload, path)
        extra = rng.choice(items) if items and rng.random() < 0.7 else rng.choice(_OTHER_VALUES)
        position = rng.randrange(len(items) + 1)
        return kind, _with(payload, path, lambda seq: seq[:position] + [extra] + seq[position:])
    if kind == "shrink":
        nonempty = [p for p in lists if _get(payload, p)]
        if nonempty:
            path = rng.choice(nonempty)
            position = rng.randrange(len(_get(payload, path)))
            return kind, _with(payload, path, lambda seq: seq[:position] + seq[position + 1:])
    # Break the replay: a record from elsewhere in the history, a record
    # dropped, or a changed link.
    history = payload.get("history") if isinstance(payload, dict) else None
    link = payload.get("link") if isinstance(payload, dict) else None
    options = []
    if isinstance(history, list) and history:
        record, position = rng.choice(history), rng.randrange(len(history))
        options.append((("history",), lambda seq: seq[:position] + [record] + seq[position:]))
        options.append((("history",), lambda seq: seq[:position] + seq[position + 1:]))
    if isinstance(link, dict) and type(link.get("next_id")) is int:
        delta = rng.choice([-2, -1, 1, 2])
        options.append((("link", "next_id"), lambda n: n + delta))
    if isinstance(link, dict) and isinstance(link.get("components"), list):
        extra = f"c{len(link['components']) + 50}"
        options.append((("link", "components"), lambda seq: seq + [extra]))
    if options:
        return "history", _with(payload, *rng.choice(options))
    if isinstance(payload, list) and payload:
        return "retype", _with(payload, (rng.randrange(len(payload)),), lambda _: {})
    return "retype", {}


def _outcome(read, text: str):
    try:
        return "accepted", read(text)
    except StateFormatError as error:
        return "rejected", str(error)


_READERS = {
    "state": (state_from_text, reference_parser.state_from_text),
    "script": (script_from_text, reference_parser.script_from_text),
}


def _corpus(size: int, faults: int, seed: int):
    """``size`` documents, each a base document after ``faults`` mutations."""
    rng = random.Random(seed)
    bases = [(kind, payload, _places(payload)) for kind, payload in _base_documents()]
    for n in range(size):
        kind, payload, places = bases[n % len(bases)]
        mutations = []
        for _ in range(faults):
            mutation, payload = _mutate(payload, places, rng)
            mutations.append(mutation)
            places = _places(payload)
        yield kind, mutations, json.dumps(payload, ensure_ascii=False, indent=rng.choice([None, 2]))


@pytest.mark.parametrize("size, faults", [(6_000, 1), (2_000, 2)], ids=["one-fault", "two-faults"])
def test_reader_agrees_with_the_reference_parser_on_a_mutated_corpus(size, faults):
    # Same verdict, equal results and, for rejected documents, the same
    # message: the reader names the first fault as the reference does.
    tally: Counter = Counter()
    for kind, mutations, text in _corpus(size, faults, seed=20181207 + faults):
        new_read, reference_read = _READERS[kind]
        verdict, value = _outcome(new_read, text)
        expected = _outcome(reference_read, text)
        assert (verdict, value) == expected, (kind, mutations, text[:2000])
        tally[kind, verdict] += 1
    # The corpus exercises both verdicts for both kinds of document.
    assert sum(tally.values()) == size
    assert len(tally) == 4 and min(tally.values()) >= size // 500, tally


def test_reader_agrees_with_the_reference_parser_on_the_unmutated_documents():
    for kind, payload in _base_documents():
        new_read, reference_read = _READERS[kind]
        text = json.dumps(payload)
        assert _outcome(new_read, text) == _outcome(reference_read, text)
        assert _outcome(new_read, text)[0] == "accepted"


# -- the batch label check ---------------------------------------------------------


def _is_id(value) -> bool:
    try:
        component_number(value)
    except (TypeError, ValueError):
        return False
    return isinstance(value, str)


_LABEL_PIECES = st.sampled_from(["c", "0", "1", "9", "10", "\n", ",", "x", "١", " "])
_LABEL_ITEMS = st.one_of(
    st.lists(_LABEL_PIECES, max_size=6).map("".join),
    st.integers(0, 20).map(lambda n: f"c{n}"),
    st.none(),
    st.integers(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_LABEL_ITEMS, max_size=6))
@example(["c1\n"])  # a pattern ending in ``$`` would match before a final newline
@example(["c0\n", "c12"])
@example(["c1\n\n"])
@example(["c0", b"c1"])
def test_the_batch_label_check_agrees_with_component_number(labels):
    assert are_component_ids(labels) == all(_is_id(label) for label in labels)


# -- the stored-history check -----------------------------------------------------


def _two_dips():
    # connect-sum 4, then merges (H1: g12 + 1) and splits (H3: g12 - 1) in
    # which g12 runs 0, 1, 0, 1, 2, 1, 0, 1: least, 0, before steps 1, 3 and
    # 7, higher between, and 1 at the end.
    state = connect_sum_equal_genus(4)
    for merge in (True, False, True, True, False, False, True):
        labels = state.link.components
        arc = DistinctComponents(*labels[:2]) if merge else SameComponent(labels[0])
        state = apply_stabilization(state, StabMove(1 if merge else 3, arc))
    return state


def _stored_faults():
    """(name, payload, the start of its message) for states that fail each
    check of a stored history, or None for one that just passes it."""
    two_dips = json.loads(state_to_text(_two_dips()))
    # b = 1,021 with 30 moves, whose labels cross c1023/c1024; g13 rises from
    # 0 by one at each merge, steps 1, 3, .. 29, to 15.
    edge = json.loads(state_to_text(walk_at_b(1021, 30, seed=5)))
    history = edge["history"]
    split = next(n for n, record in enumerate(history)
                 if "same" in record["arc"] and component_number(record["created"][0]) >= 1024)
    merge = next(n for n, record in enumerate(history) if "distinct" in record["arc"])
    created, dead = history[split]["created"], history[merge]["removed"][0]
    assert merge < split and "distinct" in history[-2]["arc"]

    def relabel(record, arc, removed):
        return record | {"arc": arc, "removed": removed}

    def below_zero(step):
        return f"state: history step {step} would start from genera"

    return [
        ("passes at its lowest start", two_dips, None),
        ("g12 below zero at steps 1, 3 and 7",
         _with(two_dips, ("genera", "g12"), lambda g: g - 1), below_zero(7)),
        ("g13 below zero at step 1", _with(edge, ("genera", "g13"), lambda g: g - 1), below_zero(1)),
        ("g13 below zero from a middle step",
         _with(edge, ("genera", "g13"), lambda g: g - 8), below_zero(15)),
        ("g13 below zero before every merge",
         _with(edge, ("genera", "g13"), lambda g: g - 15), below_zero(29)),
        ("a created label off by one past c1023",
         _with(edge, ("history", split, "created"),
               lambda labels: [labels[0], f"c{component_number(labels[1]) + 1}"]),
         f"state: history step {split + 1} must create"),
        ("a merged label off by one past c1023",
         _with(edge, ("history", len(history) - 2, "created"),
               lambda labels: [f"c{component_number(labels[0]) + 1}"]),
         f"state: history step {len(history) - 1} must create"),
        ("a split of a dead label",
         _with(edge, ("history", split), lambda record: relabel(record, {"same": dead}, [dead])),
         f"state: history step {split + 1}: unknown component {dead!r}"),
        ("a merge with a label not yet made",
         _with(edge, ("history", merge), lambda record: relabel(
             record, {"distinct": [record["removed"][0], created[1]]},
             sorted([record["removed"][0], created[1]]))),
         f"state: history step {merge + 1}: unknown component {created[1]!r}"),
        ("components the replay does not reach",
         _with(edge, ("link", "components"), lambda labels: labels[:-1] + ["c2000"]),
         "state: stored components"),
        ("a next_id past the last label", _with(edge, ("link", "next_id"), lambda n: n + 1),
         "state: next_id is"),
        ("the first merge dropped", _with(two_dips, ("history",), lambda records: records[1:]),
         "state: history step 1 must create"),
        ("no initial component", _with(
            _with(two_dips, ("history",), lambda records: records[1:2] * 6 + records),
            ("link", "components"), lambda labels: labels[:1]),
         "state: the history implies -4 initial components"),
    ]


@pytest.mark.parametrize("payload, message", [pytest.param(payload, message, id=name)
                                              for name, payload, message in _stored_faults()])
def test_reader_agrees_with_the_reference_parser_on_each_check_of_a_stored_history(payload, message):
    # Each document in the writer's layout and minified, through the layout
    # and json paths, gets the same verdict and message as the reference
    # parser, whose walk back through the genera names the last step that
    # starts below zero.
    for text in (json.dumps(payload, indent=2, ensure_ascii=False) + "\n", json.dumps(payload)):
        verdict, value = _outcome(state_from_text, text)
        assert (verdict, value) == _outcome(reference_parser.state_from_text, text)
        if message is None:
            assert verdict == "accepted", value
        else:
            assert verdict == "rejected" and value.startswith(message), value
