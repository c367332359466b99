"""Wire-format round trips and strict rejection of malformed documents.

Mutation tests start from a known-good payload, change exactly one
thing, and expect StateFormatError: the parser must never guess.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_parser
from genealogy import genealogy, replay_genealogy
from move_oracle import compound_record, is_legal, legal_moves
from reference_writer import (
    canonical_dumps,
    plan_report_to_payload,
    script_to_payload,
    state_to_payload,
    verification_report_to_payload,
)
from trisections.core import (
    MoveGraphNode,
    Profile,
    connect_sum_equal_genus,
    from_heegaard,
    is_feasible,
    koda_ozawa,
    open_book,
    state_from_profile,
    trivial,
)
from trisections.explorer import PropertyResult, VerificationReport, verify_properties
from trisections.moves import (
    DestabMove,
    DistinctComponents,
    IllegalMove,
    MoveRecord,
    SameComponent,
    StabMove,
    _tuple,
    apply_destabilization,
    apply_stabilization,
    balance,
    build_heegaard,
    fake_heegaard_stab,
)
from trisections import serialize
from trisections.planner import plan_common_stabilization, replay
from trisections.serialize import (
    FORMAT_VERSION,
    StateFormatError,
    parse_script,
    parse_state,
    plan_report_to_text,
    script_from_text,
    script_to_text,
    state_from_text,
    state_to_text,
    verification_report_to_text,
)


def _sample_states():
    yield trivial()
    yield from_heegaard(2)
    yield balance(koda_ozawa())[0]
    yield balance(from_heegaard(3))[0]
    yield fake_heegaard_stab(koda_ozawa())
    yield apply_destabilization(open_book(1), DestabMove(1, SameComponent("c0")))


def _payload(state) -> dict:
    return json.loads(state_to_text(state))


# -- round trips -----------------------------------------------------------------


def test_state_round_trips_exactly():
    for state in _sample_states():
        recovered = state_from_text(state_to_text(state))
        assert recovered == state
        assert genealogy(recovered) == genealogy(state)
        assert replay_genealogy(genealogy(recovered)) == recovered.link.components


def test_state_text_is_deterministic_and_newline_terminated():
    state = balance(koda_ozawa())[0]
    text = state_to_text(state)
    assert text == state_to_text(state)
    assert text.endswith("\n")
    assert text == canonical_dumps(json.loads(text))


def test_state_payload_frozen_shape():
    assert state_to_payload(from_heegaard(2)) == {
        "version": 1,
        "label": "from-heegaard(genus=2)",
        "genera": {"g12": 2, "g13": 0, "g23": 0},
        "link": {"components": ["c0"], "next_id": 1},
        "history": [],
    }


def test_history_survives_the_round_trip():
    state, script = balance(from_heegaard(2))
    recovered = state_from_text(state_to_text(state))
    assert recovered.history == script
    assert json.loads(state_to_text(state))["history"][0] == {
        "op": "stab",
        "handlebody": 3,
        "arc": {"same": "c0"},
        "created": ["c1", "c2"],
        "removed": ["c0"],
    }


def walk_at_b(b: int, moves: int, seed: int):
    """connect-sum (b - 1), then ``moves`` stabilizations that keep about b components.

    The moves alternate a merge (H1, two random labels) and a split (H3,
    one random label), so the history mixes both kinds at high b.
    """
    rng = random.Random(seed)
    state = connect_sum_equal_genus(b - 1)
    for k in range(moves):
        labels = state.link.components
        if k % 2 == 0:
            move = StabMove(1, DistinctComponents(*rng.sample(labels, 2)))
        else:
            move = StabMove(3, SameComponent(rng.choice(labels)))
        state = apply_stabilization(state, move)
    return state


def test_high_b_states_round_trip_byte_for_byte():
    built = build_heegaard(connect_sum_equal_genus(2000), 1)[0]  # 2,000 merges from b = 2,001
    mixed = walk_at_b(2001, 600, seed=11)
    assert mixed.b >= 2000
    assert {len(r.removed) for r in mixed.history} == {1, 2}
    for state in (built, mixed):
        text = state_to_text(state)
        recovered = state_from_text(text)
        assert recovered == state
        assert state_to_text(recovered) == text


def test_a_high_b_history_that_reuses_a_removed_label_names_the_step():
    payload = json.loads(state_to_text(walk_at_b(2001, 600, seed=11)))
    history = payload["history"]
    # The first split after step 300 takes the first label merged away.
    gone = history[0]["removed"][0]
    step = next(n for n in range(300, len(history)) if "same" in history[n]["arc"])
    history[step] |= {"arc": {"same": gone}, "removed": [gone]}
    message = f"state: history step {step + 1}: unknown component {gone!r}"
    for parse in (parse_state, reference_parser.parse_state):
        with pytest.raises(StateFormatError) as error:
            parse(payload)
        assert str(error.value) == message


def test_script_round_trips_including_fake_records():
    report = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 2)
    for script in (
        report.a.concatenated(),
        report.b.step3_fake,
        balance(from_heegaard(2))[1],
        (),
    ):
        assert script_from_text(script_to_text(script)) == script


def test_writers_equal_canonical_dumps_of_their_payloads():
    # Every writer is a template; each must agree byte for byte with the
    # stdlib encoder's text of the reference payload.
    for state in _sample_states():
        state = replace(state, label=state.label + ' "q" \\ \n\t\x00 é ☃ \u2028 𝄞')
        assert state_to_text(state) == canonical_dumps(state_to_payload(state))
        assert script_to_text(state.history) == canonical_dumps(script_to_payload(state.history))
    for rs_bound in (0, 1, 2):
        report = plan_common_stabilization(koda_ozawa(), open_book(1), rs_bound)
        assert plan_report_to_text(report) == canonical_dumps(plan_report_to_payload(report))
        fake = report.a.step3_fake
        assert script_to_text(fake) == canonical_dumps(script_to_payload(fake))
    # Records built by hand: both fake_stab shapes, a destab of each kind,
    # records of neither move shape, and labels that need escaping, in
    # arcs and, through the kernel's own constructor, in both move shapes.
    odd, slash = 'c"1', "c\\2"
    records = (
        MoveRecord("fake_stab", 1, DistinctComponents("c3", "c4"), ("c5",), ("c2",)),
        MoveRecord("fake_stab", 1, SameComponent("c3"), ("c5", "c6"), ("c1", "c2")),
        MoveRecord("destab", 2, SameComponent("c0"), ("c1", "c2"), ("c0",)),
        MoveRecord("destab", 3, DistinctComponents("c1", "c0"), ("c2",), ("c0", "c1")),
        MoveRecord("stab", 1, SameComponent(odd), ("c2", "c3"), ("c1",)),
        MoveRecord("stab", 2, DistinctComponents(slash, odd), ("c4",), ("c1", "c2")),
        MoveRecord("stab", 3, SameComponent("c0"), ("c1",), ("c0",)),
        MoveRecord("stab", 1, DistinctComponents("c0", "c1"), (), ()),
        _tuple(MoveRecord, ("stab", 1, SameComponent(odd), (slash, "c\n"), (odd,))),
        _tuple(MoveRecord, ("destab", 2, DistinctComponents(odd, slash), ("c☃",), (odd, slash))),
    )
    assert script_to_text(records) == canonical_dumps(script_to_payload(records))
    state = replace(koda_ozawa(), history=records)
    assert state_to_text(state) == canonical_dumps(state_to_payload(state))
    # Every op, handlebody and shape of a record a move makes, first, among
    # the records above and last in its list, in a script, a state's
    # history and a plan report's steps (lists at depths 0, 1 and 3).
    shapes = tuple(
        _tuple(MoveRecord, (op, i, arc, created, tuple(arc)))
        for op in ("stab", "destab") for i in (1, 2, 3)
        for arc, created in ((SameComponent("c7"), ("c8", "c9")),
                             (DistinctComponents("c10", "c9"), ("c11",)))
    )
    report = plan_common_stabilization(koda_ozawa(), open_book(1), 1)
    for script in (shapes, shapes[::-1], shapes[:1], shapes[1:2], shapes + records,
                   records + shapes, records[:4] + shapes + records[4:]):
        assert script_to_text(script) == canonical_dumps(script_to_payload(script))
        state = replace(koda_ozawa(), history=script)
        assert state_to_text(state) == canonical_dumps(state_to_payload(state))
        steps = replace(report.a, step2_build=script, step4_s12_to_disk=script[::-1])
        planned = replace(report, a=steps)
        assert plan_report_to_text(planned) == canonical_dumps(plan_report_to_payload(planned))
    # A record of either shape built past MoveRecord's checks with a
    # handlebody that equals 1 but is no int, or one outside 1-3, or an op
    # outside the fixed set, writes each as the general template does.
    for handlebody, written in ((True, "True"), (1.0, "1.0"), (4, "4")):
        for record in shapes[:2]:
            odd_record = _tuple(MoveRecord, ("stab", handlebody, *record[2:]))
            text = script_to_text((odd_record,))
            assert f'"handlebody": {written},' in text
            assert text == script_to_text((record,)).replace('"handlebody": 1,',
                                                            f'"handlebody": {written},')
    for record in shapes[:2]:
        odd_record = _tuple(MoveRecord, ("slide", *record[1:]))
        assert script_to_text((odd_record,)) == canonical_dumps(script_to_payload((odd_record,)))
    # Verify reports: every check passing, a failing one built by hand with
    # counterexamples and both kinds of slack, and one with no entries.
    nodes = (MoveGraphNode(0, 0, 0, 1), MoveGraphNode(2, 0, 1, 3))
    failing = VerificationReport(7, (
        PropertyResult('odd "name" \\ é', 7, False, nodes),
        PropertyResult("common-stabilization-exists", 7, False, nodes[1:], slack=0),
        PropertyResult("common-stabilization-exists", 7, True, (), slack=12),
    ))
    reports = [verify_properties(max_sum) for max_sum in range(9)]
    for report in reports + [failing, VerificationReport(0, ())]:
        text = verification_report_to_text(report)
        assert text == canonical_dumps(verification_report_to_payload(report))


# -- property tests on random legal scripts ----------------------------------------

_STARTS = [
    Profile(h1, h2, h3, b)
    for h1, h2, h3, b in itertools.product(range(5), range(5), range(5), range(1, 5))
    if h1 + h2 + h3 <= 8 and (h1, h2, h3, b) != (0, 0, 0, 1)
    and is_feasible(Profile(h1, h2, h3, b))
]
# Characters that JSON escapes, or that need more than one UTF-8 byte.
_ODD_CHARACTERS = ['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\u2028", "𝄞"]
# Labels a state can carry: no lone surrogate (category Cs), which a state
# refuses since it does not encode; the refusal has tests of its own.
_LABELS = st.text(st.one_of(st.sampled_from(_ODD_CHARACTERS),
                            st.characters(exclude_categories=("Cs",))), max_size=12)


def _destabs(state):
    labels = sorted(state.link.components)
    arcs = [SameComponent(c) for c in labels]
    arcs += [DistinctComponents(lo, hi) for lo, hi in itertools.combinations(labels, 2)]
    moves = (DestabMove(i, arc) for i in (1, 2, 3) for arc in arcs)
    return [move for move in moves if is_legal(state, move)]


@st.composite
def _walks(draw):
    """A labelled start state, a random legal script and the state it reaches.

    Steps are stabs, formal destabs and compound fake stabs; the script
    holds the records :func:`replay` expects.
    """
    start = state_from_profile(draw(st.sampled_from(_STARTS)), draw(_LABELS))
    state, script = start, []
    for _ in range(draw(st.integers(0, 10))):
        options = [("stab", move) for move in legal_moves(state)]
        options += [("destab", move) for move in _destabs(state)]
        options.append(("fake_stab", None))
        kind, move = draw(st.sampled_from(options))
        if kind == "stab":
            state = apply_stabilization(state, move)
        elif kind == "destab":
            state = apply_destabilization(state, move)
        else:
            try:
                after = fake_heegaard_stab(state)
            except IllegalMove:
                continue
            script.append(compound_record(state, after))
            state = after
            continue
        script.append(state.history[-1])
    return start, tuple(script), state


_PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_PROPERTY_SETTINGS
@given(_walks())
def test_writers_equal_canonical_dumps_on_random_scripts(walk):
    start, script, final = walk
    for state in (start, final):
        assert state_to_text(state) == canonical_dumps(state_to_payload(state))
    assert script_to_text(script) == canonical_dumps(script_to_payload(script))
    assert script_to_text(final.history) == canonical_dumps(script_to_payload(final.history))


@_PROPERTY_SETTINGS
@given(_walks())
def test_dump_parse_replay_lands_on_an_equal_state(walk):
    start, script, final = walk
    parsed_start = state_from_text(state_to_text(start))
    parsed_script = script_from_text(script_to_text(script))
    assert parsed_start == start and parsed_script == script
    assert replay(parsed_start, parsed_script) == final
    assert state_from_text(state_to_text(final)) == final


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_walks(), _walks(), st.integers(0, 2))
def test_plan_report_text_equals_canonical_dumps_on_random_plans(walk_a, walk_b, rs_bound):
    a, b = walk_a[2], walk_b[2]
    if a.is_trivial or b.is_trivial:
        return
    report = plan_common_stabilization(a, b, rs_bound)
    assert plan_report_to_text(report) == canonical_dumps(plan_report_to_payload(report))


# -- strict state parsing ----------------------------------------------------------


def _expect_rejected(payload):
    with pytest.raises(StateFormatError):
        parse_state(payload)


def test_parse_rejects_non_object_documents():
    _expect_rejected([])
    _expect_rejected("state")
    with pytest.raises(StateFormatError):
        state_from_text("{not json")


def test_parse_rejects_unknown_and_missing_fields():
    good = _payload(from_heegaard(2))
    extra = dict(good, comment="hi")
    _expect_rejected(extra)
    for key in good:
        incomplete = {k: v for k, v in good.items() if k != key}
        _expect_rejected(incomplete)


def test_parse_rejects_unknown_fields_in_nested_objects():
    payload = _payload(from_heegaard(2))
    payload["genera"] = dict(payload["genera"], g14=0)
    _expect_rejected(payload)
    payload = _payload(from_heegaard(2))
    payload["link"] = dict(payload["link"], colour="red")
    _expect_rejected(payload)


def test_parse_rejects_wrong_version():
    payload = dict(_payload(trivial()), version=FORMAT_VERSION + 1)
    _expect_rejected(payload)
    payload = dict(_payload(trivial()), version=True)
    _expect_rejected(payload)


def test_parse_rejects_negative_or_non_integer_genera():
    payload = _payload(from_heegaard(2))
    payload["genera"]["g12"] = -1
    _expect_rejected(payload)
    payload = _payload(from_heegaard(2))
    payload["genera"]["g13"] = "2"
    _expect_rejected(payload)


def test_parse_rejects_malformed_identifiers():
    for bad in ("x0", "c01", "c", "", 3):
        payload = _payload(trivial())
        payload["link"]["components"] = [bad]
        _expect_rejected(payload)


def test_parse_rejects_duplicate_or_empty_components():
    payload = _payload(koda_ozawa())
    payload["link"]["components"] = ["c0", "c0"]
    _expect_rejected(payload)
    payload = _payload(koda_ozawa())
    payload["link"]["components"] = []
    _expect_rejected(payload)


def test_parse_rejects_components_not_reaching_back_to_c0():
    payload = _payload(trivial())
    payload["link"]["components"] = ["c1"]
    payload["link"]["next_id"] = 2
    _expect_rejected(payload)


def test_parse_rejects_wrong_next_id():
    payload = _payload(balance(koda_ozawa())[0])
    payload["link"]["next_id"] += 1
    _expect_rejected(payload)


def test_parse_rejects_history_that_does_not_replay():
    good = _payload(balance(koda_ozawa())[0])
    # stored components disagree with the replay
    payload = json.loads(json.dumps(good))
    payload["link"]["components"] = ["c0"]
    payload["link"]["next_id"] = 1
    _expect_rejected(payload)
    # a record creating out-of-sequence labels
    payload = json.loads(json.dumps(good))
    payload["history"][0]["created"] = ["c7"]
    payload["link"]["components"] = ["c7"]
    payload["link"]["next_id"] = 8
    _expect_rejected(payload)
    # a record removing a component that never existed
    payload = json.loads(json.dumps(good))
    payload["history"][0]["arc"] = {"distinct": ["c5", "c6"]}
    payload["history"][0]["removed"] = ["c5", "c6"]
    _expect_rejected(payload)
    # the stored components in another order than the replay leaves them
    payload = _payload(koda_ozawa())
    payload["link"]["components"] = ["c1", "c0"]
    _expect_rejected(payload)
    # a split record naming its two fresh labels in the other order
    payload = _payload(apply_stabilization(from_heegaard(2), StabMove(3, SameComponent("c0"))))
    assert payload["history"][0]["created"] == ["c1", "c2"]
    payload["history"][0]["created"] = ["c2", "c1"]
    _expect_rejected(payload)


# Two states whose histories replay on the labels but that no legal moves
# could have made, with the step at which walking the genera back from the
# stored ones first drops one below zero.
_IMPOSSIBLE_HISTORIES = [
    pytest.param(
        {"version": 1, "label": "", "genera": {"g12": 0, "g13": 0, "g23": 0},
         "link": {"components": ["c2"], "next_id": 3},
         "history": [{"op": "stab", "handlebody": 1, "arc": {"distinct": ["c0", "c1"]},
                      "created": ["c2"], "removed": ["c0", "c1"]}]},
        "state: history step 1 would start from genera (g12, g13, g23) = (-1, -1, 0), below zero",
        id="trivial-after-a-merge",
    ),
    pytest.param(
        {"version": 1, "label": "", "genera": {"g12": 0, "g13": 0, "g23": 1},
         "link": {"components": ["c1", "c4"], "next_id": 5},
         "history": [{"op": "stab", "handlebody": 3, "arc": {"same": "c0"},
                      "created": ["c2", "c3"], "removed": ["c0"]},
                     {"op": "destab", "handlebody": 3, "arc": {"distinct": ["c2", "c3"]},
                      "created": ["c4"], "removed": ["c2", "c3"]}]},
        "state: history step 2 would start from genera (g12, g13, g23) = (-1, 0, 1), below zero",
        id="koda-ozawa-after-an-illegal-stab",
    ),
]


@pytest.mark.parametrize("payload, message", _IMPOSSIBLE_HISTORIES)
def test_parse_rejects_histories_no_legal_moves_make(payload, message):
    # The labels replay, but a genus falls below zero on the way back.
    text = json.dumps(payload)
    for read in (state_from_text, reference_parser.state_from_text):
        with pytest.raises(StateFormatError) as caught:
            read(text)
        assert str(caught.value) == message


def test_parse_rejects_fake_stab_inside_state_history():
    report = plan_common_stabilization(koda_ozawa(), koda_ozawa(), 1)
    fake_payload = json.loads(script_to_text(report.a.step3_fake))[0]
    payload = _payload(koda_ozawa())
    payload["history"] = [fake_payload]
    with pytest.raises(StateFormatError, match="constituent"):
        parse_state(payload)


def test_parse_rejects_non_list_history():
    payload = dict(_payload(trivial()), history={})
    _expect_rejected(payload)


# -- strict script parsing -----------------------------------------------------------


def test_parse_script_rejects_non_arrays():
    with pytest.raises(StateFormatError):
        parse_script({})
    with pytest.raises(StateFormatError):
        script_from_text('{"op": "stab"}')


def test_parse_script_rejects_bad_records():
    good = json.loads(script_to_text(balance(from_heegaard(2))[1]))
    record = dict(good[0], op="slide")
    with pytest.raises(StateFormatError):
        parse_script([record])
    record = dict(good[0], handlebody=4)
    with pytest.raises(StateFormatError):
        parse_script([record])
    record = dict(good[0])
    del record["created"]
    with pytest.raises(StateFormatError):
        parse_script([record])


def test_parse_script_rejects_malformed_arcs():
    base = json.loads(script_to_text(balance(from_heegaard(2))[1]))[0]
    for arc in (
        {"same": "c0", "distinct": ["c1", "c2"]},
        {"distinct": ["c1"]},
        {"distinct": ["c1", "c1"]},
        {"loop": "c0"},
        "c0",
    ):
        record = dict(base, arc=arc)
        with pytest.raises(StateFormatError):
            parse_script([record])


def test_parse_script_rejects_inconsistent_turnover():
    base = json.loads(script_to_text(balance(from_heegaard(2))[1]))[0]
    # a one-component arc must create exactly two and remove the named one
    record = dict(base, created=["c1"])
    with pytest.raises(StateFormatError):
        parse_script([record])
    record = dict(base, removed=["c1"])
    with pytest.raises(StateFormatError):
        parse_script([record])


# -- report payloads -------------------------------------------------------------------


def test_plan_report_payload_shape():
    report = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 1)
    payload = plan_report_to_payload(report)
    assert list(payload) == ["version", "rs_bound", "final_profile", "final_genera", "a", "b"]
    assert payload["version"] == FORMAT_VERSION
    assert payload["rs_bound"] == 1
    assert payload["final_profile"] == [5, 13, 8, 1]
    assert payload["final_genera"] == {"g12": 5, "g13": 0, "g23": 8}
    for side in ("a", "b"):
        steps = payload[side]["steps"]
        assert list(steps) == [
            "step1_balance",
            "step2_build",
            "step3_fake",
            "step4_s12_to_disk",
            "step5_s13_to_disk",
        ]
    assert plan_report_to_text(report) == canonical_dumps(payload)


def test_verification_report_payload_shape():
    report = verify_properties(5)
    payload = verification_report_to_payload(report)
    assert payload["version"] == FORMAT_VERSION
    assert payload["max_sum"] == 5
    assert len(payload["entries"]) == 5
    for entry in payload["entries"]:
        assert list(entry) == ["property", "range", "pass", "counterexamples"]
        assert entry["pass"] is True
        assert entry["counterexamples"] == []
        has_slack = entry["property"] == "common-stabilization-exists"
        assert ("slack" in entry["range"]) == has_slack
    assert verification_report_to_text(report).endswith("\n")


# -- the writer's own layout against the json path ---------------------------------


def _json_outcome(kind: str, text: str):
    # What the json path alone makes of a document: json.loads and the checks.
    parse = parse_state if kind == "state" else parse_script
    try:
        return "accepted", parse(serialize._loads(text, kind))
    except StateFormatError as error:
        return "rejected", str(error)


def _read_outcome(kind: str, text: str):
    read = state_from_text if kind == "state" else script_from_text
    try:
        return "accepted", read(text)
    except StateFormatError as error:
        return "rejected", str(error)


def _in_records(pattern: str, new: str):
    # A change of the first match of ``pattern`` at or after the first record.
    def change(text: str) -> str:
        start = text.index('"op"')
        changed = text[:start] + re.sub(pattern, new, text[start:], count=1)
        assert changed != text, pattern
        return changed
    return change


def _once(old: str, new: str):
    def change(text: str) -> str:
        assert old in text, old
        return text.replace(old, new, 1)
    return change


_LABEL = r'"c(\d+)"'
# Documents one change away from the writer's layout.  Each is read by the
# json path from the start, or by the layout reader to the same result.
_RECORD_NEAR_MISSES = {
    "extra space": _in_records('"op": ', '"op":  '),
    "swapped keys": _in_records(r'( +"op": "\w+",\n)( +"handlebody": \d,\n)', r"\2\1"),
    "escaped c": _in_records(_LABEL, r'"\\u0063\1"'),
    "leading zero": _in_records(_LABEL, r'"c0\1"'),
    "handlebody 1.0": _in_records(r'"handlebody": (\d)', r'"handlebody": \1.0'),
    "handlebody true": _in_records(r'"handlebody": \d', '"handlebody": true'),
    "handlebody 4": _in_records(r'"handlebody": \d', '"handlebody": 4'),
    "handlebody 0": _in_records(r'"handlebody": \d', '"handlebody": 0'),
    "duplicate key": _in_records(r'( +)"op": "(\w+)",\n', r'\1"op": "slide",\n\1"op": "\2",\n'),
    "fake_stab op": _in_records(r'"op": "\w+"', '"op": "fake_stab"'),
    "equal created labels": _in_records(r'("created": \[\n +)("c\d+"),\n( +)"c\d+"', r"\1\2,\n\3\2"),
    "pair out of order in the arc": _in_records(
        r'("distinct": \[\n +)("c\d+"),\n( +)("c\d+")', r"\1\4,\n\3\2"),
    "pair out of order": _in_records(
        r'("distinct": \[\n +)("c\d+"),\n( +)("c\d+")'
        r'(\n(?:.*\n){5} +"removed": \[\n +)("c\d+"),\n( +)("c\d+")',
        r"\1\4,\n\3\2\5\8,\n\7\6"),
    "equal pair": _in_records(r'("distinct": \[\n +)("c\d+"),\n( +)"c\d+"', r"\1\2,\n\3\2"),
    "split removing another label": _in_records(
        r'("same": "c(\d+)"\n(?:.*\n){5} +"removed": \[\n +)"c\d+"', r'\1"c\g<2>0"'),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "missing final newline": lambda text: text[:-1],
    "two final newlines": lambda text: text + "\n",
    "trailing space": lambda text: text + " ",
    "trailing byte": lambda text: text + "x",
    "trailing byte before the newline": lambda text: text[:-1] + "x\n",
    "trailing bracket": lambda text: text[:-1] + "]\n",
    "trailing brace": lambda text: text[:-1] + "}\n",
}
_STATE_NEAR_MISSES = {
    "escaped label": lambda text: re.sub(
        r'"label": ".*"', r'"label": "\\u0041 \\" \\\\ \\t é \\ud83d\\ude00"', text, count=1),
    "lone surrogate label": lambda text: re.sub(
        r'"label": ".*"', r'"label": "\\ud800"', text, count=1),
    "control character in the label": _once('"label": "', '"label": "\x01'),
    "version 01": _once('"version": 1', '"version": 01'),
    "version 2": _once('"version": 1', '"version": 2'),
    "genus 1.0": lambda text: re.sub(r'"g12": (\d+)', r'"g12": \1.0', text, count=1),
    "genus -0": lambda text: re.sub(r'"g13": \d+', '"g13": -0', text, count=1),
    "genus with a leading zero": lambda text: re.sub(r'"g23": (\d+)', r'"g23": 0\1', text, count=1),
    f"genus of {serialize.MAX_DIGITS} digits": lambda text: re.sub(
        r'"g23": (\d+)', f'"g23": {"9" * serialize.MAX_DIGITS}', text, count=1),
    f"genus of {serialize.MAX_DIGITS + 1} digits": lambda text: re.sub(
        r'"g23": (\d+)', f'"g23": 1{"0" * serialize.MAX_DIGITS}', text, count=1),
    "next_id 0": lambda text: re.sub(r'"next_id": \d+', '"next_id": 0', text, count=1),
    "next_id + 1": lambda text: re.sub(r'"next_id": (\d+)', lambda m: f'"next_id": {int(m[1]) + 1}',
                                       text, count=1),
    "duplicate component": lambda text: re.sub(r'("components": \[\n +)("c\d+"),\n( +)"c\d+"',
                                               r"\1\2,\n\3\2", text, count=1),
    "no components": lambda text: re.sub(
        r'"components": \[\n[^\]]*\]', '"components": []', text, count=1),
    "escaped component": lambda text: re.sub(
        r'("components": \[\n +)"c', r'\1"\\u0063', text, count=1),
    "swapped header keys": lambda text: re.sub(r'( +"g12": \d+),\n( +"g13": \d+)', r"\2,\n\1", text,
                                               count=1),
    "empty history in two lines": _once('"history": [\n', '"history": [\n\n'),
}
_SCRIPT_NEAR_MISSES = {
    "empty list in two lines": lambda text: "[\n]\n",
    "empty list with a space": lambda text: "[ ]\n",
    "empty list": lambda text: "[]",
}


def _near_miss_documents():
    walk = walk_at_b(1030, 14, seed=11)  # both shapes, labels past c1023
    book = build_heegaard(open_book(3), 2)[0]
    odd = replace(walk, label='odd "label" \\ é \u2028 \x01')
    yield from (("state", state_to_text(state)) for state in (walk, book, odd, from_heegaard(2)))
    yield from (("script", script_to_text(script)) for script in (walk.history, book.history, ()))


def test_the_layout_reader_reads_what_the_writer_writes():
    for kind, text in _near_miss_documents():
        layout = serialize._layout_state if kind == "state" else serialize._layout_script
        assert layout(text) is not None
        assert ("accepted", layout(text)) == _json_outcome(kind, text)


@pytest.mark.parametrize("change", [*_RECORD_NEAR_MISSES, *_STATE_NEAR_MISSES, *_SCRIPT_NEAR_MISSES])
def test_a_near_miss_of_the_layout_reads_as_the_json_path_reads_it(change):
    # The same verdict and result, or the same message, as json.loads and
    # the checks give, whichever reader takes the document.
    changes = {**_RECORD_NEAR_MISSES, **_STATE_NEAR_MISSES, **_SCRIPT_NEAR_MISSES}
    tried = 0
    for kind, text in _near_miss_documents():
        if (change in _STATE_NEAR_MISSES and kind != "state"
                or change in _SCRIPT_NEAR_MISSES and kind != "script"
                or change in _RECORD_NEAR_MISSES and '"op"' not in text):
            continue
        try:
            changed = changes[change](text)
        except (AssertionError, ValueError):  # nothing to change in this document
            continue
        if changed == text:
            continue
        tried += 1
        assert _read_outcome(kind, changed) == _json_outcome(kind, changed), (kind, changed[:600])
    assert tried


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 1023, 1025, 2001, 2600]), st.integers(0, 30), st.integers(0, 10**6),
       st.text(st.sampled_from([*_ODD_CHARACTERS, "a", "c", "1"]), max_size=8))
def test_the_layout_reader_reads_random_walks_back(b, moves, seed, label):
    # Merges and splits at b from 2 to past c2047, under any label.
    state = replace(walk_at_b(b, moves, seed), label=label)
    assert serialize._layout_state(state_to_text(state)) == state
    assert serialize._layout_script(script_to_text(state.history)) == state.history
