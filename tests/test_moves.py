"""Stabilization calculus: legality, effects, inverses, balance, and collapse.

Exhaustive checks run over every feasible profile with a small genus sum,
which keeps them deterministic while still covering all the legality
boundaries (b == 1, vanishing opposite genus, ties between handlebodies).
"""

from __future__ import annotations

import dataclasses
import re
from itertools import combinations

import pytest

from genealogy import genealogy, replay_genealogy
from move_oracle import is_legal, legal_moves
from trisections import core, moves
from trisections.core import (
    LinkComponentSet,
    MoveGraphNode,
    Profile,
    TrisectionState,
    connect_sum_equal_genus,
    from_heegaard,
    is_feasible,
    koda_ozawa,
    open_book,
    other_two,
    split_heegaard,
    state_from_profile,
    trivial,
)
from trisections.explorer import common_stabilization_search, feasible_nodes
from trisections.moves import (
    DESTAB_CAVEAT,
    STAB_DELTAS,
    DestabMove,
    DistinctComponents,
    IllegalMove,
    MoveRecord,
    SameComponent,
    StabMove,
    _Walk,
    apply_destabilization,
    apply_stabilization,
    balance,
    balance_length,
    build_heegaard,
    capped_genus,
    disk_length,
    fake_heegaard_stab,
    inverse_of,
)
from trisections.planner import plan_common_stabilization, replay
from trisections.serialize import script_from_text, script_to_text, state_from_text, state_to_text


def _feasible_states(max_sum: int):
    for h1 in range(max_sum + 1):
        for h2 in range(max_sum + 1 - h1):
            for h3 in range(max_sum + 1 - h1 - h2):
                for b in range(1, max_sum + 2):
                    profile = Profile(h1, h2, h3, b)
                    if is_feasible(profile):
                        yield state_from_profile(profile)


# -- arcs and move datatypes ----------------------------------------------------


def test_distinct_arc_normalizes_its_pair():
    arc = DistinctComponents("c2", "c1")
    assert (arc.first, arc.second) == ("c1", "c2")
    assert arc == DistinctComponents("c1", "c2")


def test_distinct_arc_rejects_equal_components():
    with pytest.raises(ValueError):
        DistinctComponents("c1", "c1")


def test_the_two_move_types_are_distinct_dataclasses_of_one_shape():
    arc = SameComponent("c0")
    stab, destab = StabMove(1, arc), DestabMove(1, arc)
    assert not isinstance(stab, DestabMove) and not isinstance(destab, StabMove)
    assert stab != destab and stab == StabMove(1, arc) and destab == DestabMove(1, arc)
    assert hash(stab) == hash(destab) == hash((1, arc)) == hash(StabMove(1, arc))
    assert repr(stab) == "StabMove(handlebody=1, arc=SameComponent(component='c0'))"
    assert repr(destab) == "DestabMove(handlebody=1, arc=SameComponent(component='c0'))"
    for move_type in (StabMove, DestabMove):
        assert [field.name for field in dataclasses.fields(move_type)] == ["handlebody", "arc"]
    moved = dataclasses.replace(destab, handlebody=2)
    assert type(moved) is DestabMove and moved == DestabMove(2, arc)
    with pytest.raises(ValueError, match="handlebody index"):
        dataclasses.replace(stab, handlebody=4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        stab.handlebody = 2


def test_moves_reject_bad_handlebody_index():
    with pytest.raises(ValueError):
        StabMove(0, SameComponent("c0"))
    with pytest.raises(ValueError):
        DestabMove(4, SameComponent("c0"))


@pytest.mark.parametrize("arc", ["c0", ("c0", "c1"), None], ids=["str", "tuple", "none"])
def test_moves_and_records_refuse_what_is_not_an_arc(arc):
    # The kernel reads an arc's kind by its type, so a plain pair would
    # pass as a two-component arc and land in a history untyped.
    for build in (
        lambda: StabMove(1, arc),
        lambda: DestabMove(1, arc),
        lambda: MoveRecord("stab", 1, arc, ("c2", "c3"), ("c0",)),
    ):
        with pytest.raises(IllegalMove, match="expected a SameComponent or DistinctComponents arc"):
            build()


@pytest.mark.parametrize("labels", [["c2", "c3"], "c2", None, ("c2", 3)],
                         ids=["list", "str", "none", "tuple-with-int"])
def test_records_and_links_refuse_labels_that_are_not_a_tuple_of_ids(labels):
    # A list would build an unhashable record or link.  A link names the
    # first label that is no identifier, as for any other bad label.
    arc = SameComponent("c0")
    record = MoveRecord("stab", 1, arc, ("c1", "c2"), ("c0",))
    for field, build in (
        ("created", lambda: MoveRecord("stab", 1, arc, labels, ("c0",))),
        ("removed", lambda: MoveRecord("stab", 1, arc, ("c1", "c2"), labels)),
        ("created", lambda: record._replace(created=labels)),
        ("removed", lambda: MoveRecord._make(("stab", 1, arc, ("c1", "c2"), labels))),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be a tuple of component identifiers"):
            build()
    refusal = ("^component identifiers look like 'c12', got 3" if isinstance(labels, tuple)
               else "^components must be a tuple of component identifiers")
    with pytest.raises(ValueError, match=refusal):
        LinkComponentSet(labels, 4)
    # What the checking constructors do build hashes, as do the kernel's
    # records and links.
    state, _ = balance(open_book(2))
    built = [MoveRecord(*record) for record in state.history]
    built += [MoveRecord("fake_stab", 1, arc, ("c5",), ("c4",)), LinkComponentSet(("c0", "c2"), 3),
              LinkComponentSet(state.link.components, state.link.next_id), state.link,
              *state.history]
    assert all(isinstance(hash(value), int) for value in built)


@pytest.mark.parametrize("end", [5, None, b"c0", ("c0",)], ids=["int", "none", "bytes", "tuple"])
def test_arcs_refuse_an_end_that_is_not_a_string(end):
    # A raw TypeError from comparing the ends, or an arc that fails only
    # later in a walk, is what these used to give.
    refusal = rf"^an arc's ends are component identifiers \(str\), got {re.escape(repr(end))}$"
    # _make, and _replace through it, used to skip the checks.
    for build in (lambda: SameComponent(end), lambda: DistinctComponents(end, "c0"),
                  lambda: DistinctComponents("c0", end),
                  lambda: SameComponent("c0")._replace(component=end),
                  lambda: DistinctComponents._make([end, "c1"])):
        with pytest.raises(ValueError, match=refusal):
            build()
    assert DistinctComponents._make(["c3", "c1"]) == DistinctComponents("c1", "c3")


def test_states_refuse_parts_of_the_wrong_type():
    link, node = LinkComponentSet.fresh(1), MoveGraphNode(0, 0, 0, 1)
    with pytest.raises(ValueError, match=r"^genera must be a MoveGraphNode, got \(0, 0, 0, 1\)$"):
        TrisectionState((0, 0, 0, 1), link)
    with pytest.raises(ValueError, match=r"^link must be a LinkComponentSet, got \('c0',\)$"):
        TrisectionState(node, ("c0",))
    # A label that is no str, or a next_id that is no exact int, used to
    # build a state whose document state_from_text refused.
    for label in (5, None):
        with pytest.raises(ValueError, match=rf"^label must be a str, got {label}$"):
            TrisectionState(node, link, (), label)
    for next_id in (True, 2.5):
        with pytest.raises(ValueError, match=rf"^next_id must be an int, got {re.escape(repr(next_id))}$"):
            LinkComponentSet(("c0",), next_id)


def test_arcs_and_states_built_from_checked_parts_hash():
    # Any string is an end, so labels that are no identifier still build;
    # whether an end is live is the walk's question.
    # The b >= 2 fake stab builds its second arc by the kernel's own path.
    faked = fake_heegaard_stab(MoveGraphNode(0, 0, 0, 2).to_state())
    assert type(faked.history[-1].arc) is SameComponent
    built = [SameComponent("c0"), SameComponent('c"1'), DistinctComponents("c1", "c0"),
             DistinctComponents('c"1', "c\\2"), TrisectionState(MoveGraphNode(0, 0, 0, 1),
                                                               LinkComponentSet.fresh(1)),
             faked, *faked.history]
    assert all(isinstance(hash(value), int) for value in built)
    assert DistinctComponents("c1", "c0") == ("c0", "c1") and SameComponent('c"1') == ('c"1',)


def test_move_record_rejects_unknown_op():
    with pytest.raises(ValueError):
        MoveRecord("twist", 1, SameComponent("c0"), (), ("c0",))


# -- legality -------------------------------------------------------------------


def test_stab_deltas_rows_are_single_stabilizations():
    assert list(STAB_DELTAS) == [(i, k) for i in (1, 2, 3) for k in ("same", "distinct")]
    for (i, kind), (d12, d13, d23, db) in STAB_DELTAS.items():
        between = {(1, 2): d12, (1, 3): d13, (2, 3): d23}
        dh = {
            n: sum(between[min(n, m), max(n, m)] for m in other_two(n)) + db
            for n in (1, 2, 3)
        }
        j, k = other_two(i)
        assert (dh[i], dh[j], dh[k]) == (1, 0, 0)
        assert db == (1 if kind == "same" else -1)
        assert [d for d in (d12, d13, d23, db) if d < 0] == [-1]


def test_stab_deltas_fake_stab_compositions_move_only_g12():
    for first, second in (("same", "distinct"), ("distinct", "same")):
        total = [a + b for a, b in zip(STAB_DELTAS[2, first], STAB_DELTAS[1, second])]
        assert total == [1, 0, 0, 0]


def test_only_two_component_arcs_lower_b():
    # moves._apply tests a result's genera against PARAM_FLOORS, not its b.
    # Every rule that lowers b is a two-component arc, and lowers it by
    # one: its two distinct labels must both exist, so b >= 2 before the
    # move and b >= 1 after it.
    table = moves._MOVE_RULES
    assert sorted(table) == ["destab", "stab"]
    assert all(len(table[op]) == 2 and all(len(row) == 4 for row in table[op]) for op in table)
    rules = {
        (op, i, same): table[op][same][i]
        for op in ("stab", "destab") for i in (1, 2, 3) for same in (True, False)
    }
    lowering = [key for key, (delta, _) in rules.items() if delta[3] < 0]
    assert sorted(lowering) == sorted(
        (op, i, False) for op in ("stab", "destab") for i in (1, 2, 3)
    )
    assert all(rules[key][0][3] == -1 for key in lowering)
    # At b = 1 such a move fails on membership, before any floor.
    state = from_heegaard(2)
    for move, apply in (
        (StabMove(1, DistinctComponents("c0", "c1")), apply_stabilization),
        (DestabMove(2, DistinctComponents("c0", "c1")), apply_destabilization),
    ):
        with pytest.raises(IllegalMove, match="component 'c1' is not in the boundary link"):
            apply(state, move)


def test_legality_and_effects_match_the_four_arc_conditions():
    # The conditions as originally written per move kind, checked against
    # the table-driven rule and the applied parameter change.  A labeled
    # stabilization thus applies the same STAB_DELTAS row as
    # MoveGraphNode.successors for its (handlebody, arc kind), which is why
    # explorer.realize_path needs no check that a script lands on its goal.
    for state in _feasible_states(12):
        g = state.genera
        labels = sorted(state.link.components)
        arcs = [SameComponent(labels[0])]
        if state.b >= 2:
            arcs.append(DistinctComponents(labels[0], labels[1]))
        before = (g.g12, g.g13, g.g23, state.b)
        for i in (1, 2, 3):
            j, k = other_two(i)
            for arc in arcs:
                same = isinstance(arc, SameComponent)
                # S_jk is opposite H_i; S_ij and S_ik are opposite H_k and H_j.
                stab_ok = g.opposite(i) >= 1 if same else state.b >= 2
                destab_ok = (
                    g.opposite(k) >= 1 and g.opposite(j) >= 1 if same else state.b >= 2
                )
                cases = (
                    (StabMove(i, arc), stab_ok, apply_stabilization, 1,
                     STAB_DELTAS[i, "same" if same else "distinct"]),
                    (DestabMove(i, arc), destab_ok, apply_destabilization, -1,
                     STAB_DELTAS[i, "distinct" if same else "same"]),
                )
                for move, expected, apply, sign, row in cases:
                    assert is_legal(state, move) == expected
                    if not expected:
                        with pytest.raises(IllegalMove):
                            apply(state, move)
                        continue
                    after = apply(state, move)
                    ag = after.genera
                    change = [a - b for a, b in zip((ag.g12, ag.g13, ag.g23, after.b), before)]
                    assert change == [sign * d for d in row]


def test_moves_build_what_the_validating_constructors_build():
    # _apply builds the node, record and state without __post_init__.
    # Rebuilding each through its validating constructor must succeed and
    # give an equal object, for every legal stab and destab with sum_h <= 12.
    applied = 0
    for state in _feasible_states(12):
        labels = state.link.components
        arcs = [SameComponent(c) for c in labels]
        arcs += [DistinctComponents(lo, hi) for lo, hi in combinations(labels, 2)]
        for i in (1, 2, 3):
            for arc in arcs:
                for move, apply in (
                    (StabMove(i, arc), apply_stabilization),
                    (DestabMove(i, arc), apply_destabilization),
                ):
                    if not is_legal(state, move):
                        continue
                    after = apply(state, move)
                    g, record, link = after.genera, after.history[-1], after.link
                    assert MoveGraphNode(g.g12, g.g13, g.g23, g.b) == g
                    _assert_public_record(record)
                    assert record.op == ("stab" if apply is apply_stabilization else "destab")
                    assert LinkComponentSet(link.components, link.next_id) == link
                    assert TrisectionState(g, link, tuple(after.history), after.label) == after
                    assert after.history[:-1] == tuple(state.history)
                    applied += 1
    assert applied > 1_000
    # The walks and the reader build their records and arcs as unchecked
    # tuples too.
    states = [koda_ozawa(), from_heegaard(2), open_book(2), connect_sum_equal_genus(3),
              split_heegaard(3, 1), state_from_profile(Profile(3, 3, 2, 3))]
    scripts = []
    for state in states:
        balanced, script = balance(state)
        scripts.append(script)
        scripts += [build_heegaard(state, i)[2] for i in (1, 2, 3)]
        scripts.append(fake_heegaard_stab(balanced).history)
        for other in states:
            if other is not state:
                report = plan_common_stabilization(state, other, 2)
                scripts += [report.a.concatenated(), report.b.concatenated()]
                _, left, right = common_stabilization_search(state.genera, other.genera, 30)
                scripts += [left, right]
    scripts += [script_from_text(script_to_text(script)) for script in scripts]
    scripts += [state_from_text(state_to_text(replay(state, balance(state)[1]))).history
                for state in states]
    checked = 0
    for script in scripts:
        for record in script:
            _assert_public_record(record)
            checked += 1
    assert checked > 2_000


def _assert_public_record(record: MoveRecord) -> None:
    # The record and its arc are exactly the public types, in the arc's
    # order, and equal what the validating constructor builds.
    assert type(record) is MoveRecord
    arc = record.arc
    assert type(arc) is SameComponent or (type(arc) is DistinctComponents
                                          and arc.first < arc.second)
    rebuilt = MoveRecord(*record)
    assert rebuilt == record and hash(rebuilt) == hash(record)


def test_apply_rejects_illegal_moves():
    state = from_heegaard(2)  # genera (2,0,0), b = 1
    with pytest.raises(IllegalMove):
        apply_stabilization(state, StabMove(1, SameComponent("c0")))  # g23 = 0
    with pytest.raises(IllegalMove):
        apply_stabilization(state, StabMove(1, DistinctComponents("c0", "c1")))  # b = 1
    with pytest.raises(IllegalMove):
        apply_stabilization(state, StabMove(3, SameComponent("c7")))  # missing label


def test_apply_rejects_wrong_move_type():
    state = koda_ozawa()
    with pytest.raises(IllegalMove):
        apply_stabilization(state, DestabMove(1, DistinctComponents("c0", "c1")))
    with pytest.raises(IllegalMove):
        apply_destabilization(state, StabMove(1, SameComponent("c0")))


# -- stabilization effects ------------------------------------------------------


def test_same_component_stab_effect():
    state = from_heegaard(2)
    after = apply_stabilization(state, StabMove(3, SameComponent("c0")))
    assert after.genera == MoveGraphNode(1, 0, 0, 2)
    assert after.link.components == ("c1", "c2")
    assert after.profile == Profile(2, 2, 1, 2)
    assert after.history == (
        MoveRecord("stab", 3, SameComponent("c0"), ("c1", "c2"), ("c0",)),
    )


def test_distinct_components_stab_effect():
    state = apply_stabilization(from_heegaard(2), StabMove(3, SameComponent("c0")))
    after = apply_stabilization(state, StabMove(3, DistinctComponents("c1", "c2")))
    assert after.genera == MoveGraphNode(1, 1, 1, 1)
    assert after.link.components == ("c3",)
    assert after.profile == Profile(2, 2, 2, 1)
    assert after.history[-1] == MoveRecord(
        "stab", 3, DistinctComponents("c1", "c2"), ("c3",), ("c1", "c2")
    )


def test_every_legal_move_shifts_one_handlebody_by_one():
    for state in _feasible_states(7):
        before = state.profile
        for move in legal_moves(state):
            after = apply_stabilization(state, move).profile
            i = move.handlebody
            deltas = [after.genus(n) - before.genus(n) for n in (1, 2, 3)]
            assert deltas[i - 1] == 1
            assert sorted(deltas) == [0, 0, 1]
            expected_b = before.b + (1 if isinstance(move.arc, SameComponent) else -1)
            assert after.b == expected_b


def test_moves_preserve_genealogy_replay():
    state = koda_ozawa()
    for move in (
        StabMove(1, DistinctComponents("c0", "c1")),
        StabMove(1, SameComponent("c2")),
        StabMove(2, DistinctComponents("c3", "c4")),
    ):
        state = apply_stabilization(state, move)
        assert replay_genealogy(genealogy(state)) == state.link.components


# -- formal destabilization -----------------------------------------------------


def test_destab_merging_pair_effect_and_caveat():
    state = koda_ozawa()  # genera (0,0,1), b = 2
    after = apply_destabilization(state, DestabMove(1, DistinctComponents("c0", "c1")))
    assert after.genera == MoveGraphNode(0, 0, 2, 1)
    assert after.profile == Profile(0, 2, 2, 1)
    assert DESTAB_CAVEAT in after.label
    assert after.history[-1].op == "destab"


def test_destab_splitting_component_effect():
    state = open_book(1)  # genera (1,1,1), b = 1
    after = apply_destabilization(state, DestabMove(1, SameComponent("c0")))
    assert after.genera == MoveGraphNode(0, 0, 1, 2)
    assert after.profile == Profile(1, 2, 2, 2)


def test_destab_caveat_is_not_repeated():
    state = open_book(2)
    state = apply_destabilization(state, DestabMove(1, SameComponent("c0")))
    state = apply_destabilization(state, DestabMove(2, SameComponent("c1")))
    assert state.label.count(DESTAB_CAVEAT) == 1


def test_destab_legality_boundaries():
    with pytest.raises(IllegalMove):
        # b == 1: nothing to merge
        apply_destabilization(open_book(1), DestabMove(1, DistinctComponents("c0", "c1")))
    with pytest.raises(IllegalMove):
        # g12 = g13 = 0: H1 cannot split a component
        apply_destabilization(koda_ozawa(), DestabMove(1, SameComponent("c0")))


def test_stab_then_inverse_destab_round_trips():
    for state in _feasible_states(7):
        for move in legal_moves(state):
            mid = apply_stabilization(state, move)
            back = apply_destabilization(mid, inverse_of(mid.history[-1]))
            assert back.genera == state.genera
            assert back.b == state.b


def test_destab_then_inverse_stab_round_trips():
    for state in _feasible_states(7):
        arcs: list[SameComponent | DistinctComponents] = [
            SameComponent(c) for c in state.link.components
        ]
        if state.b >= 2:
            arcs.append(DistinctComponents(*sorted(state.link.components)[:2]))
        for i in (1, 2, 3):
            for arc in arcs:
                move = DestabMove(i, arc)
                if not is_legal(state, move):
                    continue
                mid = apply_destabilization(state, move)
                back = apply_stabilization(mid, inverse_of(mid.history[-1]))
                assert back.genera == state.genera
                assert back.b == state.b


def test_inverse_of_swaps_arc_shape():
    state = koda_ozawa()
    mid = apply_stabilization(state, StabMove(1, SameComponent("c0")))
    inverse = inverse_of(mid.history[-1])
    assert isinstance(inverse, DestabMove)
    assert inverse.arc == DistinctComponents("c2", "c3")
    mid = apply_stabilization(state, StabMove(2, DistinctComponents("c0", "c1")))
    inverse = inverse_of(mid.history[-1])
    assert inverse.arc == SameComponent("c2")


def test_inverse_of_rejects_compound_records():
    record = MoveRecord("fake_stab", 1, SameComponent("c0"), ("c1",), ("c0",))
    with pytest.raises(ValueError):
        inverse_of(record)


# -- fake Heegaard stabilization --------------------------------------------------


def test_fake_stab_connected_boundary_variant():
    state = open_book(1)  # genera (1,1,1), b = 1
    after = fake_heegaard_stab(state)
    assert after.genera == MoveGraphNode(2, 1, 1, 1)
    assert after.b == 1
    assert after.profile == Profile(3, 3, 2, 1)
    ops = [record.op for record in after.history]
    assert ops == ["stab", "stab"]
    assert [record.handlebody for record in after.history] == [2, 1]


def test_fake_stab_disconnected_boundary_variant():
    state = koda_ozawa()  # genera (0,0,1), b = 2
    after = fake_heegaard_stab(state)
    assert after.genera == MoveGraphNode(1, 0, 1, 2)
    assert after.b == 2
    # the second arc runs through the component the first move created
    second = after.history[-1]
    assert second.arc == SameComponent(after.history[-2].created[0])


def test_fake_stab_compound_lists_removed_labels_in_creation_order():
    # The b >= 2 variant merges the least pair in string order, c10 before
    # c9; its compound record lists them as the link does, c9 first.
    state = TrisectionState(MoveGraphNode(0, 0, 1, 2), LinkComponentSet(("c9", "c10"), 11))
    record = _Walk(state).fake_stab()
    assert record.removed == ("c9", "c10")
    assert replay(state, (record,)).genera == MoveGraphNode(1, 0, 1, 2)
    with pytest.raises(IllegalMove, match="script step 1: the move applies as"):
        replay(state, (record._replace(removed=("c10", "c9")),))


def test_fake_stab_net_effect_everywhere_it_applies():
    for state in _feasible_states(8):
        if state.b == 1 and state.genera.g13 < 1:
            continue
        after = fake_heegaard_stab(state)
        assert after.genera.g12 == state.genera.g12 + 1
        assert after.genera.g13 == state.genera.g13
        assert after.genera.g23 == state.genera.g23
        assert after.b == state.b
        assert len(after.history) == len(state.history) + 2


def test_fake_stab_rejects_trivial_and_heegaard_seeds():
    with pytest.raises(IllegalMove):
        fake_heegaard_stab(trivial())
    with pytest.raises(IllegalMove):
        fake_heegaard_stab(from_heegaard(3))  # b = 1 with g13 = 0


# -- balancing --------------------------------------------------------------------


def test_balance_from_heegaard_two_takes_two_moves():
    state, script = balance(from_heegaard(2))
    assert state.profile == Profile(2, 2, 2, 1)
    assert len(script) == 2
    assert [m.handlebody for m in script] == [3, 3]


def test_balance_koda_ozawa_takes_one_move():
    state, script = balance(koda_ozawa())
    assert state.profile == Profile(2, 2, 2, 1)
    assert script == (
        MoveRecord("stab", 1, DistinctComponents("c0", "c1"), ("c2",), ("c0", "c1")),
    )


def test_balance_split_heegaard_example():
    state, script = balance(split_heegaard(4, 2))
    assert state.profile == Profile(4, 4, 4, 1)
    assert len(script) == 4


def test_balance_is_idempotent_on_balanced_states():
    state, script = balance(open_book(2))
    assert script == ()
    assert state == open_book(2)


def test_balance_postconditions_everywhere():
    # balance() does not check these at run time; this test proves them.
    for start in _feasible_states(12):
        before = start.profile
        state, script = balance(start)
        after = state.profile
        top = max(before.h1, before.h2, before.h3)
        assert (after.h1, after.h2, after.h3) == (top, top, top)
        assert after.b <= max(before.b, 2)
        assert len(script) == 3 * top - before.sum_h() == balance_length(start)
        assert all(record.op == "stab" for record in script)


def _rebuilt(state: TrisectionState) -> TrisectionState:
    # The state built again through the checking constructors, part by part.
    genera, link = state.genera, state.link
    return TrisectionState(MoveGraphNode(genera.g12, genera.g13, genera.g23, genera.b),
                           LinkComponentSet(link.components, link.next_id), state.history,
                           state.label)


def test_the_states_built_without_checks_pass_every_check():
    # feasible_nodes, to_state (through LinkComponentSet.fresh) and every
    # walk's state() build their nodes, links and states without
    # __post_init__, from parts the engine has proven.  Each one, for every
    # node with sum_h <= 12 and the states every move function reaches from
    # it, rebuilds through the checking constructors to an equal value.
    for node in feasible_nodes(12):
        assert MoveGraphNode(node.g12, node.g13, node.g23, node.b) == node
        start = node.to_state()
        balanced, script = balance(start)
        reached = [start, balanced, replay(start, script)]
        for i in (1, 2, 3):
            built, _, disk = build_heegaard(start, i)
            reached += [built, replay(start, disk)]
            if disk:
                reached.append(apply_destabilization(built, inverse_of(disk[-1])))
        if script:
            reached.append(apply_destabilization(balanced, inverse_of(script[-1])))
        if start.b > 1 or start.genera.g13 > 0:
            reached.append(fake_heegaard_stab(start))
        for state in reached:
            assert type(state.history) is tuple and _rebuilt(state) == state, state


def test_the_unchecked_builders_still_refuse_what_can_fail():
    # fresh(0) has no component, and a label from the caller may not encode.
    with pytest.raises(ValueError, match="^the boundary link must have at least one component$"):
        LinkComponentSet.fresh(0)
    with pytest.raises(ValueError, match="^label must encode as UTF-8, got "):
        MoveGraphNode(1, 1, 1, 1).to_state("lone \ud800 surrogate")
    with pytest.raises(ValueError, match="^label must be a str, got 3$"):
        MoveGraphNode(1, 1, 1, 1).to_state(3)


def test_capped_genus_is_where_cap_ends_everywhere():
    # The planner sizes step 1 by capped_genus and walks both sides there,
    # and verify's hub is the largest capped_genus; neither runs the walk
    # first.  Every node with sum_h <= 40 (7,112 of them), trivial included.
    nodes = feasible_nodes(40)
    assert len(nodes) == 7112
    for node in nodes:
        walk = _Walk._at_node(node)
        walk.cap(0)
        genus = capped_genus(node)
        assert walk.heights() == (genus, genus, genus) and walk.b <= 2, node


def test_canonical_balance_move_targets_smallest_handlebody():
    # The first move of balance() is the canonical balance move.
    _, script = balance(split_heegaard(4, 2))  # profile (4,2,2;1)
    # a tie between H2 and H3 goes to the larger index
    assert script[0] == MoveRecord("stab", 3, SameComponent("c0"), ("c1", "c2"), ("c0",))
    _, script = balance(koda_ozawa())  # profile (1,2,2;2)
    assert script[0] == MoveRecord("stab", 1, DistinctComponents("c0", "c1"), ("c2",), ("c0", "c1"))


@pytest.mark.parametrize("i", (1, 2, 3))
def test_canonical_arcs_across_digit_lengths(i):
    # Along build_heegaard of connect-sum 1..60 the labels run past c9 and
    # c99, where string order and number order part.
    for g in range(1, 61):
        state = connect_sum_equal_genus(g)
        _, _, script = build_heegaard(state, i)
        for record in script:
            # The least pair whenever b >= 2, else the least (only) label.
            labels = sorted(state.link.components)
            if len(labels) >= 2:
                assert record.arc == DistinctComponents(labels[0], labels[1])
            else:
                assert record.arc == SameComponent(labels[0])
            state = apply_stabilization(state, StabMove(record.handlebody, record.arc))


# -- collapsing to a Heegaard splitting --------------------------------------------


def test_build_heegaard_koda_ozawa():
    final, genus, script = build_heegaard(koda_ozawa(), 1)
    assert genus == 4
    assert len(script) == 3
    assert final.genera.g23 == 0
    assert final.b == 1
    assert final.handlebody_genus(1) == 4


def test_build_heegaard_is_a_no_op_when_opposite_surface_is_a_disk():
    # S23 of a Heegaard seed is already a disk, so H1 needs no moves
    final, genus, script = build_heegaard(from_heegaard(3), 1)
    assert genus == 3
    assert script == ()
    assert final == from_heegaard(3)


def test_build_heegaard_counts_everywhere():
    # build_heegaard() does not check these at run time; this test proves them.
    for start in _feasible_states(12):
        for i in (1, 2, 3):
            j, k = [n for n in (1, 2, 3) if n != i]
            final, genus, script = build_heegaard(start, i)
            assert genus == start.profile.genus(j) + start.profile.genus(k)
            assert len(script) == 2 * start.genera.opposite(i) + start.b - 1
            assert len(script) == disk_length(start, i)
            assert final.genera.opposite(i) == 0
            assert final.b == 1
            assert script == final.history[len(start.history):]


def test_build_heegaard_on_balanced_states():
    for h in (1, 2, 3, 4):
        state, _ = balance(from_heegaard(h))
        final, genus, script = build_heegaard(state, 2)
        assert genus == 2 * h
        assert len(script) == h


# -- history bookkeeping -------------------------------------------------------


def test_moves_branched_from_one_older_state_share_its_past():
    base = koda_ozawa()  # c0, c1
    older = apply_stabilization(base, StabMove(1, DistinctComponents("c0", "c1")))  # c2
    newer = apply_stabilization(older, StabMove(1, SameComponent("c2")))  # c3, c4
    history, past = tuple(older.history), genealogy(older)
    left = apply_stabilization(older, StabMove(2, SameComponent("c2")))
    right = apply_stabilization(older, StabMove(3, SameComponent("c2")))
    left_record = MoveRecord("stab", 2, SameComponent("c2"), ("c3", "c4"), ("c2",))
    right_record = MoveRecord("stab", 3, SameComponent("c2"), ("c3", "c4"), ("c2",))
    assert left.history == history + (left_record,)
    assert right.history == history + (right_record,)
    split = (("c2",), ("c3", "c4"))
    assert genealogy(left) == genealogy(right) == past + (split,)
    assert left.link.components == right.link.components == ("c3", "c4")
    # The older state and its first child are untouched by the branches.
    assert older.history == history and genealogy(older) == past
    assert older.link.components == ("c2",)
    assert newer.history == history + (
        MoveRecord("stab", 1, SameComponent("c2"), ("c3", "c4"), ("c2",)),
    )
    assert left != right and left.link == right.link


def test_history_reads_like_a_tuple():
    start = from_heegaard(2)
    assert start.history == () and len(start.history) == 0
    first = apply_stabilization(start, StabMove(3, SameComponent("c0")))
    second = apply_stabilization(first, StabMove(3, DistinctComponents("c1", "c2")))
    r1, r2 = first.history[-1], second.history[-1]
    history = second.history
    assert len(history) == 2
    assert history == (r1, r2) and (r1, r2) == history and history != (r2, r1)
    assert history[0] == r1 and history[-1] == r2 and history[-2] == r1
    assert list(history) == [r1, r2]
    assert history[1:] == (r2,) and history[:1] == (r1,) and history[5:] == ()
    assert type(history[0:]) is tuple
    assert hash(history) == hash((r1, r2))
    with pytest.raises(IndexError):
        history[2]
    # A state rebuilt with a tuple history is the same state, and one
    # built from a list holds its records as a tuple too.
    rebuilt = TrisectionState(second.genera, second.link, (r1, r2), second.label)
    assert rebuilt == second and hash(rebuilt) == hash(second)
    assert rebuilt != first
    listed = TrisectionState(second.genera, second.link, [r1, r2], second.label)
    assert listed == rebuilt and hash(listed) == hash(rebuilt)
    # Every path that builds a state leaves its history a tuple.
    balanced, script = balance(second)
    replayed = replay(second, script)
    built = build_heegaard(second, 1)[0]
    assert replayed == balanced and len(balanced.history) == 2 + len(script)
    states = (start, first, second, balanced, replayed, built,
              state_from_text(state_to_text(built)), rebuilt, listed)
    for state in states:
        assert type(state.history) is tuple


def test_one_move_checks_a_constant_number_of_labels(monkeypatch):
    # Counts calls instead of timing them: a move must not re-check every
    # component label of the link.
    state = connect_sum_equal_genus(4999)  # b = 5000
    number = core.component_number
    calls = []

    def counting(label: str) -> int:
        calls.append(label)
        return number(label)

    monkeypatch.setattr(core, "component_number", counting)
    merged = apply_stabilization(state, StabMove(1, DistinctComponents("c7", "c4000")))
    split = apply_stabilization(merged, StabMove(2, SameComponent("c5000")))
    assert split.b == 5000
    assert len(calls) <= 4
    # Nor does a script of many moves, replayed in one walk.
    _, _, script = build_heegaard(split, 3)
    assert len(script) == disk_length(split, 3) == 5001 and replay(split, script).b == 1
    assert len(calls) <= 4
    # The full check still runs for a link built from outside.
    LinkComponentSet(split.link.components, split.link.next_id)
    assert len(calls) >= 5000


def test_a_script_builds_one_state(monkeypatch):
    # A walk applies every move of a script to one list of labels and
    # builds the state once, at the end.
    built = []
    state_of = moves._Walk.state

    def counting(walk):
        built.append(walk)
        return state_of(walk)

    monkeypatch.setattr(moves._Walk, "state", counting)
    start = connect_sum_equal_genus(40)  # (40,40,40;41)
    end, _, script = build_heegaard(start, 2)
    assert len(script) == 40 and len(built) == 1
    assert replay(start, script) == end and len(built) == 2
    end, script = balance(split_heegaard(30, 10))
    assert len(script) == 30 and len(built) == 3
    assert replay(split_heegaard(30, 10), script) == end and len(built) == 4
    # fake_stab records too: 3 compounds among 30 records.
    a = koda_ozawa()
    script = plan_common_stabilization(a, open_book(1), 3).a.concatenated()
    assert len(script) == 30 and sum(r.op == "fake_stab" for r in script) == 3
    built.clear()
    replay(a, script)
    assert len(built) == 1
