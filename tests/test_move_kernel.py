"""The move kernel against the per-move fold of ``tests/move_oracle.py``.

Every labeled move runs in a walk that edits one list of labels and
builds one state per script.  These tests hold each batch path to the
fold that copies the link and builds a state on every move: final states
(genera, link, history and label) and scripts must be equal, and every
refused script must be refused with the same message, step included.
"""

from __future__ import annotations

import random
import time
from functools import cache
from operator import is_not

import pytest

import move_oracle as oracle
from trisections import moves
from trisections.core import (
    LinkComponentSet,
    MoveGraphNode,
    TrisectionState,
    connect_sum_equal_genus,
    from_heegaard,
    koda_ozawa,
    open_book,
    split_heegaard,
)
from trisections.explorer import bfs_reachable, feasible_nodes, realize_path, shortest_path
from trisections.moves import (
    DestabMove,
    DistinctComponents,
    IllegalMove,
    MoveRecord,
    SameComponent,
    StabMove,
    balance,
    build_heegaard,
    fake_heegaard_stab,
)
from trisections.planner import plan_common_stabilization, plan_lengths, replay
from trisections.serialize import script_from_text, script_to_text, state_from_text, state_to_text

_STATES = [node.to_state(f"n{n}") for n, node in enumerate(feasible_nodes(12))]
_BIG = connect_sum_equal_genus(500)  # b = 501


def _same(state: TrisectionState, expected: TrisectionState) -> None:
    assert state.genera == expected.genera
    assert state.link == expected.link
    # A walk builds its link without the full label check; rebuild it
    # through that check, so a walk on either side is held to it.
    assert LinkComponentSet(state.link.components, state.link.next_id) == state.link
    assert tuple(state.history) == tuple(expected.history)
    assert state.label == expected.label
    assert state == expected


def test_the_states_cover_b_one_and_higher():
    assert len(_STATES) == 144
    assert {state.b for state in _STATES} == {1, 2, 3, 4, 5}


# Its H1 build merges c1020 .. c2038 into being, across the end of core.LABELS.
_TABLE_EDGE = MoveGraphNode(0, 0, 0, 1020).to_state("table-edge")

# Their H1 builds make b - 1 merges and then 350 split/merge pairs from
# next_id 1, 3 and 5, so a pair's labels cross c9/c10, c99/c100, c999/c1000
# and c1023/c1024 at each offset mod 3 of its split.
_RUN_EDGES = [MoveGraphNode(0, 0, 350, b).to_state(f"run-edge-b{b}") for b in (1, 2, 3)]

# Their balance merges a few of the labels c0 .. c<b-1>, b = 12 .. 40, and
# leaves at least three of them on each side of c9/c10.  A merge takes its
# pair off the walk's list as a heap, which leaves the list out of string
# order until the walk sorts it.
_WIDE = [MoveGraphNode(*genera).to_state(f"wide-{n}")
         for n, genera in enumerate(((2, 0, 0, 13), (0, 3, 1, 16), (1, 0, 4, 20), (5, 2, 0, 40)))]


@pytest.mark.parametrize("state", [*_STATES, _BIG, _TABLE_EDGE, *_RUN_EDGES, *_WIDE],
                         ids=lambda s: s.label[:24])
def test_balance_and_build_match_the_fold(state):
    after, script = balance(state)
    expected, expected_script = oracle.balance(state)
    _same(after, expected)
    assert script == expected_script
    for i in (1, 2, 3):
        after, genus, script = build_heegaard(state, i)
        expected, expected_genus, expected_script = oracle.build_heegaard(state, i)
        _same(after, expected)
        assert (genus, script) == (expected_genus, expected_script)
        _same(replay(state, script), expected)
        _same(state_from_text(state_to_text(after)), expected)


def test_realize_path_matches_the_fold():
    realized = 0
    for state in _STATES:
        start = state.genera
        for goal in bfs_reachable(start, start.sum_h() + 3):
            path = shortest_path(start, goal)
            after, script = realize_path(state, path)
            expected, expected_script = oracle.realize_path(state, path)
            _same(after, expected)
            assert script == expected_script
            realized += 1
    assert realized > 3_000


def _random_script(state: TrisectionState, rng: random.Random, length: int):
    # Stabs, formal destabs (inverses of earlier moves) and fake stabs,
    # made by the fold.
    script = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.2:
            try:
                after = oracle.fake_heegaard_stab(state)
            except IllegalMove:
                continue
            script.append(oracle.compound_record(state, after))
            state = after
            continue
        if roll < 0.4 and state.history and state.history[-1].op != "fake_stab":
            undo = moves.inverse_of(state.history[-1])
            if isinstance(undo, DestabMove):
                state = oracle.apply_destabilization(state, undo)
                script.append(state.history[-1])
                continue
        rows = state.genera.successors()
        if not rows:
            break
        (i, kind), _ = rng.choice(rows)
        labels = state.link.components
        if kind == "same":
            arc = SameComponent(rng.choice(labels))
        else:
            arc = DistinctComponents(*rng.sample(labels, 2))
        state = oracle.apply_stabilization(state, StabMove(i, arc))
        script.append(state.history[-1])
    return tuple(script)


@cache
def _scripts():
    rng = random.Random(9)
    scripts = [(state, _random_script(state, rng, 12)) for state in _STATES]
    return scripts + [(_BIG, _random_script(_BIG, rng, 60))]


def test_replay_matches_the_fold_on_random_scripts():
    kinds = set()
    for state, script in _scripts():
        _same(replay(state, script), oracle.replay(state, script))
        kinds.update(record.op for record in script)
    assert kinds == {"stab", "destab", "fake_stab"}


_PARTNERS = [koda_ozawa(), from_heegaard(1), open_book(1), connect_sum_equal_genus(2)]


@cache
def _plan_pairs():
    # Every ordered non-trivial pair with sum_h <= 8; the states with
    # sum_h <= 12 against a few partners; the high-b _BIG on either side;
    # and inputs with a past (balanced, or replayed from random scripts),
    # whose step cuts must start after that past.
    small = [node.to_state() for node in feasible_nodes(8) if not node.is_trivial]
    pairs = [(a, b) for a in small for b in small]
    pairs += [(a, b) for a in _STATES if not a.is_trivial for b in _PARTNERS]
    pairs += [(_BIG, koda_ozawa()), (open_book(1), _BIG)]
    past = [balance(from_heegaard(3))[0], balance(split_heegaard(4, 1))[0]]
    past += [replay(state, script) for state, script in _scripts()[:-1:12] if script]
    past = [state for state in past if not state.is_trivial]
    assert len(past) >= 10 and all(state.history for state in past)
    pairs += [(a, b) for a in past for b in past + _PARTNERS]
    return pairs


@pytest.mark.parametrize("rs_bound", range(4))
def test_plans_match_the_fold(rs_bound):
    for a, b in _plan_pairs():
        report = plan_common_stabilization(a, b, rs_bound)
        sides = oracle.plan_scripts(a, b, rs_bound)
        for start, steps, (expected_steps, expected_end) in zip(
            (a, b), (report.a, report.b), sides
        ):
            assert (
                steps.step1_balance, steps.step2_build, steps.step3_fake,
                steps.step4_s12_to_disk, steps.step5_s13_to_disk,
            ) == expected_steps
            _same(replay(start, steps.concatenated()), expected_end)
            assert expected_end.genera == report.final_genera
            assert expected_end.profile == report.final_profile
        lengths = (len(report.a.concatenated()), len(report.b.concatenated()))
        assert plan_lengths(a.genera, b.genera, rs_bound) == lengths


_REACH = moves._DISK_REACH - 3  # to_disk's tables hold the pairs on c0 .. c<_REACH - 1>


def _clear_tables() -> None:
    for tables in moves._DISK_PAIRS[1:]:
        for table in tables:
            table.clear()


def _table_tops() -> list[int]:
    # The number of the last label each table's pairs make, -1 for an empty table.
    return [int(table[-1].created[0][1:]) if table else -1
            for tables in moves._DISK_PAIRS[1:] for table in tables]


def _at_labels(genera: int, first: int, next_id: int, b: int = 1) -> TrisectionState:
    # g12 = g13 = g23 = genera on the labels c<first> .. c<first + b - 1>.
    return TrisectionState(MoveGraphNode(genera, genera, genera, b),
                           LinkComponentSet(tuple(f"c{first + k}" for k in range(b)), next_id))


# Disk runs that meet the tables every way: fresh links, at b = 1 and
# after b - 1 merges, one of them through the table's pair on c8, whose
# halves c9 and c10 merge out of creation order; runs that grow a table by
# one pair, and one from c3 that reads fewer pairs than its table holds;
# runs from a live label other than c<n-1>, which are made whole; runs
# from c<n-1> that cross the reach with their first pair past it on c253,
# c254 and c255, at b = 1 and after two merges, and the same from c0 or
# c1; the table's last pair alone, and runs from c0 at the reach; and
# runs past the reach and across c1023.
_DISK_RUNS = [
    *(MoveGraphNode(genera, genera, genera, 1).to_state() for genera in (1, 2, 3)),
    _at_labels(1, 3, 4), MoveGraphNode(4, 4, 4, 3).to_state(),
    _at_labels(4, 5, 9), _at_labels(3, 1, 5, b=2), _at_labels(30, 5, 9),
    *(_at_labels(10, _REACH - 12 + offset, _REACH - 11 + offset) for offset in range(3)),
    *(_at_labels(10, _REACH - 16 + offset, _REACH - 13 + offset, b=3) for offset in range(3)),
    *(_at_labels(10, live, _REACH - 13 + offset) for offset in range(3) for live in (0, 1)),
    _at_labels(3, _REACH - 1, _REACH), *(_at_labels(3, 0, _REACH - 2 + k) for k in range(3)),
    _at_labels(5, 298, 299), _at_labels(4, 1009, 1010),
]


def test_disk_runs_through_the_tables_match_the_fold():
    # The tables are filled as this test needs them, from empty, so that
    # a run grows a table some earlier run has grown in part.  A second
    # build reads what the first one grew and must make the same script.
    _clear_tables()
    crossed = set()
    for state in _DISK_RUNS:
        for i in (1, 2, 3):
            after, genus, script = build_heegaard(state, i)
            expected, expected_genus, expected_script = oracle.build_heegaard(state, i)
            _same(after, expected)
            assert (genus, script) == (expected_genus, expected_script)
            assert build_heegaard(state, i) == (after, genus, script)
            crossed.update(int(record.arc[0][1:]) for record in script
                           if isinstance(record.arc, SameComponent))
    assert {_REACH - 1, _REACH, _REACH + 1, _REACH + 2} <= crossed
    assert all(0 <= top < moves._DISK_REACH for top in _table_tops())
    assert all(len(table) >= 2 for tables in moves._DISK_PAIRS[1:] for table in tables)


def test_plans_across_the_reach_of_the_tables_match_the_fold():
    # Inputs whose labels start just below the reach, so that steps 2, 4
    # and 5 each start within it or cross it; the last one's step 2 makes
    # a first pair from c0, not from c<n-1>.
    near = [_at_labels(genera, live, live + 1) for genera, live in ((1, 200), (2, 230), (3, 244))]
    near += [_at_labels(1, _REACH - 30, _REACH - 20, b=2), _at_labels(2, 0, _REACH - 13)]
    crossing = 0
    for a in near:
        for b in (*near, koda_ozawa(), open_book(2)):
            for rs_bound in (0, 2):
                report = plan_common_stabilization(a, b, rs_bound)
                for start, steps, (expected_steps, expected_end) in zip(
                    (a, b), (report.a, report.b), oracle.plan_scripts(a, b, rs_bound)
                ):
                    assert (
                        steps.step1_balance, steps.step2_build, steps.step3_fake,
                        steps.step4_s12_to_disk, steps.step5_s13_to_disk,
                    ) == expected_steps
                    _same(replay(start, steps.concatenated()), expected_end)
                    for run in (steps.step2_build, steps.step4_s12_to_disk,
                                steps.step5_s13_to_disk):
                        splits = [int(record.arc[0][1:]) for record in run
                                  if isinstance(record.arc, SameComponent)]
                        crossing += bool(splits) and splits[0] < _REACH <= splits[-1]
                assert plan_common_stabilization(a, b, rs_bound) == report
    assert crossing >= 10


def test_long_builds_fill_each_table_to_its_reach_and_no_further():
    # Runs from c<k> that end exactly at c255 (k = 0 mod 3) or at the last
    # label below c256 of their table (c253, c254) fill each table to its
    # reach; runs one pair longer are made whole and grow no table.
    _clear_tables()
    for i in (1, 2, 3):
        for k in (255, 252, 0, 1, 2, 130):
            pairs = (255 - k) // 3
            for extra in (0, 1):
                state = _at_labels(pairs + extra, k, k + 1)
                after, _, script = build_heegaard(state, i)
                assert (after, script) == oracle.build_heegaard(state, i)[::2]
    assert _table_tops() == [255, 253, 254] * 3
    # The H_i builds of open-book 600 make 600 pairs each from c0, to
    # c1800, all past the reach: they leave the tables as they were, even
    # empty ones.
    state = open_book(600)
    for cleared in (False, True):
        if cleared:
            _clear_tables()
        tops = _table_tops()
        for i in (1, 2, 3):
            after, _, script = build_heegaard(state, i)
            assert len(script) == 1_200 and after.link.components == ("c1800",)
        assert _table_tops() == tops
    assert tops == [-1] * 9


def _watched_replay(monkeypatch, state: TrisectionState, script):
    # replay's outcome, with follow watched: the runs it asks _disk_run for,
    # and the labels its per-record path puts in, one insort each; a run of
    # pairs taken whole by the table comparison puts in none.
    asked, inserted = [], []
    disk_run, insort = moves._disk_run, moves.insort

    def ask(i, k, pairs):
        asked.append((i, k, pairs))
        return disk_run(i, k, pairs)

    def put(labels, label):
        inserted.append(label)
        insort(labels, label)

    with monkeypatch.context() as patch:
        patch.setattr(moves, "_disk_run", ask)
        patch.setattr(moves, "insort", put)
        return _outcome(replay, state, script), asked, set(inserted)


def _disk_pair_labels(run) -> tuple[set[str], set[str]]:
    # The labels of a disk run's split/merge pairs (the records after its
    # merges), in two sets: those of the pairs replay takes by the table
    # comparison, split from the last label made, c<k> with k + 1 = the
    # next label, and merged below the reach, when at least two such pairs
    # follow one another; and those of the other pairs.
    start = next((n for n, record in enumerate(run) if isinstance(record.arc, SameComponent)),
                 len(run))
    fast, slow = [], set()
    for split, merge in zip(run[start::2], run[start + 1::2]):
        (live,), (first, _), (last,) = split.removed, split.created, merge.created
        taken = int(live[1:]) + 1 == int(first[1:]) and int(last[1:]) < moves._DISK_REACH
        (fast.append if taken else slow.update)((*split.created, last))
    if len(fast) < 2:
        slow.update(*fast)
        fast = []
    return {label for labels in fast for label in labels}, slow


def _check_watched(got, expected, inserted, runs, alone=True) -> int:
    # The replay equals the fold's; the pairs of each disk run that the
    # comparison takes put in no label, and, for a run alone in its script,
    # the others each of theirs (in a plan, a run of one pair can be taken
    # with the pairs on the same handlebody before it).
    _same(got, expected)
    fast = set()
    for run in runs:
        taken, made = _disk_pair_labels(run)
        assert not taken & inserted and (made <= inserted or not alone)
        fast |= taken
    return len(fast)


def test_replayed_disk_runs_take_the_table_comparison(monkeypatch):
    # Every disk run of _DISK_RUNS from each handlebody: whole, as read back
    # from text (records equal to the table's, but other objects), and cut
    # to fewer pairs than g_jk; runs from another live label take the
    # comparison from their second pair, and runs across c255 up to it.
    taken = cut = 0
    for state in (*_DISK_RUNS, *_RUN_EDGES):
        for i in (1, 2, 3):
            script = build_heegaard(state, i)[2]
            merges = state.b - 1
            pairs = (len(script) - merges) // 2
            cuts = {script[:merges + 2 * q] for q in (1, pairs // 2, pairs - 1) if 0 < q < pairs}
            for run in (script, script_from_text(script_to_text(script)), *cuts):
                got, asked, inserted = _watched_replay(monkeypatch, state, run)
                taken += _check_watched(got, oracle.replay(state, run), inserted, [run])
                cut += len(run) < len(script)
                assert asked or not _disk_pair_labels(run)[0]
    assert taken > 3_000 and cut > 100


def test_replayed_plans_read_from_text_take_the_table_comparison(monkeypatch):
    # Plans of small inputs and of inputs near the reach, each side read
    # back from text, against the fold: their steps 2, 4 and 5 take the
    # comparison wherever the build took the table.
    near = [_at_labels(genera, live, live + 1) for genera, live in ((1, 200), (2, 230), (3, 244))]
    near += [_at_labels(1, _REACH - 30, _REACH - 20, b=2), _at_labels(2, 0, _REACH - 13)]
    pairs = _plan_pairs()[::40] + [(a, b) for a in near for b in (*near, koda_ozawa())]
    taken = 0
    for a, b in pairs:
        for rs_bound in (0, 2):
            report = plan_common_stabilization(a, b, rs_bound)
            for start, steps, (_, expected) in zip((a, b), (report.a, report.b),
                                                   oracle.plan_scripts(a, b, rs_bound)):
                made = steps.concatenated()
                script = script_from_text(script_to_text(made))
                assert script == made and all(map(is_not, script, made))
                got, _, inserted = _watched_replay(monkeypatch, start, script)
                runs = (steps.step2_build, steps.step4_s12_to_disk, steps.step5_s13_to_disk)
                taken += _check_watched(got, expected, inserted, runs, alone=False)
    assert taken > 5_000


def _pair_steps(script, merges: int) -> list[int]:
    # The steps of a disk run's first, middle and last pair, both records.
    pairs = (len(script) - merges) // 2
    return [merges + 2 * q + half for q in sorted({0, pairs // 2, pairs - 1}) for half in (0, 1)]


def test_mutated_disk_runs_fail_with_the_same_message(monkeypatch):
    # Each _mutants record, and a plain tuple equal to the record, at the
    # first, middle and last pair of disk runs within the reach: refused
    # as the fold refuses them, step included.  Past the first pair, the
    # comparison was asked for the run first.
    states = [MoveGraphNode(g, g, g, 1).to_state() for g in (1, 2, 5)]
    states += [MoveGraphNode(3, 3, 3, 3).to_state(), _at_labels(4, 5, 9), _at_labels(6, 230, 231)]
    refused = plain = places = 0
    for state in states:
        for i in (1, 2, 3):
            script = build_heegaard(state, i)[2]
            for step in _pair_steps(script, state.b - 1):
                record = script[step]
                places += 1
                for mutant in (*_mutants(record), tuple(record)):
                    mutated = script[:step] + (mutant,) + script[step + 1:]
                    got, asked, _ = _watched_replay(monkeypatch, state, mutated)
                    assert asked or step <= state.b
                    if type(mutant) is tuple:
                        assert got == (f"IllegalMove: script step {step + 1}: expected a "
                                       f"MoveRecord, got {mutant!r}")
                        plain += 1
                        continue
                    expected = _outcome(oracle.replay, state, mutated)
                    if isinstance(expected, str):
                        assert got == expected
                        refused += 1
                    else:
                        _same(got, expected)
    assert refused > 300 and plain == places == 90


def test_a_disk_run_longer_than_g_jk_is_refused_at_its_last_split(monkeypatch):
    # A run of g + 1 pairs on a state with g_jk = g: the comparison must not
    # take it whole, and the last split is refused by the floor check.
    for g in (0, 1, 3, 8):
        for i in (1, 2, 3):
            genera = [4, 4, 4]
            genera[3 - i] = g  # g_jk, the genus the run lowers
            state = MoveGraphNode(*genera, 1).to_state()
            genera[3 - i] = g + 1
            script = build_heegaard(MoveGraphNode(*genera, 1).to_state(), i)[2]
            got, _, _ = _watched_replay(monkeypatch, state, script)
            assert got == _outcome(oracle.replay, state, script)
            assert got.startswith(f"IllegalMove: script step {2 * g + 1}: stabilizing H{i} along a "
                                  "one-component arc needs")


def _relabeled(state: TrisectionState, numbers) -> TrisectionState:
    # The state's node on the labels c<n>, n in ``numbers`` (ascending).
    labels = tuple(f"c{n}" for n in numbers)
    return TrisectionState(state.genera, LinkComponentSet(labels, numbers[-1] + 1))


def _canonical_cases():
    # Each state with sum_h <= 12 on its fresh labels, on labels that
    # span c9/c10, c99/c100 and c1022/c1023 (at b = 1 a split then makes
    # c1023 from core.LABELS and c1024 past it), and on scattered labels
    # of several lengths; then the high-b _BIG.
    for n, state in enumerate(_STATES):
        b = state.b
        yield state
        for top in (10, 100, 1023):
            first = top - (b + 1) // 2
            yield _relabeled(state, range(first, first + b))
        yield _relabeled(state, sorted(random.Random(n).sample(range(2_000), b)))
    yield _BIG


def test_the_canonical_move_is_a_move_along_the_least_arc():
    # A one-step canonical path against move() on the least label or pair
    # found by a plain sort: the same record and walk, or the same refusal,
    # which leaves the walk as it was.  At b = 1 there is no pair, and the
    # rule itself refuses the move.
    spanning = refused = 0
    for state in _canonical_cases():
        ordered = sorted(state.link.components)
        spanning += len(ordered[0]) != len(ordered[-1])
        for i in (1, 2, 3):
            for same in (True, False):
                fused, plain = moves._Walk(state), moves._Walk(state)
                try:
                    fused.stabs([(i, "same" if same else "distinct")])
                    got, = fused.records
                except IllegalMove as error:
                    got = str(error)
                if not same and len(ordered) < 2:
                    expected = f"stabilizing H{i} along a two-component arc needs b >= 2"
                else:
                    arc = SameComponent(ordered[0]) if same else DistinctComponents(*ordered[:2])
                    try:
                        expected = plain.move("stab", i, arc)
                    except IllegalMove as error:
                        expected = str(error)
                assert got == expected, (state, i, same)
                refused += isinstance(expected, str)
                _same(fused.state(), plain.state())
    assert spanning >= 150 and refused > 500


def _mutants(record: MoveRecord):
    # Each mutant keeps the record well formed; what it breaks depends on
    # the state it meets.
    arc, created, removed = record.arc, record.created, record.removed
    other = {"stab": "destab", "destab": "stab", "fake_stab": "stab"}[record.op]
    bumped = tuple(f"c{int(c[1:]) + 1}" for c in created)
    yield MoveRecord(record.op, record.handlebody, arc, bumped, removed)
    yield MoveRecord(other, record.handlebody, arc, created, removed)
    for i in (1, 2, 3):
        if i != record.handlebody:
            yield MoveRecord(record.op, i, arc, created, removed)
    if isinstance(arc, SameComponent):
        gone = SameComponent("c99999")
        yield MoveRecord(record.op, record.handlebody, gone, created, ("c99999",))
        yield MoveRecord("fake_stab", 1, arc, created[:1], removed)
    else:
        gone = DistinctComponents(arc.first, "c99999")
        yield MoveRecord(record.op, record.handlebody, gone, created, (gone.first, gone.second))
        yield MoveRecord(record.op, record.handlebody, arc, created, removed[::-1])
        yield MoveRecord("fake_stab", 1, arc, created * 2, removed)


def _outcome(run, state, script):
    try:
        return run(state, script)
    except IllegalMove as error:
        return f"IllegalMove: {error}"


def test_mutated_scripts_fail_with_the_same_message():
    rng = random.Random(17)
    messages = set()
    for state, script in _scripts():
        if not script:
            continue
        for step in sorted(rng.sample(range(len(script)), min(3, len(script)))):
            for mutant in _mutants(script[step]):
                mutated = script[:step] + (mutant,) + script[step + 1:]
                got = _outcome(replay, state, mutated)
                expected = _outcome(oracle.replay, state, mutated)
                if isinstance(expected, str):
                    assert got == expected
                    assert expected.startswith("IllegalMove: script step ")
                    messages.add(expected.split(": ", 2)[2])
                else:
                    _same(got, expected)
    # missing label, floor violation (stab and destab texts), wrong
    # created, fake stab refused or mismatched
    for start in (
        "component 'c99999' is not", "stabilizing H", "formal destab of H",
        "the move applies as MoveRecord(op='stab'", "the move applies as MoveRecord(op='destab'",
        "the move applies as MoveRecord(op='fake_stab'", "fake Heegaard stabilization",
    ):
        assert any(message.startswith(start) for message in messages), start


def test_mutated_records_at_the_table_end_fail_with_the_same_message():
    # Records that create c1023, the last label of core.LABELS, and the
    # labels past it: the merges of _TABLE_EDGE's H1 build, and the splits
    # and merges of an H3 build from the one label c1022.
    one = TrisectionState(MoveGraphNode(2, 0, 0, 1), LinkComponentSet(("c1022",), 1023))
    refused = 0
    for state, i in ((_TABLE_EDGE, 1), (one, 3)):
        script = build_heegaard(state, i)[2][:6]
        for step, record in enumerate(script):
            for mutant in _mutants(record):
                mutated = script[:step] + (mutant,) + script[step + 1:]
                got = _outcome(replay, state, mutated)
                expected = _outcome(oracle.replay, state, mutated)
                if isinstance(expected, str):
                    assert got == expected
                    refused += "the move applies as" in expected
                else:
                    _same(got, expected)
    assert refused >= 12


def test_single_moves_fail_with_the_same_message():
    for state in _STATES[:60]:
        labels = state.link.components
        arcs = [SameComponent(c) for c in (*labels, "c77")]
        arcs += [DistinctComponents(labels[0], c) for c in (*labels[1:], "c77")]
        for i in (1, 2, 3):
            for arc in arcs:
                for move, apply, expected_apply in (
                    (StabMove(i, arc), moves.apply_stabilization, oracle.apply_stabilization),
                    (DestabMove(i, arc), moves.apply_destabilization, oracle.apply_destabilization),
                ):
                    got = _outcome(apply, state, move)
                    expected = _outcome(expected_apply, state, move)
                    if isinstance(expected, str):
                        assert got == expected
                    else:
                        _same(got, expected)
        got = _outcome(lambda s, _: fake_heegaard_stab(s), state, None)
        expected = _outcome(lambda s, _: oracle.fake_heegaard_stab(s), state, None)
        if isinstance(expected, str):
            assert got == expected
        else:
            _same(got, expected)


def test_compound_record_matches_its_definition_by_links():
    # The compound of a fake stab is derived from its two constituent
    # records; the fold reads it off the links before and after.
    variants = set()
    for state in _STATES:
        try:
            after = fake_heegaard_stab(state)
        except IllegalMove:
            continue
        derived = moves._compound_record(after.history[-2], after.history[-1])
        assert derived == oracle.compound_record(state, after)
        variants.add(state.b == 1)
    assert variants == {True, False}
    # Labels past c9 and c99, where string order and creation order part.
    state = MoveGraphNode(0, 0, 0, 120).to_state()
    for _ in range(70):
        after = fake_heegaard_stab(state)
        derived = moves._compound_record(after.history[-2], after.history[-1])
        assert derived == oracle.compound_record(state, after)
        state = after


def test_fake_stab_replay_at_high_b_is_linear():
    # One compound record used to cost a scan of every label against every
    # other (37 ms a record at b = 1,601).
    state = connect_sum_equal_genus(1600)  # b = 1,601
    end, script = state, []
    for _ in range(200):
        end = fake_heegaard_stab(end)
        script.append(moves._compound_record(end.history[-2], end.history[-1]))
    started = time.perf_counter()
    replayed = replay(state, tuple(script))
    assert time.perf_counter() - started < 1.0
    assert replayed == end
    report = plan_common_stabilization(state, state, 200)
    assert report.a.step3_fake[-1].op == "fake_stab"


def test_a_build_and_its_replay_at_high_b_take_seconds():
    # 20,000 merges at b = 20,001, across five digit lengths: the build
    # takes each pair from the walk's list as a heap, and the replay finds
    # each arc at the head of the list.
    state = connect_sum_equal_genus(20_000)
    started = time.perf_counter()
    built, _, script = build_heegaard(state, 1)
    replayed = replay(state, script)
    assert time.perf_counter() - started < 2.0
    assert replayed == built and len(script) == 20_000
    # The reader replays the labels on its own, so it checks the link's
    # creation order apart from the walk; halfway, 10,001 labels are live.
    for end in (built, replay(state, script[:10_000])):
        assert state_from_text(state_to_text(end)) == end
