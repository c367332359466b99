"""Parameter-level move graph: enumeration, listings, shortest scripts, verification.

The parameter shadow must agree with the labeled engine move for move,
so several tests cross-check node successors against labeled moves applied
to canonically labeled states.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

import bfs_oracle
from trisections import cli, core, explorer
from trisections.core import (
    LinkComponentSet,
    OutOfDomain,
    Profile,
    TrisectionError,
    genera_from_profile,
    is_feasible,
    koda_ozawa,
    state_from_profile,
)
from trisections.explorer import (
    MoveGraphNode,
    reachable,
    PropertyResult,
    VerificationReport,
    WitnessNotFound,
    bfs_reachable,
    common_stabilization_search,
    feasible_nodes,
    node_count,
    realize_path,
    shortest_path,
    verify_properties,
)
from trisections.moves import (
    DestabMove,
    DistinctComponents,
    IllegalMove,
    SameComponent,
    StabMove,
    apply_destabilization,
    apply_stabilization,
    balance,
    balance_length,
    build_heegaard,
    disk_length,
    fake_heegaard_stab,
    inverse_of,
)
from trisections.planner import plan_common_stabilization, plan_lengths, replay


def _replay_records(node: MoveGraphNode, script) -> MoveGraphNode:
    state = node.to_state()
    for record in script:
        state = apply_stabilization(state, StabMove(record.handlebody, record.arc))
    return MoveGraphNode.from_state(state)

HEEGAARD2 = MoveGraphNode(2, 0, 0, 1)
OPENBOOK1 = MoveGraphNode(1, 1, 1, 1)
KODA = MoveGraphNode(0, 0, 1, 2)
TRIVIAL = MoveGraphNode(0, 0, 0, 1)


def _all_profiles(max_sum: int) -> list[Profile]:
    out = []
    for h1 in range(max_sum + 1):
        for h2 in range(max_sum + 1 - h1):
            for h3 in range(max_sum + 1 - h1 - h2):
                for b in range(1, max_sum + 2):
                    out.append(Profile(h1, h2, h3, b))
    return out


# -- nodes ----------------------------------------------------------------------


def test_node_round_trips_through_profiles_and_states():
    for node in feasible_nodes(8):
        assert genera_from_profile(node.profile()) == node
        assert MoveGraphNode.from_state(node.to_state()) == node
        assert node.sum_h() == node.profile().sum_h()
        assert node.profile() == node.to_state().profile


def test_node_from_state_matches_koda_ozawa():
    assert MoveGraphNode.from_state(koda_ozawa()) == KODA


def test_node_rejects_negative_parameters():
    with pytest.raises(ValueError):
        MoveGraphNode(-1, 0, 0, 1)
    with pytest.raises(ValueError):
        MoveGraphNode(0, 0, 0, 0)


def test_node_ordering_is_lexicographic():
    assert MoveGraphNode(0, 0, 1, 2) < MoveGraphNode(0, 1, 0, 1)
    assert MoveGraphNode(1, 0, 0, 1) < MoveGraphNode(1, 0, 0, 2)


def test_trivial_node_has_no_successors():
    assert TRIVIAL.successors() == []
    assert TRIVIAL.is_trivial


def test_successor_grading():
    for node in feasible_nodes(10):
        for _, successor in node.successors():
            assert successor.sum_h() == node.sum_h() + 1


def test_successors_match_labeled_engine():
    # Try every handlebody with every arc of the canonical state, one
    # label or a pair, and with arcs naming a missing label: the legal
    # (index, kind) pairs and the nodes they reach must be the parameter
    # shadow's successors, whichever labels the arc names.
    for node in feasible_nodes(8):
        state = node.to_state()
        labels = state.link.components
        arcs = [SameComponent(c) for c in labels]
        arcs += [DistinctComponents(lo, hi) for lo, hi in combinations(labels, 2)]
        missing = [SameComponent("c999"), DistinctComponents(labels[0], "c999")]
        labeled: dict[tuple[int, str], MoveGraphNode] = {}
        for i in (1, 2, 3):
            for arc in arcs:
                try:
                    result = apply_stabilization(state, StabMove(i, arc)).genera
                except IllegalMove:
                    continue
                kind = "same" if isinstance(arc, SameComponent) else "distinct"
                previous = labeled.setdefault((i, kind), result)
                assert previous == result  # arc choice never affects parameters
            for arc in missing:
                with pytest.raises(IllegalMove, match="is not in the boundary link"):
                    apply_stabilization(state, StabMove(i, arc))
        successors = node.successors()
        assert len(successors) == len(labeled)
        assert dict(successors) == labeled


def test_feasible_nodes_matches_profile_enumeration():
    for max_sum in (0, 3, 6, 9):
        nodes = feasible_nodes(max_sum)
        assert nodes == sorted(nodes)
        assert len(set(nodes)) == len(nodes)
        feasible_count = sum(
            1
            for profile in _all_profiles(max_sum)
            if profile.sum_h() <= max_sum and is_feasible(profile)
        )
        assert len(nodes) == feasible_count
        assert all(node.sum_h() <= max_sum for node in nodes)


def _caps(length: int) -> list[int]:
    # Limits that stop a count at once, one short of length, at it and past it.
    return sorted({0, 1, *(limit for limit in (length - 1, length, length + 1) if limit >= 0)})


def test_feasible_nodes_is_the_genus_enumeration():
    # The node range against the plain loop over genera and b, node for
    # node and in order, and its length against the closed form: the sum
    # over u = b - 1 of C(floor((max_sum - 3u) / 2) + 3, 3) genus triples.
    for max_sum in range(-2, 41):
        top = max_sum // 2
        assert feasible_nodes(max_sum) == [
            MoveGraphNode(g12, g13, g23, b)
            for g12 in range(top + 1)
            for g13 in range(top - g12 + 1)
            for g23 in range(top - g12 - g13 + 1)
            for b in range(1, (max_sum - 2 * (g12 + g13 + g23)) // 3 + 2)
        ], max_sum
    for max_sum in range(-2, 61):
        closed = sum(comb((max_sum - 3 * u) // 2 + 3, 3) for u in range(max_sum // 3 + 1))
        assert len(feasible_nodes(max_sum)) == closed


def test_node_count_is_the_length_of_the_node_range_capped():
    for max_sum in range(-2, 61):
        length = len(feasible_nodes(max_sum))
        for limit in _caps(length):
            assert node_count(max_sum, limit) == min(length, limit + 1), (max_sum, limit)
    # At the CLI's limit: the walk stops past it, however large max_sum.
    assert node_count(82, cli.MAX_NODES) == 99_435
    assert node_count(83, cli.MAX_NODES) == node_count(10**9, cli.MAX_NODES) == cli.MAX_NODES + 1


def _listing_count(start: MoveGraphNode, max_sum: int, limit: int) -> int:
    # The count of the walk behind bfs_reachable and explore, capped at limit + 1.
    return explorer._listing(start, max_sum, 1, limit)[0]


def test_listing_count_is_the_listing_length_capped():
    # Every start up to sum 10, the trivial one and those with a zero height
    # among them, from one bound below the start.
    for start in feasible_nodes(10):
        for max_sum in range(start.sum_h() - 1, 23):
            length = len(bfs_reachable(start, max_sum))
            for limit in _caps(length):
                assert _listing_count(start, max_sum, limit) == min(length, limit + 1), (
                    start, max_sum, limit)
    # Far above the trivial node the listing is a small part of the node range.
    start = MoveGraphNode(100, 100, 100, 1)  # sum_h 600
    assert _listing_count(start, 606, cli.MAX_NODES) == len(bfs_reachable(start, 606)) == 256
    assert node_count(606, cli.MAX_NODES) == cli.MAX_NODES + 1


def test_the_listing_walk_holds_the_blocks_it_counts():
    # Without a limit, or under one it does not pass, the walk's blocks hold
    # as many nodes as it counts, the start's own block among them.
    for start in [*feasible_nodes(8), MoveGraphNode(3, 0, 0, 1)]:
        for max_sum in range(start.sum_h() - 1, 15):
            count, blocks = explorer._listing(start, max_sum, 1)
            assert count == sum(len(values) for _, _, _, values, _ in blocks), (start, max_sum)
            assert explorer._listing(start, max_sum, 1, count) == (count, blocks)


# -- breadth-first search ---------------------------------------------------------


def test_bfs_finds_the_balanced_node_two_moves_up():
    reached = bfs_reachable(HEEGAARD2, 8)
    assert reached[HEEGAARD2] == 0
    assert reached[OPENBOOK1] == 2


def test_bfs_depth_equals_sum_difference():
    for start in (HEEGAARD2, KODA, TRIVIAL):
        for node, depth in bfs_reachable(start, 10).items():
            assert depth == node.sum_h() - start.sum_h()


def test_bfs_layers_are_closed_under_successors():
    # certify the BFS layer by layer: every successor of a reached node
    # is reached one layer deeper (or earlier), and every non-start node
    # has a reached predecessor
    reached = bfs_reachable(KODA, 11)
    for node, depth in reached.items():
        for _, successor in node.successors():
            if successor.sum_h() <= 11:
                assert reached[successor] == depth + 1
    predecessors = {KODA}
    for node, depth in reached.items():
        if depth == 0:
            continue
        assert any(
            parent in reached
            and reached[parent] == depth - 1
            and any(s == node for _, s in parent.successors())
            for parent in reached
        )


def test_bfs_respects_the_bound_and_sorts_keys():
    reached = bfs_reachable(HEEGAARD2, 7)
    assert all(node.sum_h() <= 7 for node in reached)
    assert list(reached) == sorted(reached)


def test_bfs_with_start_beyond_bound_is_empty():
    assert bfs_reachable(HEEGAARD2, 3) == {}


def test_bfs_from_trivial_reaches_only_itself():
    assert bfs_reachable(TRIVIAL, 9) == {TRIVIAL: 0}


# -- paths and scripts --------------------------------------------------------------


def test_realize_path_applies_canonical_arcs():
    state = koda_ozawa()
    final, script = realize_path(state, [(1, "distinct"), (1, "same")])
    assert MoveGraphNode.from_state(final) == MoveGraphNode(1, 1, 0, 2)
    assert len(script) == 2
    assert script[0].removed == ("c0", "c1")


def test_realize_path_rejects_unknown_kind():
    with pytest.raises(ValueError):
        realize_path(koda_ozawa(), [(1, "both")])


@pytest.mark.parametrize("i", (1, 2, 3))
def test_realize_path_refuses_a_two_component_arc_at_one_component(i):
    # A pair needs b >= 2: the move's own rule says so, as an IllegalMove.
    start = MoveGraphNode(1, 0, 0, 1).to_state()
    message = f"stabilizing H{i} along a two-component arc needs b >= 2"
    with pytest.raises(IllegalMove) as refused:
        realize_path(start, [(i, "distinct")])
    assert str(refused.value) == message


def test_realize_path_refuses_the_first_faulty_step_first():
    # Each step is checked in turn, kind, handlebody and then the move's
    # rule: an illegal move before a bad kind or index is refused as itself,
    # and a bad kind before an illegal move as a bad kind.
    start = MoveGraphNode(1, 0, 0, 1).to_state()
    illegal = "stabilizing H1 along a two-component arc needs b >= 2"
    for later in ((1, "both"), (4, "same")):
        with pytest.raises(IllegalMove) as refused:
            realize_path(start, [(1, "distinct"), later])
        assert str(refused.value) == illegal
    with pytest.raises(ValueError, match="^unknown parameter move kind 'both'$"):
        realize_path(start, [(1, "both"), (1, "distinct")])
    with pytest.raises(ValueError, match="^handlebody index must be 1, 2 or 3, got 4$"):
        realize_path(start, [(3, "same"), (4, "same"), (1, "both")])


def test_shortest_path_makes_no_labels(monkeypatch):
    # The path is read off the climb on ints; labels are made only when a
    # path is realized on a state.
    def refuse(*args):
        raise AssertionError("shortest_path made labels")

    monkeypatch.setattr(explorer, "component_labels", refuse)
    start, goal = MoveGraphNode(0, 1, 0, 1), MoveGraphNode(50, 50, 48, 3)
    assert len(shortest_path(start, goal)) == 300
    assert shortest_path(HEEGAARD2, OPENBOOK1) == [(3, "same"), (3, "distinct")]


def test_shortest_path_between_equal_nodes_is_empty():
    assert shortest_path(KODA, KODA) == []


def test_shortest_path_heegaard_to_balanced():
    path = shortest_path(HEEGAARD2, OPENBOOK1)
    assert path == [(3, "same"), (3, "distinct")]


def test_shortest_path_cannot_go_down_the_grading():
    assert shortest_path(OPENBOOK1, HEEGAARD2) is None


def test_shortest_path_builds_no_node_per_move(monkeypatch):
    # The witness walks on ints: a 300-move path and script build no more
    # nodes than a one-move path and script do.
    built = []
    monkeypatch.setattr(MoveGraphNode, "__post_init__", lambda node: built.append(node))
    counts = []
    for start, goal, moves in (
        (MoveGraphNode(0, 1, 0, 1), MoveGraphNode(0, 0, 0, 2), 1),  # (2, "same")
        (MoveGraphNode(0, 1, 0, 1), MoveGraphNode(50, 50, 48, 3), 300),
    ):
        built.clear()
        path = shortest_path(start, goal)
        script = explorer._witness(start, goal, start.heights(), goal.heights())
        counts.append(len(built))
        assert len(path) == len(script) == moves
    monkeypatch.undo()
    assert counts[0] == counts[1]
    assert script == realize_path(MoveGraphNode(0, 1, 0, 1).to_state(), path)[1]
    assert _replay_records(MoveGraphNode(0, 1, 0, 1), script) == MoveGraphNode(50, 50, 48, 3)


def test_shortest_path_never_loops_when_no_row_qualifies(monkeypatch):
    # By the proof some row always can; a row table that disagrees fails loudly.
    monkeypatch.setattr(explorer, "_SUCCESSOR_ROWS", ())
    with pytest.raises(WitnessNotFound, match=r"no stabilization of .* can still reach"):
        shortest_path(HEEGAARD2, OPENBOOK1)


def test_shortest_script_replays_to_the_goal():
    # The shortest path realized on canonical labels, as search's witnesses are.
    path = shortest_path(HEEGAARD2, OPENBOOK1)
    script = explorer._witness(HEEGAARD2, OPENBOOK1, HEEGAARD2.heights(), OPENBOOK1.heights())
    assert len(script) == 2 and script == realize_path(HEEGAARD2.to_state(), path)[1]
    assert _replay_records(HEEGAARD2, script) == OPENBOOK1


def test_shortest_paths_exist_exactly_for_reachable_nodes():
    reached = bfs_oracle.bfs_reachable(KODA, 9)
    for node in feasible_nodes(9):
        path = shortest_path(KODA, node)
        if node in reached:
            assert path is not None and len(path) == reached[node]
        else:
            assert path is None


# -- common stabilizations -----------------------------------------------------------


def test_common_stabilization_of_a_node_with_itself():
    assert common_stabilization_search(KODA, KODA, 10) == (KODA, (), ())


def test_common_stabilization_heegaard_vs_koda():
    result = common_stabilization_search(HEEGAARD2, KODA, 12)
    assert result is not None
    node, script_a, script_b = result
    assert len(script_a) == node.sum_h() - HEEGAARD2.sum_h()
    assert len(script_b) == node.sum_h() - KODA.sum_h()
    assert _replay_records(HEEGAARD2, script_a) == node
    assert _replay_records(KODA, script_b) == node


def test_common_stabilization_is_minimal():
    result = common_stabilization_search(HEEGAARD2, KODA, 12)
    assert result is not None
    node = result[0]
    # no strictly smaller node is reached by breadth-first search from both inputs
    common = set(bfs_oracle.bfs_reachable(HEEGAARD2, 12)) & set(
        bfs_oracle.bfs_reachable(KODA, 12)
    )
    assert node in common
    assert min(common, key=lambda n: (n.sum_h(), n)) == node


def test_common_stabilization_raises_when_the_move_graph_disagrees(monkeypatch):
    # The climb reads the move graph's rows; a table with none of them
    # fails loudly at the first witness move, naming its start and the node.
    monkeypatch.setattr(explorer, "_SUCCESSOR_ROWS", ())
    with pytest.raises(WitnessNotFound) as caught:
        common_stabilization_search(HEEGAARD2, KODA, 12)
    for node in (HEEGAARD2, MoveGraphNode(0, 0, 0, 3)):
        assert repr(node) in str(caught.value)
    assert issubclass(WitnessNotFound, TrisectionError)


def test_common_stabilization_is_symmetric_in_its_node():
    forward = common_stabilization_search(HEEGAARD2, KODA, 12)
    backward = common_stabilization_search(KODA, HEEGAARD2, 12)
    assert forward is not None and backward is not None
    assert forward[0] == backward[0]


def test_common_stabilization_with_trivial_input_fails():
    assert common_stabilization_search(TRIVIAL, KODA, 12) is None
    assert common_stabilization_search(HEEGAARD2, TRIVIAL, 12) is None


def test_common_stabilization_none_within_tight_bound():
    assert common_stabilization_search(HEEGAARD2, MoveGraphNode(0, 0, 2, 1), 4) is None


# -- property verification -------------------------------------------------------------


def test_verify_properties_passes_on_small_range():
    report = verify_properties(8)
    assert isinstance(report, VerificationReport)
    assert report.all_passed
    assert [entry.name for entry in report.entries] == [
        "feasibility-matches-enumeration",
        "balance-postconditions",
        "built-splitting-counts",
        "trivial-only-moveless",
        "common-stabilization-exists",
    ]
    assert all(entry.counterexamples == () for entry in report.entries)


@pytest.mark.parametrize("max_sum", [-1, "3", True, 2.0, None])
def test_verify_properties_refuses_a_max_sum_that_is_not_a_count(max_sum):
    # As the CLI refuses --max-sum -1: an empty range checks nothing.
    with pytest.raises(OutOfDomain, match=r"^max_sum must be a nonnegative integer, got "):
        verify_properties(max_sum)


@pytest.mark.parametrize(
    "lie", [Profile(1, 1, 1, 1), Profile(1, 1, 0, 1)], ids=["accepts", "rejects"]
)
def test_verify_fails_rather_than_raises_when_feasibility_lies(monkeypatch, capsys, lie):
    # is_feasible answers wrong on one profile, in the core as well: one it
    # rejects names the node that presents it, and one it accepts that no
    # node presents fails the property without naming a node.
    truth = core.is_feasible
    named = (genera_from_profile(lie),) if truth(lie) else ()

    def lying(profile: Profile) -> bool:
        return truth(profile) != (profile == lie)

    monkeypatch.setattr(core, "is_feasible", lying)
    monkeypatch.setattr(explorer, "is_feasible", lying)
    entry = verify_properties(4).entries[0]
    assert entry.name == "feasibility-matches-enumeration"
    assert not entry.passed and entry.counterexamples == named
    assert cli.main(["verify", "--max-sum", "4"]) == 1
    assert "FAIL feasibility-matches-enumeration" in capsys.readouterr().err


def test_verify_checks_feasibility_on_every_profile_in_range(monkeypatch):
    # Each (h1, h2, h3; b) with sum h <= max_sum and b <= max_sum + 2, in
    # loop order, then each balanced (h, h, h; b) with b <= max_sum + 1,
    # every one an exact Profile that passes the checking constructor.
    seen = []

    def recording(profile: Profile) -> bool:
        seen.append(profile)
        return is_feasible(profile)

    monkeypatch.setattr(explorer, "is_feasible", recording)
    max_sum = 5
    assert verify_properties(max_sum).entries[0].passed
    expected = [
        Profile(h1, h2, h3, b) for h1 in range(max_sum + 1) for h2 in range(max_sum + 1 - h1)
        for h3 in range(max_sum + 1 - h1 - h2) for b in range(1, max_sum + 3)
    ] + [Profile(h, h, h, b) for h in range(max_sum + 1) for b in range(1, max_sum + 2)]
    assert all(type(profile) is Profile for profile in seen)
    assert [Profile(*profile.as_tuple()) for profile in seen] == expected


def test_verify_reports_hub_slack_only_for_common_stabilization():
    report = verify_properties(6)
    for entry in report.entries:
        if entry.name == "common-stabilization-exists":
            assert entry.slack is not None and entry.slack >= 0
        else:
            assert entry.slack is None


def test_property_result_is_plain_data():
    entry = PropertyResult("demo", 4, True, ())
    assert entry.passed and entry.slack is None


# -- argument and field checks -------------------------------------------------------

# Each constructor and search function with a scalar or node argument: a
# call with that argument replaced, and the name its refusal must give.
_ARGUMENTS = {
    "from_heegaard": (core.from_heegaard, "genus"),
    "split_heegaard-genus": (lambda x: core.split_heegaard(x, 0), "genus"),
    "split_heegaard-lower": (lambda x: core.split_heegaard(2, x), "lower"),
    "split_heegaard-keyword": (lambda x: core.split_heegaard(2, lower=x), "lower"),
    "open_book": (core.open_book, "page_genus"),
    "tunnel_system": (core.tunnel_system, "tunnels"),
    "connect_sum_equal_genus": (core.connect_sum_equal_genus, "summand_genus"),
    "surface_bundle": (core.surface_bundle, "fiber_genus"),
    "construct": (lambda x: core.construct("open-book", (x,)), "page_genus"),
    "construct_profile": (lambda x: core.construct_profile("split-heegaard", (2, x)), "lower"),
    "common_stabilization_search-a": (lambda x: common_stabilization_search(x, KODA, 8), "a"),
    "common_stabilization_search-b": (lambda x: common_stabilization_search(KODA, x, 8), "b"),
    "common_stabilization_search-max_sum": (
        lambda x: common_stabilization_search(KODA, OPENBOOK1, x), "max_sum"),
    "bfs_reachable-start": (lambda x: bfs_reachable(x, 8), "start"),
    "bfs_reachable-max_sum": (lambda x: bfs_reachable(KODA, x), "max_sum"),
    "node_count-max_sum": (lambda x: node_count(x, 10), "max_sum"),
    "node_count-limit": (lambda x: node_count(8, x), "limit"),
    "feasible_nodes": (feasible_nodes, "max_sum"),
    "shortest_path-start": (lambda x: shortest_path(x, OPENBOOK1), "start"),
    "shortest_path-goal": (lambda x: shortest_path(HEEGAARD2, x), "goal"),
    "reachable-start": (lambda x: reachable(x, OPENBOOK1), "start"),
    "reachable-goal": (lambda x: reachable(HEEGAARD2, x), "goal"),
    "inverse_of": (inverse_of, "record"),
    "LinkComponentSet.fresh": (LinkComponentSet.fresh, "count"),
    "is_feasible": (is_feasible, "profile"),
    "genera_from_profile": (genera_from_profile, "profile"),
    "state_from_profile": (state_from_profile, "profile"),
}


# The tuple has a profile's fields: is_feasible((1, 2, 2, 2)) used to raise
# AttributeError.
_JUNK = pytest.mark.parametrize("junk", [None, True, 2.0, "2", [], (1, 2, 2, 2)],
                                ids=["none", "true", "float", "str", "list", "tuple"])


@_JUNK
@pytest.mark.parametrize("argument", list(_ARGUMENTS))
def test_constructors_and_search_refuse_arguments_of_the_wrong_type(argument, junk):
    # These used to raise TypeError or AttributeError, or to take True as 1.
    call, name = _ARGUMENTS[argument]
    with pytest.raises(OutOfDomain, match=f"^{name} must be "):
        call(junk)


@pytest.mark.parametrize(("call", "name"), [
    (lambda: node_count(8, -1), "limit"),
    (lambda: LinkComponentSet.fresh(-1), "count"),
], ids=["node_count", "fresh"])
def test_a_count_argument_refuses_a_negative_int(call, name):
    # fresh(-1) used to slice 1,023 labels and then blame the last one.
    with pytest.raises(OutOfDomain, match=f"^{name} must be a nonnegative integer, got -1$"):
        call()


@pytest.mark.parametrize("path", [None, True, 2.0, "2", [None], [(1,)], [(1, "same", 0)]],
                         ids=["none", "true", "float", "str", "none-step", "short-step", "long-step"])
def test_realize_path_refuses_a_path_that_is_no_iterable_of_pairs(path):
    # These used to raise TypeError or a ValueError from unpacking.
    refusal = r"^path must be an iterable of \(handlebody, kind\) pairs, got "
    with pytest.raises(OutOfDomain, match=refusal):
        realize_path(koda_ozawa(), path)


# Each walk entry point, length formula and planner function with a state,
# node or bound argument, as _ARGUMENTS has them.
_WALK_ARGUMENTS = {
    "realize_path": (lambda x: realize_path(x, []), "state"),
    "apply_stabilization": (lambda x: apply_stabilization(x, StabMove(1, SameComponent("c0"))), "state"),
    "apply_destabilization": (
        lambda x: apply_destabilization(x, DestabMove(1, SameComponent("c0"))), "state"),
    "balance": (balance, "state"),
    "balance_length": (balance_length, "state"),
    "build_heegaard": (lambda x: build_heegaard(x, 1), "state"),
    "disk_length": (lambda x: disk_length(x, 1), "state"),
    "fake_heegaard_stab": (fake_heegaard_stab, "state"),
    "replay-state": (lambda x: replay(x, ()), "state"),
    "plan_common_stabilization-a": (lambda x: plan_common_stabilization(x, KODA.to_state(), 0), "a"),
    "plan_common_stabilization-b": (lambda x: plan_common_stabilization(KODA.to_state(), x, 0), "b"),
    "plan_lengths-a": (lambda x: plan_lengths(x, KODA, 0), "a"),
    "plan_lengths-b": (lambda x: plan_lengths(KODA, x, 0), "b"),
    "plan_lengths-rs_bound": (lambda x: plan_lengths(KODA, OPENBOOK1, x), "rs_bound"),
}


@_JUNK
@pytest.mark.parametrize("argument", list(_WALK_ARGUMENTS))
def test_walks_and_plans_refuse_arguments_of_the_wrong_type(argument, junk):
    # These used to raise TypeError or AttributeError.
    call, name = _WALK_ARGUMENTS[argument]
    with pytest.raises(OutOfDomain, match=f"^{name} must be "):
        call(junk)


@pytest.mark.parametrize("script", [None, True, 2.0], ids=["none", "true", "float"])
def test_replay_refuses_a_script_that_is_no_sequence(script):
    with pytest.raises(OutOfDomain, match="^script must be a sequence of MoveRecord"):
        replay(KODA.to_state(), script)


@pytest.mark.parametrize("script", [
    "2", [None], [("stab",)], [2.0], [[]], [tuple(balance(KODA.to_state())[1][0])],
], ids=["str", "none", "tuple", "float", "list", "plain-record-tuple"])
def test_replay_names_a_step_that_is_no_record(script):
    state = KODA.to_state()
    first = balance(state)[1][:1]
    with pytest.raises(IllegalMove, match="^script step 1: expected a MoveRecord, got "):
        replay(state, script)
    with pytest.raises(IllegalMove, match="^script step 2: expected a MoveRecord, got "):
        replay(state, (*first, *script))
    assert replay(state, []) == state


@pytest.mark.parametrize(("field", "value"), [
    ("name", 3), ("max_sum", True), ("max_sum", 7.0), ("passed", 1), ("passed", None),
    ("counterexamples", [HEEGAARD2]), ("counterexamples", ((2, 0, 0, 1),)),
    ("slack", True), ("slack", "0"),
])
def test_property_results_refuse_fields_of_the_wrong_type(field, value):
    # PropertyResult("x", 3, 1, ()) used to write "pass": true.
    entry = PropertyResult("demo", 4, True, (HEEGAARD2,), 0)
    with pytest.raises(ValueError, match=f"^{field} must be "):
        replace(entry, **{field: value})


def test_verification_reports_refuse_fields_of_the_wrong_type():
    # VerificationReport(True, ()) used to write "max_sum": True.
    entry = PropertyResult("demo", 4, True, ())
    for field, value in (("max_sum", True), ("max_sum", None), ("entries", [entry]),
                         ("entries", (entry, "demo"))):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            replace(VerificationReport(4, (entry,)), **{field: value})


def test_every_verify_report_builds_and_hashes():
    for max_sum in range(9):
        report = verify_properties(max_sum)
        assert isinstance(hash(report), int) and len(report.entries) == 5
