"""The closed-form search, held to breadth-first search.

``reachable`` and everything built on it (the ``explore`` listing
``bfs_reachable`` and its count, the greedy ``shortest_path`` and
``common_stabilization_search``) are checked here against the BFS in
``bfs_oracle``, which uses only ``successors``: exhaustive sweeps over
small nodes, a property test over larger ones, and a BFS-intersection
search written out in this file.  The witnesses, ``shortest_path`` (the
climb on ints, ``explorer._climb``) and its script on canonical labels
(``explorer._witness``, that climb made in the canonical run of
``moves``), are also held to the oracle's walk on nodes and to the
oracle's path realized move by move by ``move_oracle``, or to
``realize_path`` and a replay, on the state it starts from, also where
their labels cross the end of ``core.LABELS``.  The
closed-form least common node is held to the oracle's level-by-level
enumeration, node and witnesses alike, and shown to enumerate nothing
at any distance.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import move_oracle
from bfs_oracle import (
    bfs_reachable,
    bfs_shortest_path,
    enumerated_common_stabilization,
    greedy_shortest_path,
)
from trisections import explorer
from trisections.core import Profile, genera_from_profile
from trisections.explorer import (
    MoveGraphNode,
    common_stabilization_search,
    feasible_nodes,
    realize_path,
    reachable,
    shortest_path,
)
from trisections.planner import replay
from trisections.serialize import script_to_text

TRIVIAL = MoveGraphNode(0, 0, 0, 1)
STARTS = feasible_nodes(24)
# No change, or one coordinate of (g12, g13, g23, b) moved by 1.
NUDGES = [(0, 0, 0, 0)] + [
    tuple(sign if k == axis else 0 for k in range(4)) for axis in range(4) for sign in (1, -1)
]


def test_reachable_matches_bfs_on_every_pair_up_to_sum_12():
    nodes = feasible_nodes(12)
    for start in nodes:
        reached = bfs_reachable(start, 12)
        for goal in nodes:
            assert reachable(start, goal) == (goal in reached), (start, goal)


def test_reachable_examples():
    heegaard2, openbook1, koda = (
        MoveGraphNode(2, 0, 0, 1), MoveGraphNode(1, 1, 1, 1), MoveGraphNode(0, 0, 1, 2)
    )
    assert reachable(heegaard2, openbook1)
    assert not reachable(openbook1, heegaard2)
    assert reachable(TRIVIAL, TRIVIAL)
    assert not reachable(TRIVIAL, koda)
    # h(3,0,0,1) = (3,3,0): a zero height is out of reach of every other node
    assert not reachable(heegaard2, MoveGraphNode(3, 0, 0, 1))
    # h goes from (4,4,4) to (5,4,4) in one move, but b would fall by 3
    many, few = MoveGraphNode(0, 0, 0, 5), MoveGraphNode(2, 2, 1, 2)
    assert not reachable(many, few)
    assert few not in bfs_reachable(many, few.sum_h())


def test_listing_matches_bfs_for_every_start_up_to_sum_15():
    for start in feasible_nodes(15):
        listed = explorer.bfs_reachable(start, 15)
        expected = bfs_reachable(start, 15)
        assert listed == expected and list(listed) == list(expected), start


@st.composite
def _listing_cases(draw):
    # A start with sum_h <= 40 and a bound up to 12 above it, or a start at
    # genera in the thousands and a bound up to 8 above it; a bound below
    # the start lists nothing.
    if draw(st.booleans()):
        b = draw(st.integers(1, 14))
        genus_sum = draw(st.integers(0, (40 - 3 * (b - 1)) // 2))
        g12 = draw(st.integers(0, genus_sum))
        g13 = draw(st.integers(0, genus_sum - g12))
        start, reach = MoveGraphNode(g12, g13, genus_sum - g12 - g13, b), 12
    else:
        start, reach = MoveGraphNode(*(draw(st.integers(0, 2_000)) for _ in range(3)),
                                     draw(st.integers(1, 2_000))), 8
    return start, start.sum_h() + draw(st.integers(-2, reach))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_listing_cases())
def test_listing_matches_bfs_beyond_sum_15(case):
    start, max_sum = case
    listed = explorer.bfs_reachable(start, max_sum)
    expected = bfs_reachable(start, max_sum)
    assert list(listed.items()) == list(expected.items()), case


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_listing_cases())
def test_listing_count_matches_bfs_beyond_sum_15(case):
    # The count, capped at limits that stop it at once and around the
    # listing's length, is the oracle's listing length.
    start, max_sum = case
    length = len(bfs_reachable(start, max_sum))
    for limit in {0, 1, *(limit for limit in (length - 1, length, length + 1) if limit >= 0)}:
        assert explorer._listing(start, max_sum, 1, limit)[0] == min(length, limit + 1), (case, limit)


def test_shortest_path_matches_bfs_on_every_pair_up_to_sum_13():
    nodes = feasible_nodes(13)
    found = 0
    for start, goal in itertools.product(nodes, nodes):
        distance = goal.sum_h() - start.sum_h()
        path = shortest_path(start, goal)
        assert path == bfs_shortest_path(start, goal, distance), (start, goal)
        found += bool(path)
    assert found == 5_651


def _assert_witnesses_match_the_oracle(start, goal) -> bool:
    # shortest_path is the oracle's path, and its canonical script is that
    # path realized from start.to_state() by the per-move fold of
    # move_oracle, which makes its labels apart from moves' canonical run,
    # record for record and byte for byte.
    expected = greedy_shortest_path(start, goal, goal.sum_h() - start.sum_h())
    assert shortest_path(start, goal) == expected, (start, goal)
    if expected is None:
        return False
    script = explorer._witness(start, goal, start.heights(), goal.heights())
    _, realized = move_oracle.realize_path(start.to_state(), expected)
    assert script == realized, (start, goal)
    assert script_to_text(script) == script_to_text(realized), (start, goal)
    return True


def test_witnesses_match_the_successor_walk_on_every_pair_up_to_sum_13():
    nodes = feasible_nodes(13)
    found = 0
    for start, goal in itertools.product(nodes, nodes):
        found += _assert_witnesses_match_the_oracle(start, goal)
    assert len(nodes) ** 2 == 29_241 and found == 5_651 + len(nodes)


def test_witnesses_match_the_successor_walk_to_a_far_goal():
    start, goal = MoveGraphNode(0, 1, 0, 1), MoveGraphNode(50, 50, 48, 3)
    assert _assert_witnesses_match_the_oracle(start, goal)
    assert len(shortest_path(start, goal)) == 300


@pytest.mark.parametrize("a, b, edge", [
    (MoveGraphNode(0, 0, 1, 99), MoveGraphNode(0, 3, 0, 98), ("c99", "c100")),
    (MoveGraphNode(0, 0, 2, 98), MoveGraphNode(0, 3, 0, 99), ("c99", "c100")),
    (MoveGraphNode(0, 0, 1, 1023), MoveGraphNode(0, 3, 0, 1022), ("c1023", "c1024")),
    (MoveGraphNode(0, 0, 2, 1022), MoveGraphNode(0, 3, 0, 1023), ("c1023", "c1024")),
    (MoveGraphNode(3, 0, 2, 1023), MoveGraphNode(0, 0, 0, 1030), ("c1023", "c1024")),
    # A far goal: a's witness makes 2,766 moves, from b = 99 up to b = 1,021.
    (MoveGraphNode(0, 0, 0, 99), MoveGraphNode(0, 0, 0, 1021), ("c99", "c100", "c1023", "c1024")),
])
def test_search_witnesses_match_the_successor_walk_across_the_label_table_end(a, b, edge):
    # Each witness is the oracle's path realized from its input's canonical
    # state, and replays to the node.  a's creates the labels on both sides
    # of each edge: c99/c100, where labels grow a digit, and c1023/c1024,
    # the end of core.LABELS, past which labels are formatted.
    node, *scripts = common_stabilization_search(a, b, 10**6)
    for start, script in zip((a, b), scripts):
        path = greedy_shortest_path(start, node, node.sum_h() - start.sum_h())
        assert script == realize_path(start.to_state(), path)[1], (start, node)
        assert replay(start.to_state(), script).genera == node, (start, node)
    assert set(edge) <= {label for record in scripts[0] for label in record.created}


@st.composite
def _node_pairs(draw) -> tuple[MoveGraphNode, MoveGraphNode]:
    # A start with sum_h <= 24 and a goal with sum_h <= 30 in the start's
    # cone or near its edge: a random walk of stabilizations, then a small
    # nudge that may leave the cone.
    start = draw(st.sampled_from(STARTS))
    goal = start
    for _ in range(draw(st.integers(1, 30 - start.sum_h()))):
        successors = goal.successors()
        if not successors:
            break
        goal = successors[draw(st.integers(0, len(successors) - 1))][1]
    nudge = draw(st.sampled_from(NUDGES))
    params = [x + d for x, d in zip((goal.g12, goal.g13, goal.g23, goal.b), nudge)]
    if min(params[:3]) >= 0 and params[3] >= 1:
        nudged = MoveGraphNode(*params)
        if nudged.sum_h() <= 30:
            goal = nudged
    return start, goal


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_node_pairs())
def test_reachable_matches_bfs_on_random_pairs_up_to_sum_30(pair):
    start, goal = pair
    assert reachable(start, goal) == (goal in bfs_reachable(start, goal.sum_h()))


# -- common stabilizations against a BFS-intersection reference ----------------------


def _reference_search(a, b, max_sum, reached):
    common = set(reached(a, max_sum)) & set(reached(b, max_sum))
    if not common:
        return None
    node = min(common, key=lambda n: (n.sum_h(), n))
    scripts = [
        realize_path(x.to_state(), bfs_shortest_path(x, node, node.sum_h() - x.sum_h()))[1]
        for x in (a, b)
    ]
    return node, *scripts


def test_common_stabilization_matches_bfs_intersection_on_small_pairs():
    cache: dict[tuple[MoveGraphNode, int], dict[MoveGraphNode, int]] = {}

    def reached(node: MoveGraphNode, max_sum: int) -> dict[MoveGraphNode, int]:
        if (node, max_sum) not in cache:
            cache[node, max_sum] = bfs_reachable(node, max_sum)
        return cache[node, max_sum]

    nodes = feasible_nodes(6)
    found_some = 0
    for a, b in itertools.product(nodes, nodes):
        expected = _reference_search(a, b, 12, reached)
        bounds = [12]
        if expected is not None:
            level = expected[0].sum_h()
            bounds += [level - 1, level, level + 2]  # level - 1 is too tight
            found_some += 1
        for max_sum in bounds:
            want = _reference_search(a, b, max_sum, reached)
            assert common_stabilization_search(a, b, max_sum) == want, (a, b, max_sum)
    assert found_some == len(nodes) ** 2 - 2 * (len(nodes) - 1)


def test_trivial_pairs_fail_at_once():
    koda = MoveGraphNode(0, 0, 1, 2)
    assert common_stabilization_search(TRIVIAL, TRIVIAL, 0) == (TRIVIAL, (), ())
    assert common_stabilization_search(TRIVIAL, koda, 10**6) is None
    assert common_stabilization_search(koda, TRIVIAL, 10**6) is None


@pytest.mark.parametrize("a, b", [
    (MoveGraphNode(2, 0, 0, 1), MoveGraphNode(0, 0, 1, 2)),
    (MoveGraphNode(0, 5, 0, 1), MoveGraphNode(0, 0, 0, 4)),
])
def test_common_stabilization_does_not_depend_on_a_loose_bound(a, b):
    bounded = common_stabilization_search(a, b, 40)
    assert bounded is not None
    assert common_stabilization_search(a, b, 10**6) == bounded


# -- the least common node against the level enumeration -----------------------------


def _assert_search_matches_the_enumeration(a, b, max_sum, expected, texts) -> None:
    # texts: the expected scripts as script_to_text, byte for byte.
    found = common_stabilization_search(a, b, max_sum)
    assert found == expected, (a, b, max_sum)
    if found is not None:
        assert tuple(map(script_to_text, found[1:])) == texts, (a, b, max_sum)


def _texts(expected) -> tuple[str, ...] | None:
    return None if expected is None else tuple(map(script_to_text, expected[1:]))


def test_common_stabilization_matches_the_enumeration_on_every_pair_up_to_sum_13():
    # The enumeration stops at its first level that holds a common node, so
    # its answer at a lower bound is the same answer, or None when that
    # level lies above the bound.
    nodes = feasible_nodes(13)
    found = 0
    for a, b in itertools.product(nodes, nodes):
        expected = enumerated_common_stabilization(a, b, 24)
        texts = _texts(expected)
        for max_sum in (15, 20, 24):
            within = expected is not None and expected[0].sum_h() <= max_sum
            _assert_search_matches_the_enumeration(
                a, b, max_sum, expected if within else None, texts
            )
        found += expected is not None
    assert len(nodes) ** 2 == 29_241 and found == len(nodes) ** 2 - 2 * (len(nodes) - 1)


@st.composite
def _far_pairs(draw) -> tuple[MoveGraphNode, MoveGraphNode, int]:
    # Two nodes with b up to 30 and genera that keep sum_h <= 60 where b
    # allows it, and a bound that may fall short of their common node.
    pair = []
    for _ in range(2):
        b = draw(st.integers(1, 30))
        genus_sum = draw(st.integers(0, max(0, (60 - 3 * (b - 1)) // 2)))
        g12 = draw(st.integers(0, genus_sum))
        g13 = draw(st.integers(0, genus_sum - g12))
        pair.append(MoveGraphNode(g12, g13, genus_sum - g12 - g13, b))
    a, b = pair
    return a, b, draw(st.integers(max(a.sum_h(), b.sum_h()), 100))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_far_pairs())
def test_common_stabilization_matches_the_enumeration_on_far_pairs(case):
    a, b, max_sum = case
    expected = enumerated_common_stabilization(a, b, max_sum)
    _assert_search_matches_the_enumeration(a, b, max_sum, expected, _texts(expected))


def test_common_stabilization_enumerates_nothing_at_any_distance(monkeypatch):
    # Connect-sum g, (g,g,g;g+1), against (g,g,g;1) meet g/2 levels above
    # both; enumerating the cone above either would visit about g^4 candidates.
    def refuse(*args):
        raise AssertionError("the search enumerated the listing's cone")

    monkeypatch.setattr(explorer, "bfs_reachable", refuse)
    monkeypatch.setattr(explorer, "_cone", refuse)  # the one walk behind every listing and count
    # The listings' trusted node builder builds the answer, and nothing else.
    built = []
    monkeypatch.setattr(explorer, "_node", lambda *params: built.append(params) or MoveGraphNode(*params))
    g = 1_000
    a = genera_from_profile(Profile(g, g, g, g + 1))
    b = genera_from_profile(Profile(g, g, g, 1))
    found = common_stabilization_search(a, b, 10**6)
    assert found is not None
    node, script_a, script_b = found
    assert node == MoveGraphNode(0, g // 2, g // 2, g // 2 + 1)
    assert built == [(0, g // 2, g // 2, g // 2 + 1)]
    assert node.heights() == (g, g, 3 * g // 2)
    for start, script in ((a, script_a), (b, script_b)):
        assert len(script) == g // 2
        assert replay(start.to_state(), script).genera == node
