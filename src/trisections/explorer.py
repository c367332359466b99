"""Exploration of the stabilization move graph.

Component labels never affect which moves are legal or how genera move,
so search walks a state's parameter node, its ``genera``
(:class:`~trisections.core.MoveGraphNode`).  Each node has at most six
successors, one per legal row of :data:`~trisections.core.STAB_DELTAS`,
and every move raises h1 + h2 + h3 by exactly 1, so the move graph is
graded by that sum and the distance between two nodes, when one reaches
the other, equals their sum difference.

Reachability has a closed form (:func:`reachable`).  Write h(n) for the
heights (h1, h2, h3) of a node, h_i = g_ij + g_ik + b - 1.  A node t is
reachable from s exactly when t == s, or s is not trivial, h(t) >= h(s)
componentwise, min h(t) >= 1 and |b(t) - b(s)| <= sum(h(t) - h(s)).

Necessity: every row raises one h_i by 1 and moves b by +-1, so along a
path of n = sum(h(t) - h(s)) moves h never falls and b moves at most n.
The trivial node has no moves, and every node a move produces has
min h >= 1 (a SameComponent move leaves b >= 2, a DistinctComponents
move leaves g_ij, g_ik >= 1).

Sufficiency is constructive.  Let u != t be non-trivial and meet the
conditions, d = h(t) - h(u) and n = sum(d) >= 1; parity of
h1 + h2 + h3 + b makes n - |b(t) - b(u)| even.  Some h_i with d_i >= 1
can be raised so that the result still meets them, one move closer:

* b(t) = b(u) + n: then g_jk(t) = g_jk(u) - d_i, so g_jk(u) >= 1 and
  the SameComponent move on H_i is legal;
* b(t) = b(u) - n: b(u) > b(t) >= 1, so DistinctComponents is legal;
* otherwise either kind may move b: DistinctComponents when b(u) >= 2,
  and when b(u) = 1 some i with d_i >= 1 has g_jk(u) >= 1, since
  otherwise u is trivial, h(t) has a zero or g_jk(t) < 0.

Search uses the rule and nothing else.  A minimal common stabilization
of two non-trivial nodes a != b is built, not searched for.  Write
F = max(h(a), h(b), 1) componentwise and S_x = sum h(x).  By the rule a
node with heights H, level L = sum H and b is common exactly when H >= F,
L + b is odd, every g_ij >= 0 and |b - b(x)| <= L - S_x on both sides.
Put M = (L + 1 - b) / 2; the genus formula inverted reads g12 = M - H3,
g13 = M - H2 and g23 = M - H1, so g_ij >= 0 is H <= M.  At fixed L and b
the lexicographically least node therefore takes H3 as large as it can
be, then H2: H3 = min(M, L - F1 - F2), then H2 = min(M, L - H3 - F1),
H1 = L - H3 - H2.  These heights stay within [F, M] exactly when
L >= sum F, max F <= M and L <= 3M, and a level's b meeting all that
form one interval of one parity: the b that a node at level L with
largest height max F admits (``core._b_values``: b >= 1, L + b odd and
b <= L + 1 - 2 max F) with |b - b(x)| <= L - S_x and b <= (L + 3) / 3.
The least node lies on the first level L >= sum F whose interval is not
empty, at its largest b: g12 = max(0, M - L + F1 + F2) and g13 (M - F2
when g12 > 0, else max(0, 2M - L + F1)) never fall as M grows, and where
both are 0, g23 = 3M - L grows with M.  That node is common by the rule, whose
sufficiency half is the proof above.  Finding it costs O(1) a level
tried, and no candidate node is enumerated at any distance.

One walk over a start's cone (:func:`_cone`) reads the rule in genera
coordinates, where its conditions are linear.  With D = max_sum - S for
the start's S, the (g12, g13) worth trying lie in a box of side at most
2D + 1; at each of them the admitted g23 form one interval and, at each
g23, the admitted b another, both found in O(1), in lexicographic order.
One private walk over it, :func:`_listing`, gives a listing as blocks of
plain ints, each (g12, g13, g23) with its range of b and its depth, and
counts them as it goes, stopping once past a given limit.  It feeds
:func:`bfs_reachable`, :func:`feasible_nodes`, :func:`node_count` and
the CLI's ``explore``, which counts, refuses and formats its lines from
those ints without building a node.  Breadth-first search survives
only in the tests, as the reference they hold the rule to, next to an
enumeration of the common nodes level by level.

A shortest path is a greedy climb on plain ints, :func:`_climb`, one
move a level, taking the first legal row whose result can still reach
the goal; it makes no labels.  The moves' labels are made in one place,
the canonical run of :mod:`~trisections.moves`: on the start's canonical
labels for search's witnesses (:func:`_witness`, with no walk and no
state), and on a given state, in a walk, by :func:`realize_path`.
"""

from __future__ import annotations

from bisect import insort_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from .core import (
    _SUCCESSOR_ROWS,
    _b_values,
    _check_count,
    _check_fields,
    _check_type,
    _genera,
    _new,
    _node,
    _setters,
    MoveGraphNode,
    OutOfDomain,
    ParamMove,
    Profile,
    TrisectionError,
    TrisectionState,
    component_labels,
    is_feasible,
    other_two,
)
from .moves import (MoveScript, _canonical_run, _Walk, balance, balance_length, build_heegaard,
                    capped_genus, disk_length)


# A Profile's slots set without __post_init__, by verify's loops, which
# range over exact ints at or above its floors.
_SET_H1, _SET_H2, _SET_H3, _SET_PB = _setters(Profile)
_TRIVIAL = MoveGraphNode(0, 0, 0, 1)  # whose cone at floors of 0 holds every node

# A block of a listing: g12, g13, g23, the range of b and the depth at
# b = 0, so that the node at b lies at depth + 3 * b.
_Block = tuple[int, int, int, range, int]


class WitnessNotFound(TrisectionError):
    """The move graph has no script to a node that :func:`reachable` accepts."""


def _check_arguments(max_sum: int = 0, limit: int = 0, **nodes: MoveGraphNode) -> None:
    # The one check of a search function's arguments: max_sum an exact int,
    # limit a nonnegative one and every node a MoveGraphNode, each named
    # when it is not.
    if type(max_sum) is not int:
        raise OutOfDomain(f"max_sum must be an integer, got {max_sum!r}")
    _check_count("limit", limit)
    for name, node in nodes.items():
        _check_type(name, node, MoveGraphNode)


def reachable(start: MoveGraphNode, goal: MoveGraphNode) -> bool:
    """Whether some sequence of stabilizations leads from ``start`` to ``goal``.

    The closed form proved in the module docstring: ``goal == start``, or
    ``start`` is not trivial, h(goal) >= h(start) componentwise,
    min h(goal) >= 1 and |b(goal) - b(start)| <= sum(h(goal) - h(start)).
    """
    _check_arguments(start=start, goal=goal)
    if goal == start or start.is_trivial:
        return goal == start
    (s1, s2, s3), (g1, g2, g3) = start.heights(), goal.heights()
    return (
        min(g1, g2, g3) >= 1
        and g1 >= s1
        and g2 >= s2
        and g3 >= s3
        and abs(goal.b - start.b) <= g1 + g2 + g3 - s1 - s2 - s3
    )


def feasible_nodes(max_sum: int) -> list[MoveGraphNode]:
    """Every parameter node with h1 + h2 + h3 <= max_sum, lexicographic."""
    _check_arguments(max_sum)
    return [_node(x, y, z, b) for x, y, z, values, _ in _listing(_TRIVIAL, max_sum, 0)[1]
            for b in values]


def node_count(max_sum: int, limit: int) -> int:
    """``min(len(feasible_nodes(max_sum)), limit + 1)``, building no node."""
    _check_arguments(max_sum, limit)
    return _listing(_TRIVIAL, max_sum, 0, limit)[0]


def bfs_reachable(start: MoveGraphNode, max_sum: int) -> dict[MoveGraphNode, int]:
    """All nodes reachable from ``start`` by stabilizations with sum_h <= max_sum.

    Returns a mapping from node to depth (the sum_h difference, since
    every move adds 1), keys in lexicographic order: the nodes that
    :func:`reachable` accepts, the start among them at depth 0.
    """
    _check_arguments(max_sum, start=start)
    return {_node(x, y, z, b): depth + 3 * b
            for x, y, z, values, depth in _listing(start, max_sum, 1)[1] for b in values}


def _listing(start: MoveGraphNode, max_sum: int, least: int,
             limit: int | None = None) -> tuple[int, list[_Block]]:
    """The listing of ``start`` at floors of ``least`` as blocks, lexicographic, and its length.

    With ``least = 1`` the listing is :func:`bfs_reachable`'s: the start
    when sum_h <= max_sum and, unless it is trivial, its :func:`_cone`;
    with ``least = 0``, from the trivial node, it is every node with
    sum_h <= max_sum.  Each block holds one (g12, g13, g23) with its
    range of b and its depth at b = 0.  A start outside its own cone (a
    height of 0, so b = 1) is a block of its own, before any block of
    the same genera.  Given a ``limit``, the walk stops once the length
    passes it, and returns ``limit + 1`` with the blocks walked so far.
    Everything is plain ints: a caller builds the nodes it needs.
    """
    blocks = []
    outside = start.sum_h() <= max_sum and min(start.heights()) < least
    # The start is counted first; if that alone passes a limit of 0, the
    # total of 1 is already limit + 1.
    total = int(outside)
    if not (least and start.is_trivial):  # the trivial node has no moves
        for block in _cone(start, max_sum, least):
            total += len(block[3])
            if limit is not None and total > limit:
                return limit + 1, blocks
            blocks.append(block)
    if outside:
        b = start.b
        block = (start.g12, start.g13, start.g23, range(b, b + 1), -3 * b)
        insort_left(blocks, block, key=itemgetter(0, 1, 2))
    return total, blocks


def _cone(start: MoveGraphNode, max_sum: int, least: int) -> Iterator[_Block]:
    """The cone of ``start`` at floors of ``least`` as blocks, lexicographic.

    Each block is (x, y, z, range of b, depth at b = 0), the depth
    L - S of the node at b being that plus 3b.

    With ``least = 1`` it holds the nodes :func:`reachable` accepts from
    a non-trivial ``start``, less ``start`` itself if a height of it is 0;
    from the trivial node with ``least = 0``, every node with sum_h <= max_sum.

    Write x, y, z for g12, g13, g23 and u = b - 1, so that h1 = x + y + u,
    h2 = x + z + u, h3 = y + z + u and the level is L = 2(x + y + z) + 3u.
    With F = max(h(start), least), S = sum_h(start), u_s = b(start) - 1 and
    M = max_sum, the rule's conditions on a node are linear: h_i >= F_i,
    |u - u_s| <= L - S and L <= M.  At fixed (x, y) put

    * A = max(0, F1 - x - y), the least u by h1 >= F1;
    * P = max(F2 - x, F3 - y, ceil((S - u_s) / 2) - x - y), the least
      z + u by h2 >= F2, h3 >= F3 and u - u_s <= L - S;
    * Q = S + u_s - 2x - 2y, so that u_s - u <= L - S is 4u >= Q - 2z;
    * R = M - 2x - 2y, so that L <= M is 3u <= R - 2z.

    Each z then admits the interval of u from max(A, P - z,
    ceil((Q - 2z) / 4)) to floor((R - 2z) / 3), which can hold a value only
    for z from max(0, 3P - R) to min(floor((R - 3A) / 2), floor((4R - 3Q) / 2)),
    where the ends of the real interval cross; rounding can leave a few z
    at either end of that range empty.  As 2x = h1 + h2 - h3 - u and
    2y = h1 + h3 - h2 - u, with h_i >= F_i, h1 + h2 + h3 <= M and u in
    [u_low, u_high] = [max(0, u_s - D), u_s + D] for D = M - S, the x
    worth trying run from F1 + F2 - floor((M + u_high) / 2) to
    floor((M - u_low) / 2) - F3 and the y from F1 + F3 - floor((M + u_high) / 2)
    to floor((M - u_low) / 2) - F2: a box of side at most 2D + 1, as
    sum F >= S.  So the walk costs O(D^2 + nodes), and no loop runs over
    genus triples outside the cone.  Its bounds prove every floor, so each
    node can be built without its check.
    """
    level = start.sum_h()
    f1, f2, f3 = (max(h, least) for h in start.heights())
    u_s, reach = start.b - 1, max_sum - level
    u_low, u_high = max(0, u_s - reach), u_s + reach  # reach is D
    half, wide, narrow = (level - u_s + 1) // 2, (max_sum + u_high) // 2, (max_sum - u_low) // 2
    for x in range(max(0, f1 + f2 - wide), narrow - f3 + 1):
        for y in range(max(0, f1 + f3 - wide), narrow - f2 + 1):
            a = f1 - x - y if f1 > x + y else 0
            p = max(f2 - x, f3 - y, half - x - y)
            q, r = level + u_s - 2 * (x + y), max_sum - 2 * (x + y)
            depth = 2 * (x + y) - level - 3  # L - S at z = 0 and b = 0
            for z in range(max(0, 3 * p - r), min(r - 3 * a, 4 * r - 3 * q) // 2 + 1):
                yield (x, y, z, range(max(a, p - z, (q - 2 * z + 3) // 4) + 1, (r - 2 * z) // 3 + 2),
                       depth + 2 * z)


def realize_path(
    state: TrisectionState, path: Iterable[ParamMove]
) -> tuple[TrisectionState, MoveScript]:
    """Apply a parameter path to a labeled state with canonical arc choices.

    SameComponent moves take the lexicographically smallest component,
    DistinctComponents moves the smallest pair.  Each step's kind,
    handlebody and legality are checked in turn before any label is made,
    and the first faulty step raises.
    """
    walk = _Walk(state)
    try:
        steps = [(i, kind) for i, kind in path]
    except (TypeError, ValueError):  # a path or a step that does not unpack
        raise OutOfDomain(f"path must be an iterable of (handlebody, kind) pairs, got {path!r}") from None
    walk.stabs(steps)
    return walk.state(), tuple(walk.records)


def shortest_path(start: MoveGraphNode, goal: MoveGraphNode) -> list[ParamMove] | None:
    """A shortest parameter-move path from ``start`` to ``goal``, or None.

    None exactly when ``goal`` is not :func:`reachable`; otherwise the
    path has goal.sum_h() - start.sum_h() moves.  It is the greedy climb
    of :func:`_climb` on plain ints, one move per level: each step takes
    the first row of :data:`~trisections.core.STAB_DELTAS`, in row order,
    that is legal and whose result can still reach ``goal`` (else
    :class:`WitnessNotFound`).  By the proof above every such prefix
    extends to ``goal``, so this is the least shortest path in row order,
    the one breadth-first search returns.  It makes no labels: realize the
    path against a labeled state with :func:`realize_path`.
    """
    if not reachable(start, goal):
        return None
    return _climb(start, goal, start.heights(), goal.heights())


def _climb(start: MoveGraphNode, goal: MoveGraphNode, h_start: tuple[int, ...],
           h_goal: tuple[int, ...]) -> list[ParamMove]:
    # shortest_path(start, goal) for a goal that start reaches, on plain ints.
    # A row keeps goal in reach when its height stays at or below goal's and
    # b within the moves left of b(goal); it lowers one coordinate, so its
    # floor test is the move's one legality check.
    b_goal, rows = goal.b, _SUCCESSOR_ROWS
    params = g12, g13, g23, b = start.g12, start.g13, start.g23, start.b
    (g1, g2, g3), (s1, s2, s3) = h_goal, h_start
    room = [g1 - s1, g2 - s2, g3 - s3]  # each height's moves left
    path = []
    for left in range(g1 + g2 + g3 - s1 - s2 - s3 - 1, -1, -1):
        gap = b_goal - b
        for move, delta, falling, least, k in rows:
            if params[falling] >= least and room[k] > 0 and abs(gap - delta[3]) <= left:
                break
        else:
            node = MoveGraphNode(*params)
            raise WitnessNotFound(f"no stabilization of {node} can still reach {goal}")
        d12, d13, d23, db = delta
        params = g12, g13, g23, b = g12 + d12, g13 + d13, g23 + d23, b + db
        room[k] -= 1
        path.append(move)
    return path


def _witness(start: MoveGraphNode, goal: MoveGraphNode, h_start: tuple[int, ...],
             h_goal: tuple[int, ...]) -> MoveScript:
    # realize_path(start.to_state(), shortest_path(start, goal))[1] for a goal
    # that start reaches, with no walk and no state: the climb's moves on the
    # start's canonical labels, in string order.
    path, records = _climb(start, goal, h_start, h_goal), []
    if path:  # a fifth of search's witnesses have no moves, and need no labels
        _canonical_run(sorted(component_labels(0, start.b)), start.b, path, records.append)
    return tuple(records)


def common_stabilization_search(
    a: MoveGraphNode, b: MoveGraphNode, max_sum: int
) -> tuple[MoveGraphNode, MoveScript, MoveScript] | None:
    """A common stabilization of two nodes with minimal sum_h, plus witnesses.

    Among the nodes with sum_h <= max_sum reachable from both sides, the
    one with minimal sum_h (ties broken lexicographically) is returned
    together with one shortest script from each input, realized on the
    inputs' canonical labelings.  Returns None when no common node exists
    within the bound.

    The node is built, not searched for, by the least-node rule of the
    module docstring: the greedy heights at the largest b of the first
    level whose interval of b is not empty, with O(1) work a level.  The
    node is common by construction, so each witness is the greedy climb
    of :func:`shortest_path` made on the input's canonical labels in one
    canonical run, with no walk and no state; the climb raises
    :class:`WitnessNotFound` if the move graph disagrees with the rule.
    """
    if type(max_sum) is not int or type(a) is not MoveGraphNode or type(b) is not MoveGraphNode:
        # Named only on a fault: the keyword call costs about 350 ns, 3% of a search op.
        _check_arguments(max_sum, a=a, b=b)
    if a == b:
        return (a, (), ()) if a.sum_h() <= max_sum else None
    if a.is_trivial or b.is_trivial:
        return None
    # The inputs differ and neither is trivial, so a node is common exactly
    # when reachable()'s inequalities hold on both sides, also a node equal
    # to one input: the other side then needs min h >= 1, which F gives.
    (a1, a2, a3), (b1, b2, b3) = a.heights(), b.heights()
    f1, f2, f3 = max(a1, b1, 1), max(a2, b2, 1), max(a3, b3, 1)
    s_a, s_b = a1 + a2 + a3, b1 + b2 + b3
    low, high, top = max(a.b + s_a, b.b + s_b), min(a.b - s_a, b.b - s_b), max(f1, f2, f3)
    for level in range(f1 + f2 + f3, max_sum + 1):
        # The level's interval of b: within level - S_x of b(x) on both sides,
        # M >= max F and level <= 3M.  Its largest b holds the least node.
        window = _b_values(level, top, low - level, min(high + level, (level + 3) // 3))
        if window:
            count = window[-1]
            break
    else:
        return None
    half = (level + 1 - count) // 2  # M
    h3 = min(half, level - f1 - f2)
    h2 = min(half, level - h3 - f1)
    heights = (level - h3 - h2, h2, h3)
    # Its heights lie in [F, M], so every g_ij >= 0, and b >= 1.
    node = _node(*_genera(*heights, count))
    return node, _witness(a, node, (a1, a2, a3), heights), _witness(b, node, (b1, b2, b3), heights)


@dataclass(frozen=True, slots=True)
class PropertyResult:
    """Outcome of one verified property over a node range."""

    name: str
    max_sum: int
    passed: bool
    counterexamples: tuple[MoveGraphNode, ...]
    slack: int | None = None

    def __post_init__(self) -> None:
        # The report's writer prints each field as it is.
        nodes, slack = self.counterexamples, self.slack
        _check_fields(self, (
            ("name", isinstance(self.name, str), "a str"),
            ("max_sum", type(self.max_sum) is int, "an int"),
            ("passed", type(self.passed) is bool, "a bool"),
            ("counterexamples", type(nodes) is tuple
             and all(isinstance(node, MoveGraphNode) for node in nodes), "a tuple of MoveGraphNode"),
            ("slack", slack is None or type(slack) is int, "an int or None"),
        ))


@dataclass(frozen=True, slots=True)
class VerificationReport:
    max_sum: int
    entries: tuple[PropertyResult, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        _check_fields(self, (
            ("max_sum", type(self.max_sum) is int, "an int"),
            ("entries", type(entries) is tuple
             and all(isinstance(entry, PropertyResult) for entry in entries),
             "a tuple of PropertyResult"),
        ))

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def verify_properties(max_sum: int) -> VerificationReport:
    """Check the engine's structural properties over all nodes with sum_h <= max_sum.

    Five properties: feasibility matches brute-force enumeration of
    genera; balance postconditions; built-splitting move counts and
    genus; the trivial node is the only moveless one; and every
    non-trivial pair admits a common stabilization, witnessed by walking
    each non-trivial node in turn to a shared balanced hub node at the
    largest :func:`~trisections.moves.capped_genus`, whose overshoot
    past max_sum is reported as the slack.
    """
    _check_count("max_sum", max_sum)
    nodes = feasible_nodes(max_sum)
    entries = (
        _check_feasibility_enumeration(max_sum, nodes),
        _holds("balance-postconditions", max_sum, nodes, _balances),
        _holds("built-splitting-counts", max_sum, nodes, _builds),
        _holds("trivial-only-moveless", max_sum, nodes,
               lambda node: (not node.successors()) == node.is_trivial),
        _check_common_stabilization(max_sum, nodes),
    )
    return VerificationReport(max_sum, entries)


def _check_feasibility_enumeration(
    max_sum: int, nodes: list[MoveGraphNode]
) -> PropertyResult:
    # is_feasible must agree with "some genera quadruple presents this
    # profile" over every profile in range, and with the closed-form
    # balanced characterization (h + b odd and b <= h + 1).  A profile it
    # wrongly accepts fails the property without naming a node.  The first
    # loop ranges over exact ints at or above Profile's floors, so each of
    # its profiles is built without the check, and nodes are keyed by ints.
    presented = {(*node.heights(), node.b): node for node in nodes}
    new, set1, set2, set3, set_b = _new, _SET_H1, _SET_H2, _SET_H3, _SET_PB
    bad: list[MoveGraphNode] = []
    ok = True
    for h1 in range(max_sum + 1):
        for h2 in range(max_sum - h1 + 1):
            for h3 in range(max_sum - h1 - h2 + 1):
                for b in range(1, max_sum + 3):
                    profile = new(Profile)
                    set1(profile, h1)
                    set2(profile, h2)
                    set3(profile, h3)
                    set_b(profile, b)
                    node = presented.get((h1, h2, h3, b))
                    if is_feasible(profile) != (node is not None):
                        ok = False
                        if node is not None:
                            bad.append(node)
    for h in range(max_sum + 1):
        for b in range(1, max_sum + 2):
            profile = Profile(h, h, h, b)
            expected = (h + b) % 2 == 1 and b <= h + 1
            if is_feasible(profile) != expected:
                ok = False
    return PropertyResult("feasibility-matches-enumeration", max_sum, ok, tuple(bad))


def _holds(name: str, max_sum: int, nodes: list[MoveGraphNode], check) -> PropertyResult:
    # The property that check holds at every node; its counterexamples are
    # the nodes where it does not.
    bad = tuple(node for node in nodes if not check(node))
    return PropertyResult(name, max_sum, not bad, bad)


def _balances(node: MoveGraphNode) -> bool:
    top = max(node.heights())
    before = node.to_state()
    state, script = balance(before)
    after = state.profile
    return (
        (after.h1, after.h2, after.h3) == (top, top, top)
        and after.b <= max(before.b, 2)
        and len(script) == balance_length(before)
    )


def _builds(node: MoveGraphNode) -> bool:
    before = node.to_state()
    for i in (1, 2, 3):
        j, k = other_two(i)
        _, genus, script = build_heegaard(before, i)
        if genus != before.handlebody_genus(j) + before.handlebody_genus(k):
            return False
        if len(script) != disk_length(before, i):
            return False
    return True


def _check_common_stabilization(
    max_sum: int, nodes: list[MoveGraphNode]
) -> PropertyResult:
    # Constructive witness: every non-trivial node balances into b <= 2
    # and then climbs one genus per round, so all of them reach the one
    # balanced hub node at the largest capped genus.  Any pair meets
    # there, at sum_h = max_sum + slack.  Each node's walk caps, climbs
    # to the hub, is checked and is dropped, so one walk is held at a time.
    nontrivial = [node for node in nodes if not node.is_trivial]
    if not nontrivial:
        return PropertyResult("common-stabilization-exists", max_sum, True, (), 0)

    hub_h = max(capped_genus(node) for node in nontrivial)

    def climbs_to_hub(node: MoveGraphNode) -> bool:
        walk = _Walk._at_node(node)
        walk.cap(hub_h)
        return walk.heights() == (hub_h,) * 3 and walk.b <= 2

    bad = tuple(node for node in nontrivial if not climbs_to_hub(node))
    slack = 3 * hub_h - max_sum
    return PropertyResult("common-stabilization-exists", max_sum, not bad, bad, slack)
