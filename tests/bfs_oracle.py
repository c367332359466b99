"""Breadth-first search of the move graph, kept as the reference for search.

:mod:`trisections.explorer` lists reachable nodes and walks shortest
paths in closed form.  This module does the same work the plain way, by
breadth-first search over :meth:`MoveGraphNode.successors`, with a FIFO
queue and successors in :data:`~trisections.core.STAB_DELTAS` row order.
The searches read nothing of the closed form, so tests that hold the
engine to them do not compare the rule with itself.

``greedy_shortest_path`` is the witness walk on nodes: one
``successors()`` call per move, pruned by :func:`explorer.reachable`.
It holds ``shortest_path``'s walk on ints to the nodes it stands for.

``enumerated_common_stabilization`` is the minimal common stabilization
found by enumeration: every feasible (heights, b) above both inputs,
level by level, each made a node through ``genera_from_profile`` and kept
when :func:`explorer.reachable` accepts it from both sides.  It holds the
closed-form least node of ``common_stabilization_search`` to the nodes it
stands for, and its witnesses to the scripts that ``move_oracle``'s
per-move fold makes along those paths, whose labels owe nothing to the
engine's canonical run.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from move_oracle import realize_path
from trisections.core import MoveGraphNode, ParamMove, Profile, genera_from_profile
from trisections.explorer import reachable
from trisections.moves import MoveScript


def bfs_reachable(start: MoveGraphNode, max_sum: int) -> dict[MoveGraphNode, int]:
    """Every node reachable from ``start`` with sum_h <= max_sum, to its BFS depth.

    Keys iterate in lexicographic order; empty when ``start`` lies above
    ``max_sum``.
    """
    depths: dict[MoveGraphNode, int] = {}
    if start.sum_h() > max_sum:
        return depths
    depths[start] = 0
    frontier = [start]
    for depth in range(1, max_sum - start.sum_h() + 1):
        next_frontier: list[MoveGraphNode] = []
        for parent in frontier:
            for _, node in parent.successors():
                if node not in depths:
                    depths[node] = depth
                    next_frontier.append(node)
        frontier = next_frontier
    return {node: depths[node] for node in sorted(depths)}


def bfs_shortest_path(
    start: MoveGraphNode, goal: MoveGraphNode, depth_bound: int
) -> list[ParamMove] | None:
    """The path unpruned FIFO search finds from ``start`` to ``goal``, or None.

    A node's parent is the first node dequeued that reaches it, so the path
    is the least shortest path in row order.  Nodes above the goal's
    level are not entered, since every move climbs one level.  None when
    no path of at most ``depth_bound`` moves exists.
    """
    parents: dict[MoveGraphNode, tuple[MoveGraphNode, ParamMove] | None] = {start: None}
    queue: deque[MoveGraphNode] = deque([start])
    while queue and goal not in parents:
        node = queue.popleft()
        for move, successor in node.successors():
            if successor not in parents and successor.sum_h() <= goal.sum_h():
                parents[successor] = (node, move)
                queue.append(successor)
    if goal not in parents:
        return None
    path: list[ParamMove] = []
    cursor = goal
    while (step := parents[cursor]) is not None:
        cursor, move = step
        path.append(move)
    path.reverse()
    return path if len(path) <= depth_bound else None


def greedy_shortest_path(
    start: MoveGraphNode, goal: MoveGraphNode, depth_bound: int
) -> list[ParamMove] | None:
    """The first successor, in row order, that still reaches ``goal``, move by move.

    None when ``goal`` is not reachable or lies more than ``depth_bound``
    moves up; LookupError when no successor of a node on the way reaches
    ``goal``.
    """
    if start == goal:
        return []
    if goal.sum_h() - start.sum_h() > depth_bound or not reachable(start, goal):
        return None
    path: list[ParamMove] = []
    node = start
    while node != goal:
        for move, successor in node.successors():
            if reachable(successor, goal):
                path.append(move)
                node = successor
                break
        else:
            raise LookupError(f"no successor of {node} reaches {goal}")
    return path


def enumerated_common_stabilization(
    a: MoveGraphNode, b: MoveGraphNode, max_sum: int
) -> tuple[MoveGraphNode, MoveScript, MoveScript] | None:
    """The least common node with sum_h <= max_sum and its witnesses, or None.

    The node is the least, by (sum_h, node), that both inputs reach, found
    by enumerating the feasible (heights, b) above both inputs' heights,
    level by level.  Each witness is ``greedy_shortest_path`` realized
    from the input's canonical state by ``move_oracle.realize_path``.
    """
    if a == b:
        return (a, (), ()) if a.sum_h() <= max_sum else None
    floor = tuple(map(max, a.heights(), b.heights()))
    for level in range(sum(floor), max_sum + 1):
        common = [
            node
            for heights, count in _profiles_above(floor, level)
            if reachable(a, node := genera_from_profile(Profile(*heights, count)))
            and reachable(b, node)
        ]
        if common:
            node = min(common)
            break
    else:
        return None
    scripts = [
        realize_path(x.to_state(), greedy_shortest_path(x, node, level - x.sum_h()))[1]
        for x in (a, b)
    ]
    return node, *scripts


def _profiles_above(
    floor: tuple[int, ...], level: int
) -> Iterator[tuple[tuple[int, int, int], int]]:
    # Every feasible (heights, b) with heights >= floor summing to level:
    # level + b odd and b - 1 <= h_i + h_j - h_k for every k.
    f1, f2, f3 = floor
    for h1 in range(f1, level - f2 - f3 + 1):
        for h2 in range(f2, level - h1 - f3 + 1):
            h3 = level - h1 - h2
            least_gap = min(h1 + h2 - h3, h1 + h3 - h2, h2 + h3 - h1)
            for count in range(1 + level % 2, least_gap + 2, 2):
                yield (h1, h2, h3), count
