"""The per-move fold, kept as the reference for the move kernel.

:mod:`trisections.moves` applies a run of moves to one mutable list of
labels and builds one state at the end.  This module does the same work
the plain way: every move copies the component tuple, splits or merges
it, and builds a new state through the validating constructors, and
every script is a fold of such moves.  The fake stabilization's compound
record is read off the links before and after it.  It shares nothing
with the kernel but the move rule table (``STAB_DELTAS``, read through
``moves._MOVE_RULES`` for the message texts) and the data types, so
tests that hold the kernel to it do not compare it with itself.
:func:`legal_moves` and :func:`is_legal` generate the moves that tests
draw from, by trying them here.
"""

from __future__ import annotations

from itertools import combinations

from trisections.core import STAB_DELTAS, LinkComponentSet, MoveGraphNode, TrisectionState
from trisections.moves import (
    _MOVE_RULES,
    DESTAB_CAVEAT,
    DestabMove,
    DistinctComponents,
    IllegalMove,
    MoveRecord,
    MoveScript,
    SameComponent,
    StabMove,
)


def _split(link: LinkComponentSet, component: str) -> tuple[LinkComponentSet, tuple[str, str]]:
    components = list(link.components)
    del components[components.index(component)]
    first, second = f"c{link.next_id}", f"c{link.next_id + 1}"
    components += first, second
    return LinkComponentSet(tuple(components), link.next_id + 2), (first, second)


def _merge(link: LinkComponentSet, first: str, second: str) -> tuple[LinkComponentSet, str]:
    if first == second:
        raise ValueError("cannot merge a component with itself")
    components = list(link.components)
    m, n = sorted((components.index(first), components.index(second)))
    del components[n], components[m]
    merged = f"c{link.next_id}"
    components.append(merged)
    return LinkComponentSet(tuple(components), link.next_id + 1), merged


def _apply(state: TrisectionState, move: StabMove | DestabMove, op: str) -> TrisectionState:
    arc = move.arc
    same = isinstance(arc, SameComponent)
    removed = (arc.component,) if same else (arc.first, arc.second)
    try:
        if same:
            link, created = _split(state.link, arc.component)
        else:
            link, merged = _merge(state.link, arc.first, arc.second)
            created = (merged,)
    except ValueError:
        missing = next(label for label in removed if label not in state.link.components)
        raise IllegalMove(f"component {missing!r} is not in the boundary link") from None
    (d12, d13, d23, db), message = _MOVE_RULES[op][same][move.handlebody]
    g = state.genera
    g12, g13, g23, b = g.g12 + d12, g.g13 + d13, g.g23 + d23, g.b + db
    if min(g12, g13, g23) < 0:
        raise IllegalMove(message)
    record = MoveRecord(op, move.handlebody, arc, created, removed)
    label = state.label
    if op == "destab" and DESTAB_CAVEAT not in label:
        label = f"{label} | {DESTAB_CAVEAT}" if label else DESTAB_CAVEAT
    return TrisectionState(
        MoveGraphNode(g12, g13, g23, b), link, state.history + (record,), label
    )


def apply_stabilization(state: TrisectionState, move: StabMove) -> TrisectionState:
    return _apply(state, move, "stab")


def apply_destabilization(state: TrisectionState, move: DestabMove) -> TrisectionState:
    return _apply(state, move, "destab")


def is_legal(state: TrisectionState, move: StabMove | DestabMove) -> bool:
    apply = apply_stabilization if isinstance(move, StabMove) else apply_destabilization
    try:
        apply(state, move)
    except IllegalMove:
        return False
    return True


def legal_moves(state: TrisectionState) -> list[StabMove]:
    """The legal stabilizations: STAB_DELTAS rows in order, each over sorted labels or pairs."""
    labels = sorted(state.link.components)
    arcs = {
        "same": [SameComponent(c) for c in labels],
        "distinct": [DistinctComponents(lo, hi) for lo, hi in combinations(labels, 2)],
    }
    moves = (StabMove(i, arc) for i, kind in STAB_DELTAS for arc in arcs[kind])
    return [move for move in moves if is_legal(state, move)]


def canonical_same_arc(state: TrisectionState) -> SameComponent:
    return SameComponent(min(state.link.components))


def canonical_distinct_arc(state: TrisectionState) -> DistinctComponents:
    return DistinctComponents(*sorted(state.link.components)[:2])


def fake_heegaard_stab(state: TrisectionState) -> TrisectionState:
    if state.b == 1:
        if state.genera.g13 < 1:
            raise IllegalMove("fake Heegaard stabilization with b == 1 needs g13 >= 1")
        mid = apply_stabilization(state, StabMove(2, canonical_same_arc(state)))
        return apply_stabilization(mid, StabMove(1, canonical_distinct_arc(mid)))
    mid = apply_stabilization(state, StabMove(2, canonical_distinct_arc(state)))
    return apply_stabilization(mid, StabMove(1, SameComponent(mid.history[-1].created[0])))


def compound_record(before: TrisectionState, after: TrisectionState) -> MoveRecord:
    """The fake_stab record between two states: net component turnover, the H1 arc."""
    removed = tuple(c for c in before.link.components if c not in after.link.components)
    created = tuple(c for c in after.link.components if c not in before.link.components)
    return MoveRecord("fake_stab", 1, after.history[-1].arc, created, removed)


def canonical_balance_move(state: TrisectionState) -> StabMove:
    profile = state.profile
    target = sorted((1, 2, 3), key=lambda i: (-profile.genus(i), i))[-1]
    if state.b >= 2:
        return StabMove(target, canonical_distinct_arc(state))
    return StabMove(target, canonical_same_arc(state))


def balance(state: TrisectionState) -> tuple[TrisectionState, MoveScript]:
    start = len(state.history)
    while not state.is_balanced:
        state = apply_stabilization(state, canonical_balance_move(state))
    return state, state.history[start:]


def raise_balanced(state: TrisectionState) -> TrisectionState:
    state = apply_stabilization(state, canonical_balance_move(state))
    return balance(state)[0]


def balance_capped(state: TrisectionState) -> TrisectionState:
    state, _ = balance(state)
    while state.b > 2:
        state = raise_balanced(state)
    return state


def drive_opposite_to_disk(state: TrisectionState, i: int) -> tuple[TrisectionState, MoveScript]:
    start = len(state.history)
    while 2 * state.genera.opposite(i) + state.b - 1:
        if state.b >= 2:
            move = StabMove(i, canonical_distinct_arc(state))
        else:
            move = StabMove(i, canonical_same_arc(state))
        state = apply_stabilization(state, move)
    return state, state.history[start:]


def build_heegaard(state: TrisectionState, i: int) -> tuple[TrisectionState, int, MoveScript]:
    final, script = drive_opposite_to_disk(state, i)
    return final, final.handlebody_genus(i), script


def realize_path(state: TrisectionState, path) -> tuple[TrisectionState, MoveScript]:
    start = len(state.history)
    for i, kind in path:
        arc = canonical_distinct_arc(state) if kind == "distinct" else canonical_same_arc(state)
        state = apply_stabilization(state, StabMove(i, arc))
    return state, state.history[start:]


def replay(state: TrisectionState, script: MoveScript) -> TrisectionState:
    for step, record in enumerate(script, start=1):
        try:
            if record.op == "stab":
                after = apply_stabilization(state, StabMove(record.handlebody, record.arc))
                applied = after.history[-1]
            elif record.op == "destab":
                after = apply_destabilization(state, DestabMove(record.handlebody, record.arc))
                applied = after.history[-1]
            else:
                after = fake_heegaard_stab(state)
                applied = compound_record(state, after)
            if applied != record:
                raise IllegalMove(f"the move applies as {applied}, not as recorded {record}")
        except IllegalMove as error:
            raise IllegalMove(f"script step {step}: {error}") from error
        state = after
    return state


def plan_scripts(a: TrisectionState, b: TrisectionState, rs_bound: int):
    """The five per-side scripts of the planner's route, and both endpoints."""
    side_a, side_b = balance_capped(a), balance_capped(b)
    while side_a.profile.h1 != side_b.profile.h1:
        if side_a.profile.h1 < side_b.profile.h1:
            side_a = raise_balanced(side_a)
        else:
            side_b = raise_balanced(side_b)
    sides = []
    for start, state in ((a, side_a), (b, side_b)):
        steps = [state.history[len(start.history):]]
        state, _, script = build_heegaard(state, 1)
        steps.append(script)
        fakes = []
        for _ in range(rs_bound):
            after = fake_heegaard_stab(state)
            fakes.append(compound_record(state, after))
            state = after
        steps.append(tuple(fakes))
        for i in (3, 2):
            state, _, script = build_heegaard(state, i)
            steps.append(script)
        sides.append((tuple(steps), state))
    return sides
