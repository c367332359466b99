"""Stabilization moves on trisection states.

A stabilization enlarges one handlebody H_i by a neighbourhood of a
boundary-parallel arc lying in the opposite surface S_jk.  At the level
of the data kept here the move comes in two flavours, according to
whether the arc ends on one component of the boundary link or on two:
a ``SameComponent`` arc splits its component into two fresh ones, a
``DistinctComponents`` arc merges its pair into one fresh component.
Each of the six (handlebody, arc kind) pairs changes the parameter node
(g12, g13, g23, b) by one fixed row of :data:`~trisections.core.STAB_DELTAS`,
and a formal destabilization along the other arc kind subtracts that row.
Every row raises h_i by exactly 1 and leaves h_j and h_k unchanged.

One rule decides legality for both directions: a move is legal exactly
when the components its arc names exist and the result has genera >= 0
and b >= 1.  Formal destabilizations certify nothing about an actual
destabilizing disk, and every destabilized state carries that caveat in
its label.

One move costs one record and one legality check: it appends one record
to the history chain (see :mod:`trisections.core`) and builds the new
node, record and state from checked parts.  Only C-level passes over the
b components remain: one ``index`` per label of the arc, in ``split`` or
``merge``, and the copy that rebuilds the component tuple; the canonical
arcs read a few labels per digit length.  So ``build_heegaard`` and
``replay`` run in time linear in the script's length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    PARAM_FLOORS,
    STAB_DELTAS,
    MoveGraphNode,
    TrisectionError,
    TrisectionState,
    other_two,
)

DESTAB_CAVEAT = (
    "formal destab: parameter-level inverse only; no destabilizing disk certified"
)


class IllegalMove(TrisectionError):
    """The move's legality condition fails in the given state."""


@dataclass(frozen=True, slots=True)
class SameComponent:
    """Arc with both endpoints on one boundary-link component."""

    component: str


@dataclass(frozen=True, slots=True)
class DistinctComponents:
    """Arc joining two different boundary-link components (unordered pair)."""

    first: str
    second: str

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise ValueError("a DistinctComponents arc needs two distinct components")
        if self.second < self.first:
            lo, hi = self.second, self.first
            object.__setattr__(self, "first", lo)
            object.__setattr__(self, "second", hi)


Arc = SameComponent | DistinctComponents


@dataclass(frozen=True, slots=True)
class StabMove:
    """Stabilize handlebody ``handlebody`` along ``arc`` in its opposite surface."""

    handlebody: int
    arc: Arc

    def __post_init__(self) -> None:
        other_two(self.handlebody)


@dataclass(frozen=True, slots=True)
class DestabMove:
    """Formal inverse of a stabilization; same shape as :class:`StabMove`.

    A ``DistinctComponents`` arc re-merges the named pair and undoes a
    SameComponent stabilization; a ``SameComponent`` arc splits the named
    component and undoes a DistinctComponents stabilization.
    """

    handlebody: int
    arc: Arc

    def __post_init__(self) -> None:
        other_two(self.handlebody)


@dataclass(frozen=True, slots=True)
class MoveRecord:
    """One applied move: operation, parameters, and the labels it touched."""

    op: str
    handlebody: int
    arc: Arc
    created: tuple[str, ...]
    removed: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.op not in ("stab", "destab", "fake_stab"):
            raise ValueError(f"unknown move op {self.op!r}")
        other_two(self.handlebody)


MoveScript = tuple[MoveRecord, ...]


_PARAM_NAMES = ("g12", "g13", "g23", "b")
_LEAST_G12, _LEAST_G13, _LEAST_G23, _ = PARAM_FLOORS


def _move_rule(op: str, i: int, same: bool) -> tuple[tuple[int, int, int, int], str]:
    # The change a move makes to (g12, g13, g23, b), and the IllegalMove
    # message for a result below PARAM_FLOORS.  A formal destab along one
    # arc kind subtracts the stab row of the other kind.
    if op == "stab":
        delta = STAB_DELTAS[i, "same" if same else "distinct"]
        action = f"stabilizing H{i} along a {'one' if same else 'two'}-component arc"
    else:
        delta = tuple(-d for d in STAB_DELTAS[i, "distinct" if same else "same"])
        action = f"formal destab of H{i} " + (
            "splitting a component" if same else "merging components"
        )
    needs = " and ".join(
        f"{name} >= {floor - d}" for name, d, floor in zip(_PARAM_NAMES, delta, PARAM_FLOORS) if d < 0
    )
    return delta, f"{action} needs {needs}"


# (op, handlebody, one-component arc?) -> (delta, message): STAB_DELTAS in
# the form a move reads, as _SUCCESSOR_ROWS is in the form search reads.
_MOVE_RULES = {
    (op, i, same): _move_rule(op, i, same)
    for op in ("stab", "destab") for i in (1, 2, 3) for same in (True, False)
}


def legal_moves(state: TrisectionState) -> list[StabMove]:
    """All legal stabilizations, in :data:`STAB_DELTAS` row order.

    A SameComponent row yields one move per component (components
    sorted), a DistinctComponents row one per unordered pair (pairs
    sorted).
    """
    labels = sorted(state.link.components)
    arcs = {
        "same": [SameComponent(c) for c in labels],
        "distinct": [DistinctComponents(lo, hi) for lo, hi in combinations(labels, 2)],
    }
    return [StabMove(i, arc) for (i, kind), _ in state.genera.successors() for arc in arcs[kind]]


def is_legal(state: TrisectionState, move: StabMove | DestabMove) -> bool:
    try:
        _apply(state, move, "stab" if isinstance(move, StabMove) else "destab")
    except IllegalMove:
        return False
    return True


_new = object.__new__
_set = object.__setattr__


def _apply(state: TrisectionState, move: StabMove | DestabMove, op: str) -> TrisectionState:
    # Shared body of apply_stabilization and apply_destabilization.  The one
    # legality check: split or merge finds the arc's labels, then the genera
    # must clear PARAM_FLOORS (b does: every rule lowering it merges two labels).
    # The node, record and state are built from checked parts, without their
    # __post_init__, whose checks all hold already: the node's fields are ints
    # at or above the floors; the record's op is "stab" or "destab" and its
    # handlebody was checked when the move was made; and genera.b equals
    # link.b, as every row changes b by as much as its split or merge does.
    arc = move.arc
    same = isinstance(arc, SameComponent)
    removed = (arc.component,) if same else (arc.first, arc.second)
    try:
        if same:
            link, created = state.link.split(arc.component)
        else:
            link, merged = state.link.merge(arc.first, arc.second)
            created = (merged,)
    except ValueError:
        missing = next(label for label in removed if label not in state.link.components)
        raise IllegalMove(f"component {missing!r} is not in the boundary link") from None
    (d12, d13, d23, db), message = _MOVE_RULES[op, move.handlebody, same]
    g = state.genera
    g12, g13, g23, b = g.g12 + d12, g.g13 + d13, g.g23 + d23, g.b + db
    if g12 < _LEAST_G12 or g13 < _LEAST_G13 or g23 < _LEAST_G23:
        raise IllegalMove(message)
    genera = _new(MoveGraphNode)
    _set(genera, "g12", g12)
    _set(genera, "g13", g13)
    _set(genera, "g23", g23)
    _set(genera, "b", b)
    record = _new(MoveRecord)
    _set(record, "op", op)
    _set(record, "handlebody", move.handlebody)
    _set(record, "arc", arc)
    _set(record, "created", created)
    _set(record, "removed", removed)
    label = state.label
    if op == "destab" and DESTAB_CAVEAT not in label:
        label = f"{label} | {DESTAB_CAVEAT}" if label else DESTAB_CAVEAT
    after = _new(TrisectionState)
    _set(after, "genera", genera)
    _set(after, "link", link)
    _set(after, "history", state.history.append(record))
    _set(after, "label", label)
    return after


def apply_stabilization(state: TrisectionState, move: StabMove) -> TrisectionState:
    """Apply one stabilization, returning the new state.

    Raises :class:`IllegalMove` when the arc's legality condition fails
    or names a missing component.  The applied record is appended to the
    state's history.
    """
    if not isinstance(move, StabMove):
        raise IllegalMove(f"expected a StabMove, got {type(move).__name__}")
    return _apply(state, move, "stab")


def apply_destabilization(state: TrisectionState, move: DestabMove) -> TrisectionState:
    """Apply one formal destabilization, returning the new state.

    This is parameter bookkeeping only: legality means the genus and
    boundary arithmetic can run backwards, not that a destabilizing disk
    exists.  The result's label records that caveat.
    """
    if not isinstance(move, DestabMove):
        raise IllegalMove(f"expected a DestabMove, got {type(move).__name__}")
    return _apply(state, move, "destab")


def inverse_of(record: MoveRecord) -> StabMove | DestabMove:
    """The move undoing an applied record, phrased in the record's output labels.

    A stab that split a component is undone by the destab re-merging the
    two labels it created, and vice versa.  Compound ``fake_stab`` records
    have no single inverse move.
    """
    if record.op == "stab":
        if isinstance(record.arc, SameComponent):
            return DestabMove(record.handlebody, DistinctComponents(*record.created))
        return DestabMove(record.handlebody, SameComponent(record.created[0]))
    if record.op == "destab":
        if isinstance(record.arc, DistinctComponents):
            return StabMove(record.handlebody, SameComponent(record.created[0]))
        return StabMove(record.handlebody, DistinctComponents(*record.created))
    raise ValueError("a fake_stab record has no single inverse move")


def canonical_same_arc(state: TrisectionState) -> SameComponent:
    """The SameComponent arc on the lexicographically smallest component."""
    (least,) = state.link.least(1)
    return SameComponent(least)


def canonical_distinct_arc(state: TrisectionState) -> DistinctComponents:
    """The DistinctComponents arc on the lexicographically smallest pair."""
    lo, hi = state.link.least(2)
    return DistinctComponents(lo, hi)


def fake_heegaard_stab(state: TrisectionState) -> TrisectionState:
    """Stabilize H2 and then H1 so that only the Heegaard surface changes.

    The compound imitates a standard stabilization of the splitting
    surface S12: the net effect on (g12, g13, g23, b) is exactly
    (+1, 0, 0, 0), so the profile moves by (+1,+1,0;0).  Two variants,
    chosen by the current b.  The first arc always lies in S13 (opposite
    H2) and the second in S23 (opposite H1):

    * b == 1: a one-component arc for H2 (needs g13 >= 1), then the
      two-component arc for H1 joining the pair the split just created.
    * b >= 2: a two-component arc for H2 on the smallest pair, then a
      one-component arc for H1 on the component that merge created.

    Both constituent moves are recorded in the history.  Raises
    :class:`IllegalMove` when neither variant applies (b == 1 and
    g13 == 0, as in the trivial state).
    """
    if state.b == 1:
        if state.genera.g13 < 1:
            raise IllegalMove(
                "fake Heegaard stabilization with b == 1 needs g13 >= 1"
            )
        mid = apply_stabilization(state, StabMove(2, canonical_same_arc(state)))
        result = apply_stabilization(mid, StabMove(1, canonical_distinct_arc(mid)))
    else:
        mid = apply_stabilization(state, StabMove(2, canonical_distinct_arc(state)))
        fresh = mid.history[-1].created[0]
        result = apply_stabilization(mid, StabMove(1, SameComponent(fresh)))
    return result


def canonical_balance_move(state: TrisectionState) -> StabMove:
    """Stabilize the currently smallest handlebody (largest index on ties).

    The arc lies in the surface shared by the other two handlebodies; a
    two-component arc is chosen whenever b >= 2.  This is the move
    :func:`balance` repeats, and on an already balanced state it is the
    canonical way to grow the common genus by one.
    """
    profile = state.profile
    ordered = sorted((1, 2, 3), key=lambda i: (-profile.genus(i), i))
    target = ordered[-1]
    if state.b >= 2:
        return StabMove(target, canonical_distinct_arc(state))
    return StabMove(target, canonical_same_arc(state))


def balance(state: TrisectionState) -> tuple[TrisectionState, MoveScript]:
    """Stabilize minimal handlebodies until all three genera agree.

    Each move raises the current minimum h by one, so the result has
    h' = max(h1, h2, h3) and the script has length 3*max - (h1+h2+h3)
    (:func:`balance_length`).
    Two-component arcs are preferred whenever b >= 2, which keeps
    b' <= max(b, 2).  One-component arcs are always available in the
    remaining case: with b == 1 and h_i > h_k the shared surface S_ij
    satisfies 2*g_ij = h_i + h_j - h_k > 0.
    """
    # The three claims above, and that only stabs are applied, are proven
    # for every state with sum_h <= 12 by
    # tests/test_moves.py::test_balance_postconditions_everywhere.
    start = len(state.history)
    while not state.is_balanced:
        state = apply_stabilization(state, canonical_balance_move(state))
    return state, state.history[start:]


def balance_length(state: TrisectionState) -> int:
    """The length of :func:`balance`'s script: 3*max(h1, h2, h3) - (h1+h2+h3)."""
    profile = state.profile
    return 3 * max(profile.h1, profile.h2, profile.h3) - profile.sum_h()


def raise_balanced(state: TrisectionState) -> TrisectionState:
    """Grow the common genus of a balanced state by one and re-balance."""
    state = apply_stabilization(state, canonical_balance_move(state))
    state, _ = balance(state)
    return state


def balance_capped(state: TrisectionState) -> TrisectionState:
    """Balance, then raise the balanced genus until b <= 2.

    While b >= 3 each round starts with a two-component arc and the
    re-balance keeps b' <= max(b, 2), so b falls every round.
    """
    state, _ = balance(state)
    while state.b > 2:
        state = raise_balanced(state)
    return state


def disk_length(state: TrisectionState, i: int) -> int:
    """The length of :func:`drive_opposite_to_disk`'s script: 2*g_jk + b - 1."""
    return 2 * state.genera.opposite(i) + state.b - 1


def drive_opposite_to_disk(
    state: TrisectionState, i: int
) -> tuple[TrisectionState, MoveScript]:
    """Stabilize H_i until its opposite surface S_jk is a disk (g_jk = 0, b = 1).

    Canonical order: a two-component arc whenever b >= 2, otherwise a
    one-component arc.  The script has length 2*g_jk + b - 1
    (:func:`disk_length`), i.e. the number of arcs in a maximal
    boundary-parallel system cutting S_jk into a disk.
    """
    # The script's length is proven for every state with sum_h <= 12 and
    # every i by tests/test_moves.py::test_drive_opposite_to_disk_matches_build
    # and ::test_build_heegaard_counts_everywhere.
    start = len(state.history)
    while disk_length(state, i):  # S_jk is a disk once no move is left
        if state.b >= 2:
            move = StabMove(i, canonical_distinct_arc(state))
        else:
            move = StabMove(i, canonical_same_arc(state))
        state = apply_stabilization(state, move)
    return state, state.history[start:]


def build_heegaard(
    state: TrisectionState, i: int
) -> tuple[TrisectionState, int, MoveScript]:
    """Stabilize H_i until the trisection collapses to a Heegaard splitting.

    Once S_jk is a disk, H_j and H_k glue to a single handlebody and the
    splitting surface is the boundary of the enlarged H_i, so the
    splitting genus is the final h_i = h_j + h_k of the input.  Returns
    (final state, splitting genus, script).  On a balanced (h;b) input
    the script has exactly h moves and the genus is 2h.
    """
    # genus == h_j + h_k of the input is proven for every state with
    # sum_h <= 12 and every i by
    # tests/test_moves.py::test_build_heegaard_counts_everywhere.
    final, script = drive_opposite_to_disk(state, i)
    return final, final.handlebody_genus(i), script
