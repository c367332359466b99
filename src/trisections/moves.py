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

Moves run in walks (``_Walk``).  A walk copies a state's labels into one
list in string order, applies runs of moves to it in place, each move
with at most one legality check and one record appended to the walk's
own list, and builds one state at the end, whose history is the input's
tuple followed by the walk's records.  Every script runs as one walk (a
plan as one a side), and a single move is a walk of one.  A run of n
moves is one call in one Python frame, not n.  There are two kernels,
and one builder of split/merge pairs.  Every canonical run, a path of
(handlebody, kind) moves each on the least label or pair, makes its
labels in ``_canonical_run``, which checks nothing and takes each label
or pair off the walk's list as a heap, in O(log b) with no shift of the
list: ``_Walk.cap`` (``balance`` too) picks its rows on the walk's ints,
``_Walk.stabs`` checks a given path on them first, and each sorts the
list once after the run, so that it is in string order between runs;
search's witnesses run it with no walk.  ``_Walk.to_disk`` makes the
canonical run that turns S_jk into a disk, which is always legal, so it
checks nothing and moves the genera and b once, by the sum of its rows:
its b - 1 merges of the least pair are one ``_canonical_run``, which
leaves one label, and its g_jk split/merge pairs on that live label,
which touch no list, are made by ``_pairs``.  From the live label
``c<n-1>`` (after a merge, and on a fresh link) a pair's two records
depend on i and n only, so a run of them below ``c256`` is one C-level
slice of one of H_i's three tables of pairs, one per live-label number
mod 3, which ``_disk_run`` grows (by ``_pairs``) as runs first reach
them and slices; every other run of pairs is made whole.  Labels come
from :data:`~trisections.core.LABELS` (``c0`` .. ``c1023``, formatted
once); past it ``_canonical_run``, ``follow`` and the history check
below make a record's new labels one ``core.component_label`` call (an
f-string) each.  Every record along a given arc goes through
``_Walk.follow``, which runs a whole script with the walk's ints in
locals.  A split of the one live label ``c<n-1>`` that opens a run of
disk pairs is checked with the next p pairs (at most g_jk and below
``c256``, and at least two) as one C-level comparison with the ``_disk_run`` slice that
``to_disk`` takes, plus one pass that each record is exactly a
``MoveRecord``; on a match the walk moves by p times the pair's rows
and keeps the script's records, and on any mismatch the record takes
the per-record check, the only code that names a refused record.  That
check finds each arc's labels by ``index`` (which stops at once on the
labels of a canonical script), checks the floors, and checks that the
record creates the next labels and removes the arc's, before it edits
the list, so a record that passes is kept as it is; ``move`` builds the
record a move would make and follows it.  Each reads its rule as
``_MOVE_RULES[op][same][i]``, and ``follow`` puts each created label in
the list by ``insort``.
Python-level work a move is constant; what grows with b is the C-level
shift of the list on each of ``follow``'s inserts and deletes, the
``index`` of a given arc deep in the list, and the sort after a run.
Each walk copies the history's pointers once, which a single move on a
long history pays.  The measured costs are in ROADMAP's Baseline and the
``BENCH_*.json`` files.

A stored history is checked here too: once :mod:`trisections.serialize`
has checked a document's format, ``_stored_state`` replays its records
in one pass, on a dict of live labels, and sums each record's genera
row as it goes.  A step starts from the stored genera less the sum plus
the sum before the step, so the lowest running sum gives the lowest
start.  Only when that is below zero is the history walked back, from
its end, to name the last step that starts below zero.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .core import (
    LABELS,
    PARAM_FLOORS,
    STAB_DELTAS,
    LinkComponentSet,
    MoveGraphNode,
    ParamMove,
    TrisectionError,
    TrisectionState,
    _SET_COMPONENTS,
    _SET_NEXT_ID,
    _check_type,
    _new,
    _node,
    _state,
    are_component_ids,
    component_label,
    component_labels,
    other_two,
)

DESTAB_CAVEAT = (
    "formal destab: parameter-level inverse only; no destabilizing disk certified"
)


# A named tuple from its fields, skipping the checks of its __new__.
_tuple = tuple.__new__

# The _make of a checked named tuple, through its checking __new__, so that
# _replace, which builds through _make, checks too.
_checked_make = classmethod(lambda cls, iterable: cls(*iterable))


class IllegalMove(TrisectionError):
    """The move's legality condition fails in the given state."""


def _check_ends(*ends) -> None:
    # An arc's ends are labels; the walk says whether they are live.
    for end in ends:
        if not isinstance(end, str):
            raise ValueError(f"an arc's ends are component identifiers (str), got {end!r}")


class _SameFields(NamedTuple):
    component: str


class SameComponent(_SameFields):
    """Arc with both endpoints on one boundary-link component.

    A named tuple: it unpacks and equals ``(component,)``, and
    ``dataclasses.replace`` does not apply to it.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, component: str) -> SameComponent:
        _check_ends(component)
        return _tuple(cls, (component,))


class _DistinctFields(NamedTuple):
    first: str
    second: str


class DistinctComponents(_DistinctFields):
    """Arc joining two different boundary-link components (unordered pair).

    A named tuple with ``first < second``: it unpacks and equals
    ``(first, second)``, and ``dataclasses.replace`` does not apply to it.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, first: str, second: str) -> DistinctComponents:
        _check_ends(first, second)
        if first == second:
            raise ValueError("a DistinctComponents arc needs two distinct components")
        if second < first:
            first, second = second, first
        return _tuple(cls, (first, second))


Arc = SameComponent | DistinctComponents


def _check_arc(arc: Arc) -> None:
    # The kernel reads an arc by subscript and its kind by type, so a plain
    # tuple or string is no arc.
    if not isinstance(arc, Arc):
        raise IllegalMove(f"expected a SameComponent or DistinctComponents arc, got {arc!r}")


@dataclass(frozen=True, slots=True)
class _Move:
    # The body the two move types share; each subclass is its own type, so
    # a StabMove never equals a DestabMove with the same fields.
    handlebody: int
    arc: Arc

    def __post_init__(self) -> None:
        other_two(self.handlebody)
        _check_arc(self.arc)


class StabMove(_Move):
    """Stabilize handlebody ``handlebody`` along ``arc`` in its opposite surface."""

    __slots__ = ()


class DestabMove(_Move):
    """Formal inverse of a stabilization; same shape as :class:`StabMove`.

    A ``DistinctComponents`` arc re-merges the named pair and undoes a
    SameComponent stabilization; a ``SameComponent`` arc splits the named
    component and undoes a DistinctComponents stabilization.
    """

    __slots__ = ()


class _RecordFields(NamedTuple):
    op: str
    handlebody: int
    arc: Arc
    created: tuple[str, ...]
    removed: tuple[str, ...]


class MoveRecord(_RecordFields):
    """One applied move: operation, parameters, and the labels it touched.

    A named tuple: it unpacks, equals the plain tuple of its fields and
    hashes as it, and ``dataclasses.replace`` does not apply to it.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, op: str, handlebody: int, arc: Arc, created: tuple[str, ...],
                removed: tuple[str, ...]) -> MoveRecord:
        if op not in ("stab", "destab", "fake_stab"):
            raise ValueError(f"unknown move op {op!r}")
        other_two(handlebody)
        _check_arc(arc)
        for field, labels in (("created", created), ("removed", removed)):
            if not isinstance(labels, tuple) or not are_component_ids(labels):
                raise ValueError(f"{field} must be a tuple of component identifiers, got {labels!r}")
        return _tuple(cls, (op, handlebody, arc, created, removed))


MoveScript = tuple[MoveRecord, ...]


_PARAM_NAMES = ("g12", "g13", "g23", "b")
_LEAST_G12, _LEAST_G13, _LEAST_G23, _LEAST_B = PARAM_FLOORS
_TABLE_END = len(LABELS)


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


# _MOVE_RULES[op][one-component arc?][handlebody] -> (delta, message), slot 0
# unused: STAB_DELTAS in the form a move reads, as _SUCCESSOR_ROWS is in the
# form search reads.
_MOVE_RULES = {
    op: tuple((None, *(_move_rule(op, i, same) for i in (1, 2, 3))) for same in (False, True))
    for op in ("stab", "destab")
}
# The genera part of each rule's row, in the same form, as the history check
# sums it; and the created and removed labels of a record.
_GENERA_ROWS = {
    op: tuple((None, *(rule[0][:3] for rule in rules[1:])) for rules in by_kind)
    for op, by_kind in _MOVE_RULES.items()
}
_CREATED, _REMOVED = itemgetter(3), itemgetter(4)


def _link(components: tuple[str, ...], next_id: int) -> LinkComponentSet:
    # A link built from parts the caller has proven, without __post_init__:
    # at least one label, unique, in creation order and below next_id.
    link = _new(LinkComponentSet)
    _SET_COMPONENTS(link, components)
    _SET_NEXT_ID(link, next_id)
    return link


def _compound_record(first: MoveRecord, second: MoveRecord) -> MoveRecord:
    # One fake_stab record for two consecutive moves: the net turnover of
    # labels, each side in creation order, and the second move's arc.  The
    # second move of _Walk.fake_stab turns over exactly the labels the first
    # created, so the net turnover is the first's removed labels and the
    # second's created ones.  The first move is canonical, so its removed
    # labels are in string order, and sorting them by length gives creation
    # order, as in _Walk.state.
    removed = tuple(sorted(first.removed, key=len))
    return _tuple(MoveRecord, ("fake_stab", 1, second.arc, second.created, removed))


def _balance_target(h1: int, h2: int, h3: int) -> int:
    # The smallest handlebody, the largest index on ties.
    if h3 <= h1 and h3 <= h2:
        return 3
    return 2 if h2 <= h1 else 1


def _canonical_run(labels: list[str], n: int, path: Iterable[ParamMove], append) -> int:
    # The one place a canonical move makes its labels: each move of path takes
    # the least label or pair off labels (live, a heap in string order, edited
    # in place; a list in string order is one), creates the next ones from n
    # on and appends its record; returns the next n.  The heap hands over a
    # label and takes a new one in O(log b), with no shift of the list.  It
    # checks nothing: callers prove each move.
    for i, kind in path:
        if kind == "same":
            created = ((LABELS[n], LABELS[n + 1]) if n + 2 <= _TABLE_END
                       else (component_label(n), component_label(n + 1)))
            removed = (heapreplace(labels, created[0]),)
            heappush(labels, created[1])
            arc = _tuple(SameComponent, removed)
            n += 2
        else:
            created = (LABELS[n] if n < _TABLE_END else component_label(n),)
            removed = heappop(labels), heapreplace(labels, created[0])
            arc = _tuple(DistinctComponents, removed)  # in string order already
            n += 1
        append(_tuple(MoveRecord, ("stab", i, arc, created, removed)))
    return n


def _pairs(i: int, live: str, fresh, append) -> str:
    # The records of a to_disk run's split/merge pairs of H_i from the live
    # label, each split into the next two labels of fresh (an iterator) and
    # their merge into the third; returns the last live label.  A split
    # removes what the merge before it created, and a merge removes what its
    # split created when that is in string order; those tuples are shared.
    removed = (live,)
    for x, y, z in zip(fresh, fresh, fresh):
        created = (x, y)
        append(_tuple(MoveRecord, ("stab", i, _tuple(SameComponent, removed), created, removed)))
        removed = created if x < y else (y, x)
        created = (z,)
        append(_tuple(MoveRecord, ("stab", i, _tuple(DistinctComponents, removed), created,
                                   removed)))
        removed = created
    return removed[0]


# _DISK_PAIRS[i][r]: the records of H_i's to_disk pairs on the live labels
# c<r>, c<r+3>, .., two a pair, so that the pairs from c<k> on are one slice
# of _DISK_PAIRS[i][k % 3] from 2 * (k // 3).  Each table grows on demand,
# with pairs that make labels below c<_DISK_REACH> only; a run shares its
# records, which are immutable.
_DISK_PAIRS = (None, *([[], [], []] for _ in range(3)))
_DISK_REACH = 256


def _disk_run(i: int, k: int, pairs: int) -> list[MoveRecord]:
    # The records of H_i's first ``pairs`` to_disk pairs from the live label
    # c<k>, one slice of its table, which _pairs first grows when it is
    # short; the caller keeps the run below c<_DISK_REACH> (k + 3 * pairs < it).
    table, first = _DISK_PAIRS[i][k % 3], 2 * (k // 3)
    if len(table) < first + 2 * pairs:
        grown, stop = k % 3 + 3 * len(table) // 2, k + 1 + 3 * pairs
        _pairs(i, LABELS[grown], iter(LABELS[grown + 1:stop]), table.append)
    return table[first:first + 2 * pairs]


class _Walk:
    """A run of labeled moves on mutable parts, built into one state at the end.

    It holds the live labels as a list, in string order between runs so
    that the least label or pair leads it, and a heap in string order
    during a canonical run; the next label number, the node's coordinates
    as plain ints, the input's history (``base``), the records of its own
    moves as a list, the label, and ``taken``: how many records of a
    refused :meth:`follow` were applied before the refused one.  Each
    method applies its whole run in one frame, as the module docstring
    says: :meth:`cap` and :meth:`stabs` through one ``_canonical_run``
    each, then one sort; :meth:`to_disk` through one ``_canonical_run``
    for its merges and one ``_disk_run`` slice or one ``_pairs`` call for
    its pairs; :meth:`fake_stab` through ``stabs``, and :meth:`move` through
    :meth:`follow`, the one kernel for a given arc; a ``fake_stab``
    record must equal the compound record :meth:`fake_stab` makes.  Every
    record is built, with its arc, by one ``tuple.__new__`` each (a disk
    run's pairs within its table's reach are built once and shared), and
    :meth:`state` builds the node, link (in creation order) and state
    once, so a script of n moves costs one call, at most n records and
    one state.
    """

    __slots__ = ("labels", "next_id", "g12", "g13", "g23", "b", "base", "records", "label",
                 "taken")

    def __init__(self, state: TrisectionState) -> None:
        _check_type("state", state, TrisectionState)
        link = state.link
        self._start(sorted(link.components), link.next_id, state.genera, state.history, state.label)

    @classmethod
    def _at_node(cls, node: MoveGraphNode) -> _Walk:
        # A walk from node.to_state(), without building that state: labels
        # c0 .. c<b-1>, next_id b, an empty history and no label.
        walk = _new(cls)
        walk._start(sorted(component_labels(0, node.b)), node.b, node, (), "")
        return walk

    def _start(self, labels: list[str], next_id: int, node: MoveGraphNode, base: tuple,
               label: str) -> None:
        # One store a slot: a five-way tuple assignment made a walk's start
        # about 140 ns slower (timeit, best of 25 rounds).
        self.labels = labels
        self.next_id = next_id
        self.g12, self.g13, self.g23, self.b = node.g12, node.g13, node.g23, node.b
        self.base = base
        self.records = []
        self.label = label

    def move(self, op: str, i: int, arc: Arc) -> MoveRecord:
        """Apply one stab or formal destab and return its record, or raise IllegalMove."""
        n = self.next_id
        created = component_labels(n, n + 2 if isinstance(arc, SameComponent) else n + 1)
        record = _tuple(MoveRecord, (op, i, arc, created, tuple(arc)))
        self.follow((record,))
        return record

    def follow(self, records: Sequence[MoveRecord]) -> None:
        """Apply a run of records in turn, each of which must be the move it names.

        A stab or destab record must name the labels its move turns over; a
        fake_stab record must be the compound record :meth:`fake_stab` makes.
        When a record is refused, ``taken`` holds the number applied before it.
        """
        # One frame for the run: the walk's ints live in locals, written back
        # before a fake_stab record (fake_stab reads and moves them) and at
        # the end.  A refused record leaves them unwritten, so a refused run
        # of one record leaves the walk as it was; a longer refused run keeps
        # the moves before it in its list and records only, and its caller
        # drops the walk.  A run of disk pairs within the tables' reach is
        # taken whole when it equals the table's slice; every other record,
        # and the first of a run that differs, gets the one legality check,
        # in this order: the arc's labels must be live, the genera must clear
        # PARAM_FLOORS (b does: every rule lowering it merges two live
        # labels), and the record must create the next labels and remove the
        # arc's.  Only then is the list edited and the record appended.
        labels, append = self.labels, self.records.append
        g12, g13, g23, b, n = self.g12, self.g13, self.g23, self.b, self.next_id
        taken, steps = 0, enumerate(records)
        try:
            for taken, record in steps:
                op = record.op  # by attribute, so that a plain tuple is no record
                if op == "fake_stab":
                    self.g12, self.g13, self.g23, self.b, self.next_id = g12, g13, g23, b, n
                    if (applied := self.fake_stab()) != record:
                        raise IllegalMove(f"the move applies as {applied}, not as recorded {record}")
                    g12, g13, g23, b, n = self.g12, self.g13, self.g23, self.b, self.next_id
                    continue
                _, i, arc, created, removed = record
                same = isinstance(arc, SameComponent)
                if same and b == 1 and taken + 3 < len(records) and type(i) is int and 0 < i < 4:
                    # A split of the one live label on H_i opens a run of
                    # disk pairs when the next p pairs equal to_disk's slice
                    # of H_i's table from c<n-1> (which holds stab records
                    # only), each of exactly MoveRecord's type (a plain tuple
                    # equals one).  p is at most g_jk, since each split
                    # lowers it by one, and keeps every label below the
                    # reach; it is at least 2, since one pair costs less on
                    # the per-record check.  A first merge on another
                    # handlebody (as balance's) is turned away before the
                    # table is read.
                    # i must be the int 1, 2 or 3, since _disk_run grows
                    # H_i's table with it (a record built unchecked by
                    # tuple.__new__ can hold True or -1, which index one).
                    p = min((g23, g13, g12)[i - 1], (len(records) - taken) // 2, (_DISK_REACH - n) // 3)
                    run = records[taken:taken + 2 * p] if p > 1 else ()
                    if (run and labels[0] == LABELS[n - 1] and type(run[1]) is MoveRecord
                            and run[1].handlebody == i and _disk_run(i, n - 1, p) == list(run)
                            and {*map(type, run)} == {MoveRecord}):
                        (s12, s13, s23, _), _ = _MOVE_RULES["stab"][True][i]
                        (m12, m13, m23, _), _ = _MOVE_RULES["stab"][False][i]
                        g12, g13 = g12 + p * (s12 + m12), g13 + p * (s13 + m13)
                        g23, n = g23 + p * (s23 + m23), n + 3 * p
                        labels[0] = LABELS[n - 1]
                        self.records += run
                        next(islice(steps, 2 * p - 2, None), None)  # past the run's other records
                        continue
                try:
                    spot = labels.index(arc[0])
                    if not same:
                        other = labels.index(arc[1], spot)
                except ValueError:
                    missing = next(label for label in arc if label not in labels)
                    raise IllegalMove(f"component {missing!r} is not in the boundary link") from None
                (d12, d13, d23, db), message = _MOVE_RULES[op][same][i]
                g12, g13, g23, b = g12 + d12, g13 + d13, g23 + d23, b + db
                if g12 < _LEAST_G12 or g13 < _LEAST_G13 or g23 < _LEAST_G23:
                    raise IllegalMove(message)
                if n + 2 <= _TABLE_END:
                    expected = (LABELS[n], LABELS[n + 1]) if same else (LABELS[n],)
                elif same:
                    expected = component_label(n), component_label(n + 1)
                else:
                    expected = (component_label(n),)
                if created != expected or removed != arc:
                    applied = _tuple(MoveRecord, (op, i, arc, expected, tuple(arc)))
                    raise IllegalMove(f"the move applies as {applied}, not as recorded {record}")
                if same:
                    del labels[spot]
                    insort(labels, created[0])
                    insort(labels, created[1])
                    n += 2
                else:
                    del labels[other], labels[spot]
                    insort(labels, created[0])
                    n += 1
                if op == "destab" and DESTAB_CAVEAT not in self.label:
                    self.label = f"{self.label} | {DESTAB_CAVEAT}" if self.label else DESTAB_CAVEAT
                append(record)
        except Exception:
            self.taken = taken
            raise
        self.g12, self.g13, self.g23, self.b, self.next_id = g12, g13, g23, b, n

    def stabs(self, path: list[ParamMove]) -> None:
        """Stabilize along each (handlebody, kind) move of ``path`` on the least label or pair."""
        # Each step's kind, handlebody and floors (a pair needs b >= 2) are
        # checked on ints in turn, before one run makes every label.
        rules = _MOVE_RULES["stab"]
        g12, g13, g23, b = self.g12, self.g13, self.g23, self.b
        for i, kind in path:
            if kind not in ("same", "distinct"):
                raise ValueError(f"unknown parameter move kind {kind!r}")
            other_two(i)  # rejects anything but 1, 2 and 3
            (d12, d13, d23, db), message = rules[kind == "same"][i]
            g12, g13, g23, b = g12 + d12, g13 + d13, g23 + d23, b + db
            if g12 < _LEAST_G12 or g13 < _LEAST_G13 or g23 < _LEAST_G23 or b < _LEAST_B:
                raise IllegalMove(message)
        self.g12, self.g13, self.g23, self.b = g12, g13, g23, b
        self.next_id = _canonical_run(self.labels, self.next_id, path, self.records.append)
        self.labels.sort()

    # The genus formula and the opposite surface, read off the walk's own
    # g12, g13, g23 and b.
    heights = MoveGraphNode.heights
    opposite = MoveGraphNode.opposite

    def cap(self, genus: int | None) -> None:
        """Balance; then, given a ``genus``, climb until b <= 2 and the genus is at least it."""
        # Every row is picked on ints and unchecked, and one run makes the
        # labels.  A row stabilizes the smallest handlebody, merging while
        # b >= 2: legal by balance's docstring, or, balanced at b = 1 and not
        # trivial (no caller climbs from it), by g_ij = h/2 >= 1.  Each round
        # from b >= 3 merges first and ends at b' <= max(b, 2), so b falls to
        # 2 or less and stays; the walk ends at max(genus, capped_genus).
        rules, moves = _MOVE_RULES["stab"], []
        g12, g13, g23, b = self.g12, self.g13, self.g23, self.b
        while True:
            extra = b - 1
            h1, h2, h3 = g12 + g13 + extra, g12 + g23 + extra, g13 + g23 + extra
            if h1 == h2 == h3 and (genus is None or b <= 2 and h1 >= genus):
                break
            i, same = _balance_target(h1, h2, h3), b < 2
            (d12, d13, d23, db), _ = rules[same][i]
            g12, g13, g23, b = g12 + d12, g13 + d13, g23 + d23, b + db
            moves.append((i, "same" if same else "distinct"))
        self.g12, self.g13, self.g23, self.b = g12, g13, g23, b
        self.next_id = _canonical_run(self.labels, self.next_id, moves, self.records.append)
        self.labels.sort()

    def to_disk(self, i: int) -> None:
        """Stabilize H_i until S_jk is a disk: 2*g_jk + b - 1 canonical moves, as one run."""
        # The canonical run has a fixed shape: b - 1 merges of the least
        # pair, then g_jk pairs of a split of the one live label and the
        # merge of its halves.  Every move of it is legal (a merge needs
        # b >= 2, a split at b = 1 needs g_jk >= 1, and neither row lowers
        # another coordinate), so the run checks nothing, and the genera and
        # b move once, by the sum of its rows.
        pairs, merges = self.opposite(i), self.b - 1
        (s12, s13, s23, sb), _ = _MOVE_RULES["stab"][True][i]
        (m12, m13, m23, mb), _ = _MOVE_RULES["stab"][False][i]
        total = merges + pairs
        self.g12 += pairs * s12 + total * m12
        self.g13 += pairs * s13 + total * m13
        self.g23 += pairs * s23 + total * m23
        self.b += pairs * sb + total * mb
        labels, append = self.labels, self.records.append
        n = _canonical_run(labels, self.next_id, repeat((i, "distinct"), merges), append)
        # Then one label is live, and the pairs touch no list until the last
        # label is put in.  From c<k> = c<n-1>, as after a merge and on a
        # fresh link, a pair's records depend on i and k only, so a run
        # below c<_DISK_REACH> is one _disk_run slice; any other run is made
        # whole.
        self.next_id = stop = n + 3 * pairs
        k = n - 1
        if stop <= _DISK_REACH and labels[0] == LABELS[k]:
            self.records += _disk_run(i, k, pairs)
            labels[0] = LABELS[stop - 1]
        else:
            labels[0] = _pairs(i, labels[0], iter(component_labels(n, stop)), append)

    def fake_stab(self) -> MoveRecord:
        """The two moves of :func:`fake_heegaard_stab`; returns their compound record."""
        if self.b == 1:
            if self.g13 < 1:
                raise IllegalMove("fake Heegaard stabilization with b == 1 needs g13 >= 1")
            self.stabs(((2, "same"), (1, "distinct")))
            first, second = self.records[-2:]
        else:
            # The split of the merged label is no canonical move once b >= 2.
            self.stabs(((2, "distinct"),))
            first = self.records[-1]
            second = self.move("stab", 1, _tuple(SameComponent, first.created[:1]))
        return _compound_record(first, second)

    def state(self) -> TrisectionState:
        """The state the walk has reached, its records appended to its input's history."""
        history = self.base + tuple(self.records)
        # Nothing is checked again, since the walk has proven every part.
        # The labels are unique and below next_id, since each move removes
        # live labels and adds c<next_id> and up.  Sorting the string order
        # by length gives creation order: labels have no leading zeros, so
        # within one length string order is number order.  Each move has
        # kept the genera at or above PARAM_FLOORS and b the number of
        # labels.  The label is the input state's, checked when it was
        # built, or that with the ASCII caveat of a destab appended.
        link = _link(tuple(sorted(self.labels, key=len)), self.next_id)
        genera = _node(self.g12, self.g13, self.g23, self.b)
        return _state(genera, link, history, self.label)


def _stored_state(g12: int, g13: int, g23: int, components: tuple[str, ...], next_id: int,
                  history: MoveScript, label: str) -> TrisectionState:
    # A stored state, or IllegalMove if no legal moves make its history.
    # Replay on an insertion-ordered dict of live labels, from the fresh link,
    # summing each record's genera row as it goes.
    fresh = (len(components) - sum(map(len, map(_CREATED, history)))
             + sum(map(len, map(_REMOVED, history))))
    if fresh < 1:
        raise IllegalMove(f"the history implies {fresh} initial components "
                          "(need at least one component)")
    live = dict.fromkeys(component_labels(0, fresh))
    # The sums of the rows so far, and the lowest each has been.
    s12 = s13 = s23 = low12 = low13 = low23 = 0
    for step, (op, i, _, created, removed) in enumerate(history, start=1):
        try:
            for name in removed:
                del live[name]
        except KeyError:
            raise IllegalMove(f"history step {step}: unknown component {name!r}") from None
        if same := len(removed) == 1:  # a split creates two labels, a merge one
            expected = ((LABELS[fresh], LABELS[fresh + 1]) if fresh + 2 <= _TABLE_END
                        else (component_label(fresh), component_label(fresh + 1)))
            fresh += 2
        else:
            expected = (LABELS[fresh] if fresh < _TABLE_END else component_label(fresh),)
            fresh += 1
        if created != expected:
            raise IllegalMove(f"history step {step} must create {list(expected)}, "
                              f"got {list(created)}")
        for name in created:
            live[name] = None
        d12, d13, d23 = _GENERA_ROWS[op][same][i]
        s12, s13, s23 = s12 + d12, s13 + d13, s23 + d23
        if s12 < low12:
            low12 = s12
        if s13 < low13:
            low13 = s13
        if s23 < low23:
            low23 = s23
    if tuple(live) != components:
        raise IllegalMove(f"stored components {list(components)} do not match the "
                          f"history replay {list(live)}")
    if fresh != next_id:
        raise IllegalMove(f"next_id is {next_id} but the history consumed labels "
                          f"up to {component_label(fresh - 1)}")
    # A step starts from the stored genera less the sum plus the sum before
    # the step; b needs no check, since the replay has kept it at 1 or more.
    # Only a start below zero makes the walk back, which names the last one.
    if g12 - s12 + low12 < 0 or g13 - s13 + low13 < 0 or g23 - s23 + low23 < 0:
        h12, h13, h23 = g12, g13, g23
        for step in range(len(history), 0, -1):
            record = history[step - 1]
            d12, d13, d23 = _GENERA_ROWS[record.op][len(record.removed) == 1][record.handlebody]
            h12, h13, h23 = h12 - d12, h13 - d13, h23 - d23
            if h12 < 0 or h13 < 0 or h23 < 0:
                raise IllegalMove(f"history step {step} would start from genera "
                                  f"(g12, g13, g23) = ({h12}, {h13}, {h23}), below zero")
    # The replay has proven the link: tuple(live) == components makes its
    # labels well formed, unique and in creation order, and fresh ==
    # next_id puts each of them below next_id.
    link = _link(components, next_id)
    return TrisectionState(MoveGraphNode(g12, g13, g23, len(components)), link, history, label)


def _apply(state: TrisectionState, move: _Move, op: str) -> TrisectionState:
    # Shared body of apply_stabilization and apply_destabilization: a walk of one move.
    walk = _Walk(state)
    walk.move(op, move.handlebody, move.arc)
    return walk.state()


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
    _check_type("record", record, MoveRecord)
    if record.op == "stab":
        if isinstance(record.arc, SameComponent):
            return DestabMove(record.handlebody, DistinctComponents(*record.created))
        return DestabMove(record.handlebody, SameComponent(record.created[0]))
    if record.op == "destab":
        if isinstance(record.arc, DistinctComponents):
            return StabMove(record.handlebody, SameComponent(record.created[0]))
        return StabMove(record.handlebody, DistinctComponents(*record.created))
    raise ValueError("a fake_stab record has no single inverse move")


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
    walk = _Walk(state)
    walk.fake_stab()
    return walk.state()


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
    walk = _Walk(state)
    walk.cap(None)
    return walk.state(), tuple(walk.records)


def balance_length(state: TrisectionState) -> int:
    """The length of :func:`balance`'s script: 3*max(h1, h2, h3) - (h1+h2+h3)."""
    _check_type("state", state, TrisectionState)
    profile = state.profile
    return 3 * max(profile.h1, profile.h2, profile.h3) - profile.sum_h()


def capped_genus(node: MoveGraphNode) -> int:
    """The balanced genus at which ``_Walk.cap(0)`` leaves a walk from ``node``.

    Balancing heights h takes n = 3*max(h) - sum(h) moves to max(h) = m;
    each move lowers b by one while b >= 2 and raises it to 2 at b = 1,
    so b ends at max(b - n, 1 + m % 2), the second by the parity of a
    balanced node.  Capping b at 2 then takes b // 3 rounds of three
    moves, one genus each.
    """
    # Proven for every node with sum_h <= 40 by
    # tests/test_moves.py::test_capped_genus_is_where_cap_ends_everywhere.
    heights = node.heights()
    top = max(heights)
    return top + max(node.b - (3 * top - sum(heights)), 1 + top % 2) // 3


def disk_length(state: TrisectionState, i: int) -> int:
    """The length of :func:`build_heegaard`'s script: 2*g_jk + b - 1."""
    _check_type("state", state, TrisectionState)
    return 2 * state.genera.opposite(i) + state.b - 1


def build_heegaard(
    state: TrisectionState, i: int
) -> tuple[TrisectionState, int, MoveScript]:
    """Stabilize H_i until the trisection collapses to a Heegaard splitting.

    The script drives S_jk to a disk (g_jk = 0, b = 1) with a two-component
    arc whenever b >= 2, else a one-component arc, in 2*g_jk + b - 1 moves
    (:func:`disk_length`).  Then H_j and H_k glue to a single handlebody,
    and the splitting genus is the final h_i = h_j + h_k of the input.
    Returns (final state, splitting genus, script).  On a balanced (h;b)
    input the script has exactly h moves and the genus is 2h.
    """
    # The script's length and the genus are proven for every state with
    # sum_h <= 12 and every i by
    # tests/test_moves.py::test_build_heegaard_counts_everywhere.
    walk = _Walk(state)
    walk.to_disk(i)
    return walk.state(), walk.heights()[i - 1], tuple(walk.records)
