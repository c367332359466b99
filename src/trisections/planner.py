"""Deterministic planning of a common stabilization for two trisections.

Any two trisections of the same manifold become isotopic after enough
stabilizations.  The planner emits one concrete, replayable script per
side realizing the standard route:

1. balance both sides, force b <= 2, and climb to the larger of their
   capped genera (so both present the same (h;b));
2. stabilize H1 on each side until S23 is a disk, collapsing each
   trisection onto a Heegaard splitting;
3. apply ``rs_bound`` fake Heegaard stabilizations to each side.  The
   number of genuine Heegaard stabilizations needed to make the two
   splittings isotopic is not computable from the data held here, so it
   is a caller-supplied bound;
4. stabilize H3 until S12 is a disk;
5. stabilize H2 until S13 is a disk.

Every step is monotone (stabilizations only) and both sides end at
identical genera and profile.  The per-step scripts are packaged in a
:class:`PlanReport`.

Each side runs as one walk (see :mod:`trisections.moves`) from its input
to its endpoint.  Step 1 and each fake stabilization of step 3 are one
canonical run each, but for the second half of a fake one at b >= 2.
Steps 2, 4 and 5, about seven tenths of a plan's records, are each one
run of ``_Walk.to_disk``, which checks nothing since every such run is
legal: its merges are one canonical run, and its split/merge pairs from
the last label made are, below ``c256`` as in plans of small inputs,
one slice of a table of shared records.
A step is cut from the walk's records by their count before and after
it, and the endpoint's node is read off the walk's ints: planning builds
no state.  :func:`replay` hands a whole script to ``_Walk.follow`` in one
call, which checks every record and names the first it refuses by its
step.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .core import (MoveGraphNode, OutOfDomain, Profile, TrisectionError, TrisectionState,
                   _check_count, _check_fields, _check_type)
from .moves import IllegalMove, MoveRecord, MoveScript, _Walk, capped_genus


class TrivialInput(TrisectionError):
    """The planner refuses the trivial trisection as an input."""


@dataclass(frozen=True, slots=True)
class PlanSteps:
    """The five per-side scripts, keyed by plan step."""

    step1_balance: MoveScript
    step2_build: MoveScript
    step3_fake: MoveScript
    step4_s12_to_disk: MoveScript
    step5_s13_to_disk: MoveScript

    def concatenated(self) -> MoveScript:
        return (
            self.step1_balance
            + self.step2_build
            + self.step3_fake
            + self.step4_s12_to_disk
            + self.step5_s13_to_disk
        )


@dataclass(frozen=True, slots=True)
class PlanReport:
    """Outcome of :func:`plan_common_stabilization`: scripts and endpoint."""

    rs_bound: int
    final_profile: Profile
    final_genera: MoveGraphNode
    a: PlanSteps
    b: PlanSteps

    def __post_init__(self) -> None:
        # The report's writer prints each field as it is.
        _check_fields(self, (
            ("rs_bound", type(self.rs_bound) is int, "an int"),
            ("final_profile", isinstance(self.final_profile, Profile), "a Profile"),
            ("final_genera", isinstance(self.final_genera, MoveGraphNode), "a MoveGraphNode"),
            ("a", isinstance(self.a, PlanSteps), "a PlanSteps"),
            ("b", isinstance(self.b, PlanSteps), "a PlanSteps"),
        ))


def replay(state: TrisectionState, script: MoveScript) -> TrisectionState:
    """Fold a script over a state, record by record in one walk, and build one state.

    ``stab`` and ``destab`` records apply as
    :func:`~trisections.moves.apply_stabilization` and
    :func:`~trisections.moves.apply_destabilization` would, ``fake_stab``
    records as :func:`~trisections.moves.fake_heegaard_stab`.  The record
    each move produces (for ``fake_stab``, the compound record) must equal
    the script's record, created and removed labels included.  An illegal
    or mismatching record raises :class:`~trisections.moves.IllegalMove`
    naming the failing step (1-based), as does a step that is no
    :class:`~trisections.moves.MoveRecord`.
    """
    walk = _Walk(state)
    # The tuple test first: the Sequence test alone costs about 0.5 us a replay.
    if type(script) is not tuple and not isinstance(script, Sequence):
        raise OutOfDomain(f"script must be a sequence of MoveRecord, got {script!r}")
    try:
        walk.follow(script)
    except IllegalMove as error:
        raise IllegalMove(f"script step {walk.taken + 1}: {error}") from error
    except (AttributeError, TypeError, ValueError):
        # Checked only once the step has failed, so a record costs no more.
        record = script[walk.taken]
        if isinstance(record, MoveRecord):
            raise
        raise IllegalMove(f"script step {walk.taken + 1}: expected a MoveRecord, "
                          f"got {record!r}") from None
    return walk.state()


def _check_arguments(kind: type, a, b, rs_bound: int) -> None:
    # A plan's two inputs, each a ``kind``, and its bound, each named when it is not.
    _check_type("a", a, kind)
    _check_type("b", b, kind)
    _check_count("rs_bound", rs_bound)


def plan_lengths(a: MoveGraphNode, b: MoveGraphNode, rs_bound: int) -> tuple[int, int]:
    """The records of each side of :func:`plan_common_stabilization`, in closed form.

    For non-trivial inputs: ``len(report.a.concatenated())`` and
    ``len(report.b.concatenated())`` of the plan from states with these
    genera, found without a move.  Both sides end step 1 at the balanced
    genus H, the larger :func:`~trisections.moves.capped_genus`, and
    every move raises sum_h by exactly 1, so step 1 takes 3H - sum_h
    moves on each side.  Step 2 is H moves, step 3 ``rs_bound`` records,
    and steps 4 and 5 drive S12 of (H + rs_bound, H, 0; 1) and then S13
    to disks in 2(H + rs_bound) and 2(2H + rs_bound) moves: 10H +
    5 ``rs_bound`` - sum_h records in all.
    """
    _check_arguments(MoveGraphNode, a, b, rs_bound)
    genus = max(capped_genus(a), capped_genus(b))
    return tuple(10 * genus + 5 * rs_bound - node.sum_h() for node in (a, b))


def plan_common_stabilization(
    a: TrisectionState, b: TrisectionState, rs_bound: int
) -> PlanReport:
    """Plan stabilization scripts carrying both inputs to one endpoint.

    Pre-conditions: both inputs are non-trivial and ``rs_bound >= 0``.
    The report's two script bundles replay from the respective inputs to
    states with identical genera and profile.  Whether the endpoints are
    actually isotopic depends on ``rs_bound`` being large enough, which
    the caller must supply; the combinatorics here is exact either way.
    """
    _check_arguments(TrisectionState, a, b, rs_bound)
    for name, state in (("a", a), ("b", b)):
        if state.is_trivial:
            raise TrivialInput(
                f"input {name} is the trivial trisection; it admits no stabilization"
            )

    # The postconditions named in steps 1 and 2 are proven for every
    # non-trivial pair with sum_h <= 8 by
    # tests/test_planner.py::test_plan_postconditions_everywhere, and that
    # both sides end on one node by
    # tests/test_acceptance.py::test_acceptance_07_pairwise_common_stabilization.

    # Step 1: balance, cap b at 2 and climb to the larger capped genus H,
    # so that both sides present one profile: each ends at (H,H,H) with
    # b <= 2, and b's parity is the opposite of H's, so b is equal too.
    genus = max(capped_genus(a.genera), capped_genus(b.genera))
    side_a, side_b = _Walk(a), _Walk(b)
    side_a.cap(genus)
    side_b.cap(genus)
    steps_a, steps_b = _finish(side_a, rs_bound), _finish(side_b, rs_bound)
    genera = MoveGraphNode(side_a.g12, side_a.g13, side_a.g23, side_a.b)
    return PlanReport(rs_bound, genera.profile(), genera, steps_a, steps_b)


def _finish(walk: _Walk, rs_bound: int) -> PlanSteps:
    # Steps 2 to 5 on a walk that has made step 1, each step cut from the
    # walk's records by their count before and after it.
    records = walk.records
    balanced = len(records)
    # Step 2: collapse onto a Heegaard splitting along S23 (g23 = 0 and
    # b = 1, with at least one move).
    walk.to_disk(1)
    built = len(records)
    # Step 3: the caller-supplied number of fake Heegaard stabilizations.
    fakes = tuple([walk.fake_stab() for _ in range(rs_bound)])
    # Steps 4 and 5: make S12 and then S13 into disks.
    faked = len(records)
    walk.to_disk(3)
    s12 = len(records)
    walk.to_disk(2)
    return PlanSteps(tuple(records[:balanced]), tuple(records[balanced:built]), fakes,
                     tuple(records[faked:s12]), tuple(records[s12:]))
