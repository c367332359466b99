"""Deterministic planning of a common stabilization for two trisections.

Any two trisections of the same manifold become isotopic after enough
stabilizations.  The planner emits one concrete, replayable script per
side realizing the standard route:

1. balance both sides, force b <= 2, and equalize the balanced genera
   (so both present the same (h;b));
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
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    MoveGraphNode,
    OutOfDomain,
    Profile,
    TrisectionError,
    TrisectionState,
    is_feasible,
)
from .moves import (
    IllegalMove,
    MoveRecord,
    MoveScript,
    _compound_record,
    _Walk,
    balance_capped,
    build_heegaard,
    fake_heegaard_stab,
    raise_balanced,
)


class TrivialInput(TrisectionError):
    """The planner refuses the trivial trisection as an input."""


class InfeasibleInput(TrisectionError):
    """A planner input fails the feasibility arithmetic."""


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


def replay(state: TrisectionState, script: MoveScript) -> TrisectionState:
    """Fold a script over a state, one record at a time, and build one state.

    ``stab`` and ``destab`` records apply as
    :func:`~trisections.moves.apply_stabilization` and
    :func:`~trisections.moves.apply_destabilization` would, ``fake_stab``
    records as :func:`~trisections.moves.fake_heegaard_stab`.  The record
    each move produces (for ``fake_stab``, the compound record) must equal
    the script's record, created and removed labels included.  An illegal
    or mismatching record raises :class:`~trisections.moves.IllegalMove`
    naming the failing step (1-based).
    """
    walk = _Walk(state)
    for step, record in enumerate(script, start=1):
        try:
            # MoveRecord admits only three ops.
            if record.op != "fake_stab":
                walk.follow(record)
            elif (applied := walk.fake_stab()) != record:
                raise IllegalMove(f"the move applies as {applied}, not as recorded {record}")
        except IllegalMove as error:
            raise IllegalMove(f"script step {step}: {error}") from error
    return walk.state()


def plan_lengths(a: MoveGraphNode, b: MoveGraphNode, rs_bound: int) -> tuple[int, int]:
    """The records of each side of :func:`plan_common_stabilization`, in closed form.

    For non-trivial inputs: ``len(report.a.concatenated())`` and
    ``len(report.b.concatenated())`` of the plan from states with these
    genera, found without a move.  Step 1 balances a side of heights
    h to max(h) = m in n = 3m - sum(h) moves; each move lowers b by one
    while b >= 2 and raises it to 2 at b = 1, so b ends at
    max(b - n, 1 + m % 2), the second by the parity of a balanced node.
    Capping b then takes b // 3 rounds of three moves, one genus each,
    and equalizing three moves per genus up to the larger capped genus
    H.  Step 2 is H moves, step 3 ``rs_bound`` records, and steps 4 and
    5 drive S12 of (H + rs_bound, H, 0; 1) and then S13 to disks in
    2(H + rs_bound) and 2(2H + rs_bound) moves.
    """
    sides = []
    for node in (a, b):
        heights = node.heights()
        top = max(heights)
        moves = 3 * top - sum(heights)
        rounds = max(node.b - moves, 1 + top % 2) // 3
        sides.append((moves + 3 * rounds, top + rounds))
    genus = max(capped for _, capped in sides)
    rest = 7 * genus + 5 * rs_bound
    return tuple(moves + 3 * (genus - capped) + rest for moves, capped in sides)


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
    if not isinstance(rs_bound, int) or rs_bound < 0:
        raise OutOfDomain(f"rs_bound must be a nonnegative integer, got {rs_bound!r}")
    for name, state in (("a", a), ("b", b)):
        if not is_feasible(state.profile):
            raise InfeasibleInput(f"input {name} has an infeasible profile")
        if state.is_trivial:
            raise TrivialInput(
                f"input {name} is the trivial trisection; it admits no stabilization"
            )

    # The postconditions named in steps 1 and 2 are proven for every
    # non-trivial pair with sum_h <= 8 by
    # tests/test_planner.py::test_plan_postconditions_everywhere, and that
    # both sides end on one node by
    # tests/test_acceptance.py::test_acceptance_07_pairwise_common_stabilization.

    # Step 1: balance, cap b at 2, then equalize the balanced genera, so
    # that both sides present one profile.  Raising the smaller side one
    # genus per round must end with equal b too: both b values lie in
    # {1, 2} and share the parity opposite to h.
    side_a = balance_capped(a)
    side_b = balance_capped(b)
    while side_a.profile.h1 != side_b.profile.h1:
        if side_a.profile.h1 < side_b.profile.h1:
            side_a = raise_balanced(side_a)
        else:
            side_b = raise_balanced(side_b)
    step1 = (
        side_a.history[len(a.history):],
        side_b.history[len(b.history):],
    )

    # Step 2: collapse each side onto a Heegaard splitting along S23
    # (g23 = 0 and b = 1, with at least one move on each side).
    side_a, _, step2_a = build_heegaard(side_a, 1)
    side_b, _, step2_b = build_heegaard(side_b, 1)

    # Step 3: the caller-supplied number of fake Heegaard stabilizations.
    step3_a: list[MoveRecord] = []
    step3_b: list[MoveRecord] = []
    for _ in range(rs_bound):
        side_a = fake_heegaard_stab(side_a)
        step3_a.append(_compound_record(side_a.history[-2], side_a.history[-1]))
    for _ in range(rs_bound):
        side_b = fake_heegaard_stab(side_b)
        step3_b.append(_compound_record(side_b.history[-2], side_b.history[-1]))

    # Steps 4 and 5: make S12 and then S13 into disks.
    side_a, _, step4_a = build_heegaard(side_a, 3)
    side_b, _, step4_b = build_heegaard(side_b, 3)
    side_a, _, step5_a = build_heegaard(side_a, 2)
    side_b, _, step5_b = build_heegaard(side_b, 2)

    return PlanReport(
        rs_bound=rs_bound,
        final_profile=side_a.profile,
        final_genera=side_a.genera,
        a=PlanSteps(step1[0], step2_a, tuple(step3_a), step4_a, step5_a),
        b=PlanSteps(step1[1], step2_b, tuple(step3_b), step4_b, step5_b),
    )
