"""Five-step common-stabilization planning and script replay.

The frozen endpoints below were derived by hand from the move effects:
balancing (2,2,0;1) costs two moves, collapsing a balanced genus-2 state
onto a Heegaard splitting costs two more, and the final two collapse
steps alternate one-component and two-component arcs, doubling genera as
they go.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from trisections import moves
from trisections.core import (
    MoveGraphNode,
    OutOfDomain,
    Profile,
    connect_sum_equal_genus,
    from_heegaard,
    koda_ozawa,
    open_book,
    trivial,
)
from trisections.explorer import feasible_nodes
from trisections.moves import DistinctComponents, IllegalMove, MoveRecord, SameComponent
from trisections.planner import (
    PlanReport,
    PlanSteps,
    TrivialInput,
    plan_common_stabilization,
    plan_lengths,
    replay,
)


def _step_lengths(steps: PlanSteps) -> tuple[int, ...]:
    return (
        len(steps.step1_balance),
        len(steps.step2_build),
        len(steps.step3_fake),
        len(steps.step4_s12_to_disk),
        len(steps.step5_s13_to_disk),
    )


def test_plan_same_input_both_sides():
    report = plan_common_stabilization(from_heegaard(2), from_heegaard(2), 0)
    assert report.final_profile == Profile(4, 10, 6, 1)
    assert report.final_genera == MoveGraphNode(4, 0, 6, 1)
    assert _step_lengths(report.a) == (2, 2, 0, 4, 8)
    assert report.a == report.b


def test_plan_heegaard_vs_koda_with_one_fake():
    report = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 1)
    assert report.final_profile == Profile(5, 13, 8, 1)
    assert report.final_genera == MoveGraphNode(5, 0, 8, 1)
    assert _step_lengths(report.a) == (1, 2, 1, 6, 10)
    assert _step_lengths(report.b) == (2, 2, 1, 6, 10)


def test_plan_scripts_replay_to_the_reported_endpoint():
    a, b = koda_ozawa(), open_book(1)
    report = plan_common_stabilization(a, b, 2)
    for start, steps in ((a, report.a), (b, report.b)):
        final = replay(start, steps.concatenated())
        assert final.genera == report.final_genera
        assert final.profile == report.final_profile


def test_plan_step1_balances_and_caps_boundary_components():
    a, b = connect_sum_equal_genus(3), from_heegaard(4)  # b = 4 needs capping
    report = plan_common_stabilization(a, b, 0)
    side_a = replay(a, report.a.step1_balance)
    side_b = replay(b, report.b.step1_balance)
    assert side_a.is_balanced and side_b.is_balanced
    assert side_a.b <= 2 and side_b.b <= 2
    assert side_a.profile == side_b.profile


def test_plan_step2_collapses_onto_a_heegaard_splitting():
    a, b = koda_ozawa(), from_heegaard(3)
    report = plan_common_stabilization(a, b, 0)
    side = replay(a, report.a.step1_balance + report.a.step2_build)
    assert side.genera.g23 == 0 and side.b == 1
    assert len(report.a.step2_build) >= 1
    assert len(report.b.step2_build) >= 1


def test_plan_postconditions_everywhere():
    # Proves what plan_common_stabilization states without checking, for
    # every ordered pair of non-trivial nodes with sum_h <= 8: after step 1
    # both sides are balanced with b <= 2 and one profile, and after step 2
    # each side is a Heegaard splitting (g23 = 0, b = 1) reached by at
    # least one move.  Both sides then end on the reported node, for
    # rs_bound 0, 1 and 2, by tests/test_acceptance.py::
    # test_acceptance_07_pairwise_common_stabilization.
    states = [node.to_state() for node in feasible_nodes(8) if not node.is_trivial]
    assert len(states) == 48
    for a in states:
        for b in states:
            report = plan_common_stabilization(a, b, 0)
            profiles = []
            for start, steps in ((a, report.a), (b, report.b)):
                balanced = replay(start, steps.step1_balance)
                assert balanced.is_balanced and balanced.b <= 2
                built = replay(balanced, steps.step2_build)
                assert built.genera.g23 == 0 and built.b == 1
                assert len(steps.step2_build) >= 1
                profiles.append(balanced.profile)
            assert profiles[0] == profiles[1]


def test_plan_lengths_count_the_records_of_each_side():
    # The closed form the CLI sizes a plan by, for every ordered pair of
    # non-trivial nodes with sum_h <= 8 and rs_bound 0 to 3.
    nodes = [node for node in feasible_nodes(8) if not node.is_trivial]
    for a in nodes:
        for b in nodes:
            for rs_bound in range(4):
                report = plan_common_stabilization(a.to_state(), b.to_state(), rs_bound)
                expected = (len(report.a.concatenated()), len(report.b.concatenated()))
                assert plan_lengths(a, b, rs_bound) == expected, (a, b, rs_bound)
                assert isinstance(hash(report), int)


def test_a_plan_builds_no_state(monkeypatch):
    # Each side is one walk from its input; the steps are cut from the
    # walk's records and the endpoint is read off its ints.
    built = []
    state_of = moves._Walk.state

    def counting(walk):
        built.append(walk)
        return state_of(walk)

    monkeypatch.setattr(moves._Walk, "state", counting)
    for a, b in ((koda_ozawa(), open_book(1)), (connect_sum_equal_genus(3), from_heegaard(4))):
        for rs_bound in (0, 2):
            report = plan_common_stabilization(a, b, rs_bound)
            assert report.a.concatenated() and report.b.concatenated()
    assert built == []
    assert replay(a, report.a.concatenated()).genera == report.final_genera
    assert len(built) == 1


def test_plan_step3_emits_one_compound_record_per_fake():
    report = plan_common_stabilization(koda_ozawa(), koda_ozawa(), 3)
    assert len(report.a.step3_fake) == 3
    assert all(record.op == "fake_stab" for record in report.a.step3_fake)
    # each compound replays as its two constituent stabilizations
    before = replay(koda_ozawa(), report.a.step1_balance + report.a.step2_build)
    after = replay(before, report.a.step3_fake)
    assert len(after.history) == len(before.history) + 6
    assert after.genera.g12 == before.genera.g12 + 3
    assert after.genera.g13 == before.genera.g13
    assert after.genera.g23 == before.genera.g23
    assert after.b == before.b


def test_plan_scripts_are_monotone():
    report = plan_common_stabilization(open_book(2), koda_ozawa(), 1)
    for steps in (report.a, report.b):
        assert all(
            record.op in ("stab", "fake_stab") for record in steps.concatenated()
        )


def test_plan_endpoints_always_match():
    seeds = [koda_ozawa(), from_heegaard(1), open_book(1), connect_sum_equal_genus(2)]
    for a in seeds:
        for b in seeds:
            for rs_bound in (0, 2):
                report = plan_common_stabilization(a, b, rs_bound)
                final_a = replay(a, report.a.concatenated())
                final_b = replay(b, report.b.concatenated())
                assert final_a.genera == final_b.genera == report.final_genera
                assert final_a.profile == final_b.profile == report.final_profile


def test_plan_is_deterministic():
    first = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 1)
    second = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 1)
    assert first == second
    assert isinstance(first, PlanReport)


def test_plan_rejects_trivial_inputs():
    with pytest.raises(TrivialInput):
        plan_common_stabilization(trivial(), koda_ozawa(), 0)
    with pytest.raises(TrivialInput):
        plan_common_stabilization(koda_ozawa(), trivial(), 0)


@pytest.mark.parametrize("rs_bound", [-1, True, 1.0, None, "1"],
                         ids=["negative", "true", "float", "none", "str"])
def test_plan_rejects_an_rs_bound_that_is_not_a_count(rs_bound):
    # True == 1 and 1.0 == 1, but neither is a count: a report of either
    # would write "rs_bound": true or 1.0.
    with pytest.raises(OutOfDomain, match="^rs_bound must be a nonnegative integer"):
        plan_common_stabilization(koda_ozawa(), from_heegaard(2), rs_bound)


def test_replay_reports_the_failing_step():
    script = (
        MoveRecord("stab", 3, SameComponent("c0"), ("c1", "c2"), ("c0",)),
        MoveRecord("stab", 1, SameComponent("c9"), (), ("c9",)),
    )
    with pytest.raises(IllegalMove, match="script step 2"):
        replay(from_heegaard(2), script)


def test_replay_rejects_a_stab_record_with_wrong_labels():
    # the merge really creates c2; a record claiming c9 must not replay
    record = MoveRecord("stab", 1, DistinctComponents("c0", "c1"), ("c9",), ("c0", "c1"))
    with pytest.raises(IllegalMove, match="script step 1"):
        replay(koda_ozawa(), (record,))
    honest = MoveRecord("stab", 1, DistinctComponents("c0", "c1"), ("c2",), ("c0", "c1"))
    assert replay(koda_ozawa(), (honest,)).history == (honest,)


def test_replay_rejects_a_fake_stab_record_that_differs_from_the_compound():
    forged = MoveRecord("fake_stab", 3, SameComponent("c0"), ("c7",), ("c5",))
    with pytest.raises(IllegalMove, match="script step 1"):
        replay(open_book(1), (forged,))


def test_replay_of_an_empty_script_is_identity():
    state = koda_ozawa()
    assert replay(state, ()) == state


def test_plan_reports_refuse_fields_of_the_wrong_type():
    # replace(report, rs_bound=True) used to write "rs_bound": True.
    report = plan_common_stabilization(koda_ozawa(), from_heegaard(2), 1)
    for field, value in (("rs_bound", True), ("rs_bound", 1.0), ("final_profile", (5, 13, 8, 1)),
                         ("final_genera", report.final_profile), ("a", report.a.concatenated()),
                         ("b", None)):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            replace(report, **{field: value})


def test_every_plan_report_of_these_tests_builds_and_hashes():
    # The inputs the tests above plan from, beyond the nodes with sum_h <= 8
    # that test_plan_lengths_count_the_records_of_each_side hashes.
    seeds = [koda_ozawa(), from_heegaard(1), from_heegaard(2), from_heegaard(4), open_book(1),
             open_book(2), connect_sum_equal_genus(2), connect_sum_equal_genus(3)]
    for a in seeds:
        for b in seeds:
            for rs_bound in range(4):
                assert isinstance(hash(plan_common_stabilization(a, b, rs_bound)), int)
