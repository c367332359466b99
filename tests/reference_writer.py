"""The JSON value of every document, kept as the reference writer.

``trisections.serialize`` writes move records from templates; these
functions build the structured value of a state, a script or a plan
report instead, and ``canonical_dumps`` of that value is the text the
writers must produce byte for byte (``tests/test_serialize.py``).  The
heads of states and plan reports are the library's own
``_state_head`` and ``_plan_head``, which its writers share.
"""

from __future__ import annotations

from trisections.moves import Arc, MoveRecord, MoveScript, SameComponent
from trisections.planner import PlanReport, PlanSteps
from trisections.serialize import _STEP_NAMES, _plan_head, _state_head


def arc_to_payload(arc: Arc) -> dict:
    if isinstance(arc, SameComponent):
        return {"same": arc.component}
    return {"distinct": [arc.first, arc.second]}


def record_to_payload(record: MoveRecord) -> dict:
    return {
        "op": record.op,
        "handlebody": record.handlebody,
        "arc": arc_to_payload(record.arc),
        "created": list(record.created),
        "removed": list(record.removed),
    }


def script_to_payload(script: MoveScript) -> list:
    return [record_to_payload(record) for record in script]


def state_to_payload(state) -> dict:
    return _state_head(state) | {"history": script_to_payload(state.history)}


def plan_report_to_payload(report: PlanReport) -> dict:
    def steps(side: PlanSteps) -> dict:
        return {
            "steps": {name: script_to_payload(getattr(side, name)) for name in _STEP_NAMES}
        }

    return _plan_head(report) | {"a": steps(report.a), "b": steps(report.b)}
