"""The JSON value of every document, kept as the reference writer.

``trisections.serialize`` writes every document from templates; these
functions build the structured value of a state, a script, a plan
report or a verify report instead, and ``canonical_dumps`` of that
value is the text the writers must produce byte for byte
(``tests/test_serialize.py``).  Nothing here comes from the writer:
``canonical_dumps`` is the stdlib's indenting encoder, and the step
names are read from ``PlanSteps`` itself.
"""

from __future__ import annotations

import json
from dataclasses import fields

from trisections.core import MoveGraphNode
from trisections.explorer import PropertyResult, VerificationReport
from trisections.moves import Arc, MoveRecord, MoveScript, SameComponent
from trisections.planner import PlanReport, PlanSteps
from trisections.serialize import FORMAT_VERSION

_STEP_NAMES = tuple(step.name for step in fields(PlanSteps))


def canonical_dumps(payload) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def genera_to_payload(node: MoveGraphNode) -> dict:
    # The surface genera of a node; a state stores b with its link.
    return {"g12": node.g12, "g13": node.g13, "g23": node.g23}


def node_to_payload(node: MoveGraphNode) -> dict:
    return genera_to_payload(node) | {"b": node.b}


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
    return {
        "version": FORMAT_VERSION,
        "label": state.label,
        "genera": genera_to_payload(state.genera),
        "link": {
            "components": list(state.link.components),
            "next_id": state.link.next_id,
        },
        "history": script_to_payload(state.history),
    }


def plan_report_to_payload(report: PlanReport) -> dict:
    def steps(side: PlanSteps) -> dict:
        return {
            "steps": {name: script_to_payload(getattr(side, name)) for name in _STEP_NAMES}
        }

    return {
        "version": FORMAT_VERSION,
        "rs_bound": report.rs_bound,
        "final_profile": list(report.final_profile.as_tuple()),
        "final_genera": genera_to_payload(report.final_genera),
        "a": steps(report.a),
        "b": steps(report.b),
    }


def verification_report_to_payload(report: VerificationReport) -> dict:
    def entry(result: PropertyResult) -> dict:
        range_payload = {"max_sum": result.max_sum}
        if result.slack is not None:
            range_payload["slack"] = result.slack
        return {
            "property": result.name,
            "range": range_payload,
            "pass": result.passed,
            "counterexamples": [node_to_payload(n) for n in result.counterexamples],
        }

    return {
        "version": FORMAT_VERSION,
        "max_sum": report.max_sum,
        "entries": [entry(result) for result in report.entries],
    }
