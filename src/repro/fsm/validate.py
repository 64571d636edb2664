"""Validation and structural reporting for FSM descriptions.

Before synthesis, the paper's flow assumes a well-formed FSM description.
:func:`validate_fsm` collects all problems of a machine (non-determinism,
unreachable states, incomplete specification, unused inputs) so callers can
either fix them or consciously accept them; :func:`structural_summary`
produces the size metrics used throughout the experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .machine import FSM, cubes_intersect

__all__ = ["ValidationIssue", "ValidationReport", "validate_fsm", "structural_summary"]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in an FSM description."""

    severity: str  # "error" or "warning"
    code: str
    message: str


@dataclass
class ValidationReport:
    """Collection of validation issues for one machine."""

    fsm_name: str
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def warnings(self) -> List[ValidationIssue]:
        return [i for i in self.issues if i.severity == "warning"]

    @property
    def ok(self) -> bool:
        """``True`` when no errors were found (warnings are tolerated)."""
        return not self.errors

    def add(self, severity: str, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(severity, code, message))


def validate_fsm(fsm: FSM) -> ValidationReport:
    """Check an FSM for the properties the synthesis flow relies on."""
    report = ValidationReport(fsm.name)

    _check_determinism(fsm, report)

    if not fsm.is_completely_specified():
        report.add(
            "warning",
            "incomplete",
            "machine is incompletely specified; unspecified entries become don't cares",
        )

    reachable = fsm.reachable_states()
    unreachable = [s for s in fsm.states if s not in reachable]
    if unreachable:
        report.add(
            "warning",
            "unreachable-states",
            f"{len(unreachable)} states unreachable from reset: {', '.join(unreachable[:8])}"
            + ("..." if len(unreachable) > 8 else ""),
        )

    unused = [i for i in range(fsm.num_inputs) if i not in fsm.used_input_columns()]
    if unused:
        report.add(
            "warning",
            "unused-inputs",
            f"{len(unused)} primary inputs are never tested: columns {unused}",
        )

    dangling = [t for t in fsm.transitions if t.next == "*"]
    if dangling:
        report.add(
            "warning",
            "unspecified-next",
            f"{len(dangling)} transitions leave the next state unspecified",
        )

    return report


def _check_determinism(fsm: FSM, report: ValidationReport) -> None:
    for state in fsm.states:
        ts = fsm.transitions_from(state)
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                if cubes_intersect(ts[i].inputs, ts[j].inputs):
                    same_target = ts[i].next == ts[j].next and ts[i].outputs == ts[j].outputs
                    severity = "warning" if same_target else "error"
                    report.add(
                        severity,
                        "overlap",
                        f"state {state!r}: transitions {ts[i].inputs!r} and {ts[j].inputs!r} overlap"
                        + ("" if same_target else " with conflicting behaviour"),
                    )
                    # One report per state keeps the output readable.
                    break
            else:
                continue
            break


def structural_summary(fsm: FSM) -> Dict[str, object]:
    """Size metrics of a machine, as used in the experiment reports."""
    fanout: Dict[str, int] = {s: 0 for s in fsm.states}
    for t in fsm.transitions:
        if t.next != "*":
            fanout[t.present] += 1
    return {
        "name": fsm.name,
        "states": fsm.num_states,
        "inputs": fsm.num_inputs,
        "outputs": fsm.num_outputs,
        "transitions": len(fsm.transitions),
        "min_code_bits": fsm.min_code_bits,
        "deterministic": fsm.is_deterministic(),
        "completely_specified": fsm.is_completely_specified(),
        "strongly_connected": fsm.is_strongly_connected(),
        "max_fanout": max(fanout.values()) if fanout else 0,
        "reachable_states": len(fsm.reachable_states()),
    }
