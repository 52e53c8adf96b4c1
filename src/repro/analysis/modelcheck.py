"""Exhaustive model checker for the E/O/S/I protocol table.

A query over the :class:`repro.analysis.model.StateGraph` of a small
configuration (2–4 nodes, 1–2 lines): every reachable global state is
checked against the machine-wide invariants of
:mod:`repro.analysis.invariants` and the no-lost-copy rule on every
relocation.  States are visited in BFS order, so the first violation's
event trace is *minimal*: the shortest interleaving that corrupts the
protocol.

The state space is tiny (≤ 4^(nodes·lines) states), so exhaustive search
is instant — the value is that *all* interleavings are covered, where the
test suite can only spot-check a handful.

Typical use::

    from repro.analysis.modelcheck import check_protocol, format_report

    report = check_protocol(n_nodes=3)
    assert report.ok, format_report(report)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.invariants import check_line_state, check_table
from repro.analysis.model import (
    MAX_STATES,
    GlobalState,
    ProtocolModel,
    StateGraph,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.coma.protocol import TRANSITIONS, Transition


def check_protocol(
    transitions: Sequence[Transition] = TRANSITIONS,
    n_nodes: int = 3,
    n_lines: int = 1,
    max_states: int = MAX_STATES,
    static: bool = True,
) -> AnalysisReport:
    """Run the static table rules and the exhaustive reachability check.

    Returns an :class:`AnalysisReport`; ``report.stats`` carries the
    explored state/transition counts, and a reachable invariant violation
    carries its minimal counterexample trace in ``Finding.detail``.
    """
    report = AnalysisReport()
    if static:
        report.findings.extend(check_table(transitions))

    model = ProtocolModel(transitions, n_nodes=n_nodes, n_lines=n_lines)
    graph = StateGraph(model, max_states)
    violation = next(filter(None, (_check_state(graph, s) for s in graph.edges)), None)
    if violation is not None:
        report.findings.append(violation)
    elif graph.truncated:
        report.findings.append(Finding(
            rule="I001",
            message=f"state-space exceeded {max_states} states — the table "
            "very likely leaks copies",
            path="model-check",
        ))
    report.stats["states"] = len(graph.parent)
    report.stats["transitions"] = graph.n_transitions
    return report


def _check_state(graph: StateGraph, state: GlobalState) -> Optional[Finding]:
    """First invariant violation in ``state``, with its trace attached."""
    for line, ls in enumerate(state):
        hit = check_line_state(ls)
        if hit is not None:
            rule, message = hit
            if line:
                message = f"line {line}: {message}"
            return Finding(
                rule=rule,
                message=message,
                path="model-check",
                detail=graph.counterexample(state),
            )
    for step in graph.model.stuck_relocations(state):
        return Finding(
            rule="I004",
            message=f"{step.describe()}: the owner must evict but no node "
            "can accept the relocation — the last copy would be dropped",
            path="model-check",
            detail=graph.counterexample(state, (step, None)),
        )
    return None


def format_report(report: AnalysisReport) -> str:
    from repro.analysis.report import format_findings

    head = (
        f"explored {report.stats.get('states', 0)} states / "
        f"{report.stats.get('transitions', 0)} transitions"
    )
    if report.ok:
        return f"protocol OK: {head}, no invariant violations"
    return f"protocol BROKEN ({head}):\n{format_findings(report.findings)}"
