"""Liveness verification for the E/O/S/I protocol (L-rules).

The reachability checker (:mod:`repro.analysis.modelcheck`) proves
*safety*: no reachable state violates the single-owner/no-lost-copy
invariants.  A protocol can satisfy all of those and still be useless —
it can wedge (no step enabled anywhere) or churn forever (the only thing
it can ever do is relocate owner lines from node to node without any
processor making progress).  This module proves two liveness properties
as queries over the same :class:`~repro.analysis.model.StateGraph`:

* **L001 — deadlock freedom.**  Every reachable global state has at
  least one out-edge.  The graph's BFS parent pointers make the first
  counterexample's event trace minimal.
* **L002 — no replacement livelock.**  Under weak fairness, the system
  must always be able to leave the *relocation-only* region: states
  whose every out-edge is an eviction.  A cycle over the graph's edges
  inside that region is an execution where the machine shuffles owner
  lines between nodes forever while no load or store can ever fire.

With the shipped table both properties hold vacuously strong: every
state enables a local read, so the relocation-only region is empty.
The value of the pass is the same as the safety checker's — a table
edit that breaks liveness is caught with a minimal trace, and the
mutation tests in ``tests/test_liveness.py`` pin the rule IDs.

(L003, relocation ping-pong at runtime, is a trace-driven watchdog in
:mod:`repro.analysis.sanitize` — it needs real capacity pressure, which
the abstract capacity-free model cannot express.)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.model import (
    MAX_STATES,
    GlobalState,
    ProtocolModel,
    StateGraph,
    Step,
    format_global_state,
)
from repro.analysis.report import AnalysisReport, Finding
from repro.coma.protocol import TRANSITIONS, Transition


def check_liveness(
    transitions: Sequence[Transition] = TRANSITIONS,
    n_nodes: int = 3,
    n_lines: int = 1,
    max_states: int = MAX_STATES,
) -> AnalysisReport:
    """Prove deadlock freedom (L001) and no replacement livelock (L002).

    Queries the breadth-first state graph, so the first deadlock found
    has a minimal event trace; livelock counterexamples report the
    shortest path into the relocation-only region plus the cycle that
    traps the machine there.
    """
    report = AnalysisReport()
    model = ProtocolModel(transitions, n_nodes=n_nodes, n_lines=n_lines)
    graph = StateGraph(model, max_states)

    if graph.truncated:
        report.findings.append(Finding(
            rule="L001",
            message=f"state-space exceeded {max_states} states before the "
            "liveness check finished — cannot prove deadlock freedom",
            path="liveness-check",
        ))

    # -- L001: deadlock freedom ----------------------------------------
    deadlocks = [s for s, out in graph.edges.items() if not out]
    if deadlocks:
        first = deadlocks[0]               # BFS order => minimal trace
        stuck = model.stuck_relocations(first)
        why = (
            "the only enabled actions are owner evictions with no willing "
            "receiver" if stuck else "no load, store, eviction or inject "
            "row applies anywhere"
        )
        report.findings.append(Finding(
            rule="L001",
            message=f"reachable deadlock: no step is enabled ({why})",
            path="liveness-check",
            detail=graph.counterexample(first),
        ))

    # -- L002: no replacement livelock ---------------------------------
    reloc_only = {
        s for s, out in graph.edges.items()
        if out and all(step.event == "evict" for step, _, _ in out)
    }
    cycle = _find_cycle(graph, reloc_only)
    if cycle is not None:
        entry, loop = cycle
        detail = [graph.counterexample(entry),
                  "relocation-only cycle from there:"]
        for step, succ in loop:
            detail.append(f"  loop: {step.describe():40s} -> "
                          f"{format_global_state(succ)}")
        report.findings.append(Finding(
            rule="L002",
            message="replacement livelock: a reachable cycle of states "
            "whose every enabled step is an eviction — under weak fairness "
            "the machine can relocate owner lines forever while no "
            "processor access is ever possible",
            path="liveness-check",
            detail="\n".join(detail),
        ))

    report.stats["states"] = len(graph.parent)
    report.stats["transitions"] = graph.n_transitions
    report.stats["deadlock_states"] = len(deadlocks)
    report.stats["relocation_only_states"] = len(reloc_only)
    return report


#: One edge of a reported cycle: the step and the state it leads to.
_LoopEdge = tuple[Step, GlobalState]


def _find_cycle(
    graph: StateGraph, reloc_only: set[GlobalState],
) -> Optional[tuple[GlobalState, list[_LoopEdge]]]:
    """First cycle inside the relocation-only region, if any.

    DFS over the graph's edges restricted to relocation-only states,
    seeded in BFS order so the reported entry state is as shallow as
    possible.  The region is tiny (empty for the shipped table; at most
    ``4^(nodes * lines)`` states for a mutated one), so plain recursion
    is fine.  Returns ``(entry_state, edges_around_the_cycle)``.
    """
    visited: set[GlobalState] = set()
    for seed in graph.edges:
        if seed not in reloc_only or seed in visited:
            continue
        found = _dfs(graph, seed, reloc_only, visited, {}, [])
        if found is not None:
            return found
    return None


def _dfs(
    graph: StateGraph,
    state: GlobalState,
    reloc_only: set[GlobalState],
    visited: set[GlobalState],
    on_path: dict[GlobalState, int],
    path: list[_LoopEdge],
) -> Optional[tuple[GlobalState, list[_LoopEdge]]]:
    on_path[state] = len(path)
    for step, succ, _ in graph.edges[state]:
        if succ not in reloc_only:
            continue
        if succ in on_path:                # back edge: cycle found
            return succ, path[on_path[succ]:] + [(step, succ)]
        if succ in visited:
            continue
        path.append((step, succ))
        found = _dfs(graph, succ, reloc_only, visited, on_path, path)
        if found is not None:
            return found
        path.pop()
    del on_path[state]
    visited.add(state)
    return None


def format_liveness_report(report: AnalysisReport) -> str:
    head = (
        f"explored {report.stats.get('states', 0)} states / "
        f"{report.stats.get('transitions', 0)} transitions, "
        f"{report.stats.get('relocation_only_states', 0)} relocation-only"
    )
    if report.ok:
        return f"liveness OK: {head}, deadlock-free, no replacement livelock"
    from repro.analysis.report import format_findings

    return f"liveness BROKEN ({head}):\n{format_findings(report.findings)}"
