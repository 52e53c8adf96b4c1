"""Certification pass for the compiled protocol dispatch (C101–C104).

:mod:`repro.analysis.compile` flattens the declarative E/O/S/I table into
integer dispatch arrays; the simulator then never consults the source
table on the hot path.  That speed is only trustworthy if the compiled
artifact is *provably* the same protocol, so ``coma-sim verify`` runs
this pass over every shipped machine configuration:

=======  ==============================================================
rule     meaning
=======  ==============================================================
C101     malformed compiled artifact: wrong array shape, an entry
         outside the state/action encoding, or a machine binding
         (victim policy, flattened timing) that contradicts the
         configuration it was compiled from
C102     next-state divergence: a compiled ``(state, op, sharers)``
         entry — or a dispatch binding derived from one — disagrees
         with the source table
C103     bus-action divergence: a compiled ``(state, op)`` action
         disagrees with the source table
C104     bisimulation failure: the PR 1 model checker's reachability
         graph, replayed against compiled dispatch, diverges from the
         source table's graph (finding carries the minimal event trace)
=======  ==============================================================

C101–C103 are exhaustive over the ``4 states x 6 ops x 2 sharer``
grid — every cell is re-derived from the source table and compared, so a
stale or hand-patched artifact cannot hide.  C104 goes further: it
replays the decompiled protocol *in lockstep* against every stored edge
of the source table's :class:`~repro.analysis.model.StateGraph` for a
small configuration, so even a divergence that needs a particular
interleaving to matter is caught, with the shortest such interleaving
attached as the counterexample.

Typical use::

    from repro.analysis.certify import certify_machines, format_certification

    report = certify_machines()
    assert report.ok, format_certification(report)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.compile import (
    ACTIONS,
    EVENT_IDS,
    N_EVENTS,
    N_STATES,
    NO_NEXT,
    CompiledProtocol,
    MachineDispatch,
    compile_victim_policy,
    decompile,
)
from repro.analysis.model import MAX_STATES, ProtocolModel, StateGraph
from repro.analysis.report import AnalysisReport, Finding
from repro.coma.protocol import EVENTS, STATES, TRANSITIONS, Transition
from repro.coma.states import EXCLUSIVE, INVALID, SHARED, state_name

#: Rule documentation, mirrored into :func:`repro.analysis.report.rule_registry`.
CERTIFY_RULES = {
    "C101": "malformed compiled artifact: wrong array shape, an entry "
            "outside the state/action encoding, or a machine binding "
            "(victim policy, flattened timing) that contradicts the "
            "configuration it was compiled from",
    "C102": "next-state divergence: a compiled (state, op, sharers) entry "
            "— or a dispatch binding derived from one — disagrees with "
            "the source table",
    "C103": "bus-action divergence: a compiled (state, op) action "
            "disagrees with the source table",
    "C104": "bisimulation failure: the model checker's reachability "
            "graph, replayed against compiled dispatch, diverges from "
            "the source table's graph (minimal event trace attached)",
}

#: CompiledTiming field -> TimingConfig property it must equal.
_TIMING_FIELDS = {
    "l1_hit": "l1_hit_ns",
    "slc_hit": "slc_hit_ns",
    "slc_occ": "slc_occupancy_ns",
    "nc": "nc_ns",
    "nc_busy": "nc_busy_ns",
    "dram_lat": "dram_latency_ns",
    "dram_busy": "dram_busy_ns",
    "bus_phase": "bus_phase_ns",
    "bus_busy": "bus_busy_ns",
    "remote_overhead": "remote_overhead_ns",
}


def _cell(state: int, event: str) -> str:
    return f"({state_name(state)}, {event})"


def _st(v: Optional[int]) -> str:
    return "-" if v is None or v == NO_NEXT else state_name(v)


def _source_entry(
    table: dict[tuple[int, str], Transition], state: int, event: str
) -> tuple[Optional[int], Optional[int], str]:
    """``(next_alone, next_sharers, action)`` the source table prescribes."""
    t = table[(state, event)]
    return t.resolved(False), t.resolved(True), t.bus_action


def certify_compiled(
    compiled: CompiledProtocol,
    transitions: Sequence[Transition] = TRANSITIONS,
    path: str = "compiled-protocol",
) -> AnalysisReport:
    """Exhaustively re-derive every compiled entry from ``transitions``.

    Emits C101 for shape defects and out-of-range encodings, C102/C103
    for per-cell divergences.  ``path`` labels the findings (useful when
    several machines' artifacts are certified in one run).
    """
    report = AnalysisReport()
    findings = report.findings

    n_cells = N_STATES * N_EVENTS
    if len(compiled.next_state) != n_cells * 2 or len(compiled.action) != n_cells:
        findings.append(Finding(
            rule="C101",
            message=(
                f"dispatch arrays have the wrong shape: next_state "
                f"{len(compiled.next_state)} != {n_cells * 2} or action "
                f"{len(compiled.action)} != {n_cells}"
            ),
            path=path,
        ))
        return report  # indexing below would be meaningless

    table = {(t.state, t.event): t for t in transitions}
    checked = 0
    for state in STATES:
        for event in EVENTS:
            ev = EVENT_IDS[event]
            got_alone, got_shared, got_act = compiled.entry(state, ev)
            for label, got in (("", got_alone), ("+sharers", got_shared)):
                if got != NO_NEXT and got not in STATES:
                    findings.append(Finding(
                        rule="C101",
                        message=f"{_cell(state, event)}{label}: compiled "
                        f"next-state {got} is outside the E/O/S/I encoding",
                        path=path,
                    ))
            if not 0 <= got_act < len(ACTIONS):
                findings.append(Finding(
                    rule="C101",
                    message=f"{_cell(state, event)}: compiled action id "
                    f"{got_act} is outside the interned action set",
                    path=path,
                ))
                continue
            want_alone, want_shared, want_act = _source_entry(table, state, event)
            if got_alone != (NO_NEXT if want_alone is None else want_alone):
                findings.append(Finding(
                    rule="C102",
                    message=f"{_cell(state, event)}: compiled next-state "
                    f"{_st(got_alone)} but the table says {_st(want_alone)} "
                    "(no surviving sharers)",
                    path=path,
                ))
            if got_shared != (NO_NEXT if want_shared is None else want_shared):
                findings.append(Finding(
                    rule="C102",
                    message=f"{_cell(state, event)}: compiled next-state "
                    f"{_st(got_shared)} but the table says {_st(want_shared)} "
                    "(with surviving sharers)",
                    path=path,
                ))
            if ACTIONS[got_act] != want_act:
                findings.append(Finding(
                    rule="C103",
                    message=f"{_cell(state, event)}: compiled bus action "
                    f"{ACTIONS[got_act] or '-'!s} but the table says "
                    f"{want_act or '-'!s}",
                    path=path,
                ))
            checked += 1
    report.stats["entries"] = checked
    return report


def certify_bisimulation(
    compiled: CompiledProtocol,
    transitions: Sequence[Transition] = TRANSITIONS,
    n_nodes: int = 3,
    n_lines: int = 1,
    max_states: int = MAX_STATES,
    path: str = "compiled-protocol",
) -> AnalysisReport:
    """Replay the model checker's reachability graph against compiled
    dispatch (rule C104).

    ``decompile(compiled)`` is lifted to a
    :class:`~repro.analysis.model.ProtocolModel` and compared in lockstep
    with each state's stored edges in the source table's
    :class:`~repro.analysis.model.StateGraph`, in BFS order.  At each
    state the enabled-step sets must coincide and every step must
    produce the same successor; the first divergence is reported with its
    minimal event trace.
    """
    report = AnalysisReport()
    graph = StateGraph(
        ProtocolModel(transitions, n_nodes=n_nodes, n_lines=n_lines), max_states
    )
    cmp_model = ProtocolModel(
        decompile(compiled), n_nodes=n_nodes, n_lines=n_lines
    )
    n_steps = 0
    for state, out in graph.edges.items():
        ref_steps = {step for step, _, _ in out}
        cmp_steps = set(cmp_model.steps(state))
        if cmp_steps != ref_steps:
            what = []
            for verb, diff in (("disables", ref_steps - cmp_steps),
                               ("enables", cmp_steps - ref_steps)):
                if diff:
                    what.append(f"compiled dispatch {verb} " + "; ".join(
                        sorted(s.describe() for s in diff)))
            report.findings.append(Finding(
                rule="C104",
                message="bisimulation failed: " + " / ".join(what),
                path=path,
                detail=graph.counterexample(state),
            ))
            break
        for step, succ, _ in out:
            n_steps += 1
            cmp_succ = cmp_model.apply(state, step)
            if cmp_succ != succ:
                report.findings.append(Finding(
                    rule="C104",
                    message=f"bisimulation failed: after "
                    f"{step.describe()} the compiled protocol reaches a "
                    "different global state than the table (trace shows "
                    "the compiled successor)",
                    path=path,
                    detail=graph.counterexample(state, (step, cmp_succ)),
                ))
                break
        if report.findings:
            break
    report.stats["states"] = len(graph.parent)
    report.stats["lockstep_steps"] = n_steps
    return report


def certify_dispatch(
    dispatch: MachineDispatch,
    config=None,
    transitions: Sequence[Transition] = TRANSITIONS,
    n_nodes: int = 3,
    path: str = "dispatch",
) -> AnalysisReport:
    """Certify one machine's full :class:`MachineDispatch`.

    Runs C101–C103 over the compiled arrays, re-derives every flattened
    machine binding (``st_*`` / ``act_local_write`` / ``inject_*``) from
    the source table, checks the interned victim policy and timing
    constants against ``config`` (when given), and — if the artifact is
    well-shaped — replays the C104 bisimulation.
    """
    report = certify_compiled(dispatch.protocol, transitions, path=path)
    table = {(t.state, t.event): t for t in transitions}
    findings = report.findings

    def want(state: int, event: str, sharers: bool) -> int:
        nxt = table[(state, event)].resolved(sharers)
        return NO_NEXT if nxt is None else nxt

    bindings = [
        ("st_degrade_remote_read", dispatch.st_degrade_remote_read,
         EXCLUSIVE, "remote_read", False),
        ("st_upgrade", dispatch.st_upgrade, SHARED, "local_write", False),
        ("st_write_miss", dispatch.st_write_miss, INVALID, "local_write", False),
        ("st_read_fill", dispatch.st_read_fill, INVALID, "local_read", True),
        ("inject_from_invalid[0]", dispatch.inject_from_invalid[0],
         INVALID, "inject", False),
        ("inject_from_invalid[1]", dispatch.inject_from_invalid[1],
         INVALID, "inject", True),
        ("inject_from_shared[0]", dispatch.inject_from_shared[0],
         SHARED, "inject", False),
        ("inject_from_shared[1]", dispatch.inject_from_shared[1],
         SHARED, "inject", True),
    ]
    for name, got, state, event, sharers in bindings:
        expected = want(state, event, sharers)
        if got != expected:
            findings.append(Finding(
                rule="C102",
                message=f"{_cell(state, event)}: dispatch binding {name} is "
                f"{_st(got)} but the table says {_st(expected)}",
                path=path,
            ))
    for state in STATES:
        got_act = dispatch.act_local_write[state]
        want_act = table[(state, "local_write")].bus_action
        if not 0 <= got_act < len(ACTIONS) or ACTIONS[got_act] != want_act:
            findings.append(Finding(
                rule="C103",
                message=f"{_cell(state, 'local_write')}: dispatch binding "
                f"act_local_write is {got_act} but the table says "
                f"{want_act or '-'!s}",
                path=path,
            ))

    if config is not None:
        mode = compile_victim_policy(config)
        if dispatch.victim_mode != mode:
            findings.append(Finding(
                rule="C101",
                message=f"interned victim policy {dispatch.victim_mode} does "
                f"not match the configuration "
                f"(am_victim_policy={config.am_victim_policy!r}, "
                f"inclusive={config.inclusive} -> {mode})",
                path=path,
            ))
        for field, prop in _TIMING_FIELDS.items():
            got = getattr(dispatch.timing, field)
            expected = getattr(config.timing, prop)
            if got != expected:
                findings.append(Finding(
                    rule="C101",
                    message=f"flattened timing constant {field}={got} "
                    f"diverged from TimingConfig.{prop}={expected}",
                    path=path,
                ))

    shape_ok = not any(f.rule == "C101" for f in findings)
    if shape_ok:
        report.extend(certify_bisimulation(
            dispatch.protocol, transitions, n_nodes=n_nodes, path=path,
        ))
    return report


def certify_machines(n_nodes: int = 3) -> AnalysisReport:
    """Certify the dispatch artifact of every shipped machine flavour.

    The protocol arrays are configuration-independent, but the victim
    policy and timing interning are not, so each flavour — the paper
    default, the non-inclusive section 4.2 extension and the state-blind
    LRU ablation — is compiled and certified separately.
    """
    from repro.analysis.compile import build_dispatch
    from repro.common.config import MachineConfig

    flavours = [
        ("coma", MachineConfig()),
        ("coma-noninclusive", MachineConfig(inclusive=False)),
        ("coma-lru", MachineConfig(am_victim_policy="lru")),
    ]
    report = AnalysisReport()
    for name, config in flavours:
        report.extend(certify_dispatch(
            build_dispatch(config), config, n_nodes=n_nodes,
            path=f"dispatch:{name}",
        ))
    report.stats["machines"] = len(flavours)
    return report


def format_certification(report: AnalysisReport) -> str:
    from repro.analysis.report import format_findings

    head = (
        f"{report.stats.get('machines', 0)} machine flavour(s), "
        f"{report.stats.get('entries', 0)} table entries re-derived, "
        f"{report.stats.get('states', 0)} bisimulation states"
    )
    if report.ok:
        return f"certification OK: {head} — compiled dispatch == source table"
    return (
        f"certification FAILED ({head}):\n"
        + format_findings(report.findings)
    )
