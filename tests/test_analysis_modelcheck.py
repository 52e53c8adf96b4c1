"""Model checker: the shipped protocol passes; every mutation is caught."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.analysis.invariants import check_line_state, check_table
from repro.analysis.model import ProtocolModel, Step
from repro.analysis.modelcheck import check_protocol, format_report
from repro.coma.protocol import EVENTS, STATES, TRANSITIONS, Transition
from repro.coma.states import EXCLUSIVE, INVALID, OWNER, SHARED

ROW_KEYS = [(t.state, t.event) for t in TRANSITIONS]
BUS_ACTIONS = ("", "read", "read_excl", "upgrade", "replace")


def mutate(key: tuple[int, str], **changes) -> list[Transition]:
    """The shipped table with one row's fields replaced."""
    return [
        dataclasses.replace(t, **changes) if (t.state, t.event) == key else t
        for t in TRANSITIONS
    ]


#: (states, transitions) of the shipped table for every configuration
#: ``coma-sim verify`` accepts.
SHIPPED_COUNTS = {
    (2, 1): (6, 32),
    (3, 1): (15, 132),
    (4, 1): (36, 444),
    (2, 2): (36, 384),
    (3, 2): (225, 3_960),
    (4, 2): (1_296, 31_968),
}


class TestShippedProtocol:
    @pytest.mark.parametrize("nodes,lines", list(SHIPPED_COUNTS))
    def test_clean(self, nodes, lines):
        report = check_protocol(n_nodes=nodes, n_lines=lines)
        assert report.ok, format_report(report)
        states, transitions = SHIPPED_COUNTS[nodes, lines]
        assert report.stats["states"] == states
        assert report.stats["transitions"] == transitions

    def test_certified_bisimulation_states(self):
        from repro.analysis.certify import certify_machines

        assert certify_machines(n_nodes=3).stats["states"] == 45

    def test_static_rules_clean(self):
        assert check_table(TRANSITIONS) == []

    def test_three_node_exploration_is_fast(self):
        """Acceptance criterion: 3-node/1-line exploration in < 10 s."""
        t0 = time.perf_counter()
        report = check_protocol(n_nodes=3, n_lines=1)
        assert report.ok
        assert time.perf_counter() - t0 < 10.0

    def test_every_line_state_combination_reachable_is_legal(self):
        """Sanity: the reachable set contains multi-sharer states."""
        model = ProtocolModel(n_nodes=3)
        state = model.initial_state()
        state = model.apply(state, Step(0, 1, "local_read"))   # E->O, S appears
        state = model.apply(state, Step(0, 2, "local_read"))
        assert state == ((OWNER, SHARED, SHARED),)
        assert check_line_state(state[0]) is None


class TestMutationsAreCaught:
    """Corrupting any single row trips the static rules or the checker."""

    @pytest.mark.parametrize("key", ROW_KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
    def test_any_next_state_mutation(self, key):
        current = next(t for t in TRANSITIONS if (t.state, t.event) == key)
        for alt in (None, INVALID, SHARED, OWNER, EXCLUSIVE):
            if alt == current.next_state:
                continue
            report = check_protocol(mutate(key, next_state=alt), n_nodes=3)
            assert not report.ok, (
                f"mutating {key} next_state -> {alt} went undetected"
            )

    @pytest.mark.parametrize("key", ROW_KEYS, ids=lambda k: f"{k[0]}-{k[1]}")
    def test_any_bus_action_mutation(self, key):
        current = next(t for t in TRANSITIONS if (t.state, t.event) == key)
        for alt in BUS_ACTIONS:
            if alt == current.bus_action:
                continue
            report = check_protocol(mutate(key, bus_action=alt), n_nodes=3)
            assert not report.ok, (
                f"mutating {key} bus_action -> {alt!r} went undetected"
            )

    def test_sharer_dependence_must_stay_on_inject_rows(self):
        report = check_protocol(
            mutate((SHARED, "local_read"), next_state_sharers=OWNER), n_nodes=3
        )
        assert any(f.rule == "T006" for f in report.findings)

    def test_inject_sharer_state_pinned(self):
        report = check_protocol(
            mutate((INVALID, "inject"), next_state_sharers=EXCLUSIVE), n_nodes=3
        )
        assert any(f.rule == "T006" for f in report.findings)

    def test_missing_row_reported(self):
        table = [t for t in TRANSITIONS if (t.state, t.event) != (OWNER, "evict")]
        report = check_protocol(table, n_nodes=3)
        assert any(f.rule == "T001" for f in report.findings)

    def test_duplicate_row_reported(self):
        table = list(TRANSITIONS) + [TRANSITIONS[0]]
        findings = check_table(table)
        assert any(f.rule == "T001" for f in findings)


class TestDynamicDetection:
    """The reachability check catches corruption on its own (static off)."""

    def test_silent_owner_drop_loses_the_datum(self):
        table = mutate((EXCLUSIVE, "evict"), bus_action="")
        report = check_protocol(table, n_nodes=3, static=False)
        assert len(report.findings) == 1
        f = report.findings[0]
        assert f.rule == "I001"
        assert "counterexample" in f.detail

    def test_minimal_trace_for_silent_owner_drop(self):
        """BFS finds the 1-step counterexample: evict the initial E."""
        table = mutate((EXCLUSIVE, "evict"), bus_action="")
        report = check_protocol(table, n_nodes=3, static=False)
        detail = report.findings[0].detail
        assert "init: E I I" in detail
        assert "step 1" in detail and "step 2" not in detail
        assert "node 0 evict" in detail

    def test_double_owner_from_read_miss(self):
        """I + local_read -> E forks the datum; model catches what the
        'readable copy' static rule cannot."""
        table = mutate((INVALID, "local_read"), next_state=EXCLUSIVE)
        report = check_protocol(table, n_nodes=3, static=False)
        assert report.findings[0].rule in ("I001", "I003")
        assert "counterexample" in report.findings[0].detail

    def test_stale_sharer_survives_remote_write(self):
        table = mutate((SHARED, "remote_write"), next_state=SHARED)
        report = check_protocol(table, n_nodes=3, static=False)
        assert report.findings[0].rule == "I003"

    def test_unacceptable_inject_strands_the_owner(self):
        """No node can accept a relocation: I004, the no-lost-copy rule."""
        table = mutate((INVALID, "inject"), next_state=None)
        table = [
            dataclasses.replace(t, next_state=None)
            if (t.state, t.event) == (SHARED, "inject") else t
            for t in table
        ]
        report = check_protocol(table, n_nodes=3, static=False)
        assert report.findings[0].rule == "I004"
        assert "would lose the line" in report.findings[0].detail

    def test_upgrade_without_invalidation_forks_ownership(self):
        table = mutate((SHARED, "local_write"), bus_action="")
        report = check_protocol(table, n_nodes=3, static=False)
        assert report.findings[0].rule in ("I001", "I003")


class TestReportFormat:
    def test_ok_report_mentions_counts(self):
        text = format_report(check_protocol(n_nodes=3))
        assert "protocol OK" in text and "states" in text

    def test_broken_report_carries_trace(self):
        table = mutate((OWNER, "evict"), bus_action="")
        text = format_report(check_protocol(table, n_nodes=3))
        assert "protocol BROKEN" in text
        assert "counterexample trace" in text


class TestModelSemantics:
    def test_read_degrades_supplier(self):
        model = ProtocolModel(n_nodes=2)
        state = model.apply(model.initial_state(), Step(0, 1, "local_read"))
        assert state == ((OWNER, SHARED),)

    def test_write_erases_everyone_else(self):
        model = ProtocolModel(n_nodes=3)
        s = model.apply(model.initial_state(), Step(0, 1, "local_read"))
        s = model.apply(s, Step(0, 2, "local_write"))
        assert s == ((INVALID, INVALID, EXCLUSIVE),)

    def test_takeover_resolves_sharer_dependence(self):
        model = ProtocolModel(n_nodes=3)
        s = model.apply(model.initial_state(), Step(0, 1, "local_read"))
        s = model.apply(s, Step(0, 2, "local_read"))
        # owner evicts; node 1 takes over; node 2 still shares -> Owner
        s2 = model.apply(s, Step(0, 0, "evict", receiver=1))
        assert s2 == ((INVALID, OWNER, SHARED),)
        # but with only one sharer the taker ends Exclusive
        s3 = model.apply(((OWNER, SHARED, INVALID),), Step(0, 0, "evict", receiver=1))
        assert s3 == ((INVALID, EXCLUSIVE, INVALID),)

    def test_shared_evict_is_silent(self):
        model = ProtocolModel(n_nodes=2)
        s = model.apply(model.initial_state(), Step(0, 1, "local_read"))
        s = model.apply(s, Step(0, 1, "evict"))
        assert s == ((OWNER, INVALID),)

    def test_steps_exclude_disabled_events(self):
        model = ProtocolModel(n_nodes=2)
        steps = model.steps(model.initial_state())
        # node 1 is Invalid: it can read or write but not evict.
        assert Step(0, 1, "local_read") in steps
        assert all(not (s.node == 1 and s.event == "evict") for s in steps)

    def test_two_lines_are_independent(self):
        model = ProtocolModel(n_nodes=2, n_lines=2)
        s = model.apply(model.initial_state(), Step(1, 1, "local_write"))
        assert s[0] == (EXCLUSIVE, INVALID)
        assert s[1] == (INVALID, EXCLUSIVE)

    def test_table_totality_guard(self):
        assert len(ROW_KEYS) == len(STATES) * len(EVENTS)
