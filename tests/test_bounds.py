"""Static latency bounds (B101–B103): symbolic paths, envelopes,
certification against live span trees, and the mutation gate."""

from __future__ import annotations

import pytest

from repro.analysis.bounds import (
    BOUNDS_RULES,
    BoundsCertifier,
    Expr,
    PathTemplate,
    bound_table,
    certify_bounds,
    enumerate_paths,
    envelope_for,
    format_bounds,
    timing_params,
)
from repro.common.config import TimingConfig
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.events import SpanEvent

FLAVOURS = ("coma", "hcoma", "numa")


def _spec(wl: str, machine: str = "coma", mp: float = 0.5) -> RunSpec:
    return RunSpec(workload=wl, machine=machine, memory_pressure=mp,
                   scale=0.1)


class TestExpr:
    def test_addition_merges_terms(self):
        e = Expr.of("nc", "nc", const=4) + Expr.of("nc", "dram_lat")
        assert e.render() == "3*nc + dram_lat + 4"

    def test_evaluate_matches_timing(self):
        params = timing_params(TimingConfig())
        e = Expr.of("nc", "nc", "dram_lat")
        assert e.evaluate(params) == 2 * 24 + 100

    def test_equality_and_hash(self):
        assert Expr.of("nc") == Expr.of("nc")
        assert Expr.of("nc") != Expr.of("nc", const=1)
        assert hash(Expr.of("bus_phase")) == hash(Expr.of("bus_phase"))

    def test_render_constant_only(self):
        assert Expr(const=7).render() == "7"
        assert Expr().render() == "0"


class TestEnumeration:
    def test_every_flavour_enumerates(self):
        for flavour in FLAVOURS:
            paths = enumerate_paths(flavour)
            assert paths, flavour
            assert all(isinstance(p, PathTemplate) for p in paths)

    def test_coma_totals_match_paper_constants(self):
        """The symbolic minima, evaluated at the default timing, must
        reproduce the paper's contention-free latencies (section 3.2)."""
        timing = TimingConfig()
        params = timing_params(timing)
        rows = {(r.op, r.level, r.state): r
                for r in bound_table("coma", timing)}
        # The remote-read class covers two templates: the cached fetch
        # (with its fill_dram leg, 332 ns) and the uncached fallback
        # (232 ns); the table row keeps the class-wide minimum.
        remote_reads = [p for p in enumerate_paths("coma")
                        if p.op == "r" and p.level == "remote"
                        and p.state == "I"]
        mins = sorted(p.min_.evaluate(params) for p in remote_reads)
        assert timing.remote_ns in mins
        assert rows[("r", "remote", "I")].min_ns == min(mins)
        assert min(mins) == timing.remote_ns - timing.dram_latency_ns
        # attraction-memory hit: 148 ns
        assert rows[("r", "am", "E")].min_ns == timing.am_hit_ns
        # SLC hit: 32 ns
        assert rows[("r", "slc", "E")].min_ns == timing.slc_hit_ns

    def test_min_never_exceeds_max(self):
        timing = TimingConfig()
        for flavour in FLAVOURS:
            for row in bound_table(flavour, timing):
                if row.max_ns is not None:
                    assert row.min_ns <= row.max_ns, row

    def test_format_renders_all_rows(self):
        rows = bound_table("coma", TimingConfig())
        text = format_bounds(rows, "coma")
        assert "remote" in text and "unbounded" in text

    def test_hcoma_has_cross_group_paths(self):
        names = {seg.name for p in enumerate_paths("hcoma")
                 for seg in p.segments}
        assert "tbus_req" in names and "dir_lookup" in names

    def test_numa_has_upgrade_then_miss_path(self):
        paths = [p for p in enumerate_paths("numa")
                 if p.op == "w" and p.state == "S" and p.level == "remote"]
        assert paths
        assert any("upgrade_bus" in p.names() for p in paths)


class TestCertificationClean:
    @pytest.mark.parametrize("machine", FLAVOURS)
    def test_synthetics_certify_clean(self, machine):
        for wl in ("synth_migratory", "synth_producer_consumer"):
            sim = build_simulation(_spec(wl, machine))
            cert = certify_bounds(sim, machine)
            assert cert.ok(), (machine, wl, cert.counts(),
                               [f.message for f in cert.findings])
            assert cert.checked > 0

    @pytest.mark.parametrize("mp", [0.0625, 0.875])
    def test_splash_kernel_certifies_at_paper_pressures(self, mp):
        sim = build_simulation(_spec("fft", "coma", mp))
        cert = certify_bounds(sim, "coma")
        assert cert.ok(), cert.counts()


class TestMutationGate:
    def test_perturbed_bus_phase_fires_b101_with_witness(self):
        """The acceptance-criteria mutation: one timing constant nudged
        on the live machine (envelope built from the unperturbed config)
        must produce a B101 finding with a minimal witness."""
        sim = build_simulation(_spec("synth_migratory"))
        cert = BoundsCertifier(
            envelope_for("coma", sim.machine.config.timing))
        sim.machine.bus._phase_ns += 8
        sim.attach(cert)
        sim.run()
        cert.finalize()
        counts = cert.counts()
        assert counts["B101"] > 0
        f = cert.findings[0]
        assert f.rule == "B101"
        assert "static max" in f.message
        assert "closest static path" in f.detail

    def test_shortened_remote_tail_fires_b102(self):
        sim = build_simulation(_spec("synth_migratory"))
        cert = BoundsCertifier(
            envelope_for("coma", sim.machine.config.timing))
        assert sim.machine._t_remote > 10
        sim.machine._t_remote -= 10
        sim.attach(cert)
        sim.run()
        cert.finalize()
        assert cert.counts()["B102"] > 0

    def test_unknown_phase_sequence_fires_b103(self):
        cert = BoundsCertifier(envelope_for("coma", TimingConfig()))
        root = SpanEvent(t=0, dur_ns=100, trace_id=1, span_id=1,
                         parent_id=0, name="access", proc=0, line=0,
                         op="r", level="remote")
        child = SpanEvent(t=0, dur_ns=100, trace_id=1, span_id=2,
                          parent_id=1, name="warp_drive", proc=0, line=0,
                          op="r", level="remote")
        cert.emit(root)
        cert.emit(child)
        cert.finalize()
        assert cert.counts()["B103"] == 1
        assert "warp_drive" in cert.findings[0].detail

    def test_witness_cap_respected(self):
        cert = BoundsCertifier(envelope_for("coma", TimingConfig()),
                               max_witnesses=2)
        for i in range(5):
            root = SpanEvent(t=0, dur_ns=1, trace_id=i + 1, span_id=1,
                             parent_id=0, name="access", proc=0, line=0,
                             op="r", level="remote")
            child = SpanEvent(t=0, dur_ns=1, trace_id=i + 1, span_id=2,
                              parent_id=1, name="bogus", proc=0, line=0,
                              op="r", level="remote")
            cert.emit(root)
            cert.emit(child)
        cert.finalize()
        assert cert.counts()["B103"] == 5
        assert len(cert.findings) == 2


class TestTreeIntake:
    """Live ``tree`` calls and replayed span events check the same way."""

    @pytest.mark.parametrize("perturb", [False, True])
    @pytest.mark.parametrize("machine", FLAVOURS)
    def test_replayed_events_report_equal(self, machine, perturb):
        from repro.obs.sink import CollectorSink

        sim = build_simulation(_spec("synth_migratory", machine))
        timing = sim.machine.config.timing
        live = BoundsCertifier(envelope_for(machine, timing))
        collected = CollectorSink()
        collected.wants_spans = True
        if perturb:
            sim.machine.bus._phase_ns += 8  # B101 witnesses on every flavour
        sim.attach(live)
        sim.attach(collected)
        sim.run()
        live.finalize()
        replayed = BoundsCertifier(envelope_for(machine, timing))
        for ev in collected.events:
            replayed.emit(ev)
        replayed.finalize()
        assert live.checked == len(collected.of_kind("access")) > 0
        assert replayed.report() == live.report()
        assert live.ok() is not perturb

    def test_clean_run_builds_no_span_events(self, monkeypatch):
        """Only a violating tree is rebuilt as SpanEvent objects."""
        from repro.obs import sink as sink_mod
        from repro.obs import spans as spans_mod

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("SpanEvent built for a clean tree")

        for mod in (sink_mod, spans_mod):
            monkeypatch.setattr(mod, "SpanEvent", boom)
        cert = certify_bounds(build_simulation(_spec("synth_migratory")),
                              "coma")
        assert cert.ok() and cert.checked > 0


class TestReportShape:
    def test_report_is_json_ready(self):
        import json

        sim = build_simulation(_spec("synth_private"))
        cert = certify_bounds(sim, "coma")
        payload = json.dumps(cert.report(), sort_keys=True)
        assert "spans_checked" in payload

    def test_rules_registered(self):
        from repro.analysis.report import rule_registry

        registry = rule_registry()
        for rule in BOUNDS_RULES:
            assert rule in registry
