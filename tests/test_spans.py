"""Causal spans: conservation, zero overhead off, attribution, timeline."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest
from tests.conftest import make_machine

from repro.common.errors import SimulationError
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import sink as sink_mod
from repro.obs import spans as spans_mod
from repro.obs.chrometrace import ChromeTraceSink, validate_trace_events
from repro.obs.events import SpanEvent, record_to_event
from repro.obs.jsonl import JsonlTraceSink
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    to_openmetrics,
)
from repro.obs.sink import CollectorSink, TeeSink
from repro.obs.spans import (
    SpanBuilder,
    StallAttribution,
    format_attribution,
    format_span_tree,
)
from repro.obs.timeline import TimelineSampler
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace

SPEC = RunSpec(workload="synth_migratory", scale=0.05, n_processors=4)

# The certified machine flavours (protocol compiler targets): every one
# must conserve cycles span-by-span.
FLAVOURS = {
    "coma": {},
    "coma-noninclusive": {"inclusive": False},
    "coma-lru": {"am_victim_policy": "lru"},
}

LINE = 64


class _WantsSpans(CollectorSink):
    wants_spans = True


def _exercise(m) -> None:
    """A mixed access pattern: L1/SLC/AM hits, remote reads, upgrades,
    write misses and enough conflict to trigger relocations."""
    t = 0
    for k in range(120):
        p = k % m.config.n_processors
        t, _ = m.read(p, (k % 24) * LINE, t + 10)
        t = m.write(p, ((k * 7) % 24) * LINE, t + 10)
        if k % 5 == 0:
            t, _ = m.rmw(p, (k % 6) * LINE, t + 10)
        if k % 7 == 0:
            t, _ = m.write_stalling(p, ((k * 5) % 24) * LINE, t + 10)


def _roots_and_children(sink):
    spans = sink.of_kind("span")
    roots = [e for e in spans if e.parent_id == 0]
    children = [e for e in spans if e.parent_id != 0]
    return roots, children


class TestConservation:
    @pytest.mark.parametrize("flavour", sorted(FLAVOURS))
    def test_every_child_sum_equals_root(self, flavour):
        m = make_machine(**FLAVOURS[flavour])
        sink = _WantsSpans()
        m.set_trace(sink)
        _exercise(m)
        roots, children = _roots_and_children(sink)
        assert roots, "no spans emitted"
        by_trace: dict[int, int] = {}
        for c in children:
            by_trace[c.trace_id] = by_trace.get(c.trace_id, 0) + c.dur_ns
        for r in roots:
            assert by_trace.get(r.trace_id, 0) == r.dur_ns, (
                f"{flavour}: trace {r.trace_id} children sum to "
                f"{by_trace.get(r.trace_id, 0)}, root is {r.dur_ns}"
            )

    @pytest.mark.parametrize("flavour", sorted(FLAVOURS))
    def test_attribution_conserves(self, flavour):
        m = make_machine(**FLAVOURS[flavour])
        att = StallAttribution()
        m.set_trace(att)
        _exercise(m)
        assert att.accesses > 0
        assert att.conservation_errors() == []

    def test_children_tile_the_root_interval(self):
        """Children are adjacent, ordered cuts of [issue, completion]."""
        m = make_machine()
        sink = _WantsSpans()
        m.set_trace(sink)
        _exercise(m)
        roots, children = _roots_and_children(sink)
        kids: dict[int, list] = {}
        for c in children:
            kids.setdefault(c.trace_id, []).append(c)
        for r in roots:
            cursor = r.t
            # Zero-latency accesses (L1 hits) legally have no children.
            for c in kids.get(r.trace_id, ()):
                assert c.t == cursor
                assert c.dur_ns > 0
                cursor += c.dur_ns
            assert cursor == r.t + r.dur_ns

    def test_simulation_run_conserves_and_sums_to_clock(self):
        att = StallAttribution()
        sim = build_simulation(SPEC)
        sim.attach(att)
        result = sim.run()
        assert att.conservation_errors() == []
        # The kernel's stall accounting is the clock-level ground truth.
        report = att.report(stalls=result.stalls,
                            elapsed_ns=result.elapsed_ns)
        for proc, acct in zip(sim.procs, report["stall_accounting"]):
            assert acct["total_ns"] == proc.clock

    def test_hierarchical_machine_conserves(self):
        att = StallAttribution()
        sim = build_simulation(
            RunSpec(workload="synth_uniform", scale=0.1, machine="hcoma",
                    n_processors=16, procs_per_node=4)
        )
        sim.attach(att)
        sim.run()
        assert att.accesses > 0
        assert att.conservation_errors() == []
        # Hierarchical phases actually show up in the breakdown.
        names = set()
        for by_op in att.phase_ns.values():
            for phases in by_op.values():
                names.update(phases)
        assert names & {"gbus_req", "tbus_req", "dir_lookup"}


class TestZeroOverheadOff:
    def test_disabled_run_never_builds_a_span(self, monkeypatch):
        """Poisoned-mutator proof: with no span-wanting sink attached, a
        traced run must not build a SpanBuilder or run one of its
        methods — the checkpoints land on the sink's no-op entry points."""

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("span recorded on a spans-off run")

        for name, attr in list(vars(SpanBuilder).items()):
            if callable(attr):
                monkeypatch.setattr(SpanBuilder, name, boom)
        sink = CollectorSink()
        sim = build_simulation(SPEC)
        sim.machine.set_trace(sink)  # tracing on, spans off
        result = sim.run()
        assert result.elapsed_ns > 0
        assert sim.machine.trace is sink
        assert sink.events and not sink.of_kind("span")

    def test_detaching_span_sink_restores_byte_identical_traces(self):
        def jsonl(extra_sink) -> str:
            buf = io.StringIO()
            sink = JsonlTraceSink(buf)
            sim = build_simulation(SPEC)
            tee = TeeSink(sink, extra_sink) if extra_sink else sink
            sim.machine.set_trace(tee)
            sim.run()
            return buf.getvalue()

        plain = jsonl(None)
        with_spans = jsonl(StallAttribution())
        detached = jsonl(None)
        assert plain == detached
        assert '"ev":"span"' not in plain
        # With a span-wanting sink teed in, the shared stream grows.
        assert '"ev":"span"' in with_spans

    def test_attribution_folds_without_building_span_events(
            self, monkeypatch):
        """With no exemplars kept, the attribution folds every span from
        its fields: building a SpanEvent at all is a failure."""

        def boom(*a, **k):  # pragma: no cover - must never run
            raise AssertionError("SpanEvent built with top_spans=0")

        for mod in (sink_mod, spans_mod):
            monkeypatch.setattr(mod, "SpanEvent", boom)
        att = StallAttribution(top_spans=0)
        sim = build_simulation(SPEC)
        sim.attach(att)
        sim.run()
        assert att.accesses > 0
        assert att.conservation_errors() == []
        assert att.slowest_spans() == []

    def test_only_retained_exemplars_build_span_events(self, monkeypatch):
        built = []

        def counting(*a, **k):
            built.append(SpanEvent(*a, **k))
            return built[-1]

        for mod in (sink_mod, spans_mod):
            monkeypatch.setattr(mod, "SpanEvent", counting)
        att = StallAttribution(top_spans=3)
        sim = build_simulation(SPEC)
        sim.attach(att)
        sim.run()
        trees = att.slowest_spans()
        assert len(trees) == 3
        for tree in trees:
            assert tree[0].parent_id == 0
            assert all(c.trace_id == tree[0].trace_id for c in tree[1:])
            assert sum(c.dur_ns for c in tree[1:]) == tree[0].dur_ns
        # Roots that entered the heap (and their children) only: far
        # fewer objects than accesses.
        assert 0 < len(built) < att.accesses

    def test_tee_wants_spans_if_any_child_does(self):
        m = make_machine()
        plain = TeeSink(CollectorSink(), CollectorSink())
        m.set_trace(plain)
        assert m.trace is plain
        tee = TeeSink(CollectorSink(), StallAttribution())
        m.set_trace(tee)
        # The builder filters the machine's stream only; buses emit
        # straight into the sink.
        assert isinstance(m.trace, SpanBuilder) and m.trace.sink is tee
        assert m.bus.trace is tee
        builder = m.trace
        m.set_trace(tee)
        assert m.trace is builder  # re-attaching keeps the id counters

    def test_builder_and_counters_survive_a_growing_tee(self):
        sim = build_simulation(SPEC)
        sim.attach(StallAttribution())
        builder = sim.machine.trace
        assert isinstance(builder, SpanBuilder)
        builder._next_trace, builder._next_span = 7, 19
        sim.attach(MetricsRegistry())
        sim.attach(_WantsSpans())
        assert sim.machine.trace is builder
        assert (builder._next_trace, builder._next_span) == (7, 19)
        tee = builder.sink
        assert isinstance(tee, TeeSink) and len(tee.sinks) == 3
        assert sim.machine.bus.trace is tee
        # Forwarded entry points follow the builder to the grown tee.
        assert builder.tree == tee.tree and builder.sync == tee.sync

    def test_tee_hands_trees_to_span_consumers_only(self):
        """``tree`` reaches the attribution's fold and the collector's
        default span loop; the metrics sink, which ignores spans, is
        left out of the binding."""
        machine = build_simulation(SPEC).machine
        metrics = MetricsSink(MetricsRegistry(), machine)
        att = StallAttribution(top_spans=1)
        col = _WantsSpans()
        assert TeeSink(metrics, att).tree == att.tree
        assert TeeSink(col, metrics).tree == col.tree
        tee = TeeSink(metrics, att, col)
        tee.tree(100, 160, 1, 1, 2, 0x40, "r", "remote", 1,
                 ["bus_arb", "remote"], [120, 160])
        assert att.accesses == 1
        assert att.report()["per_proc"][0]["phases"] == {
            "r": {"bus_arb": 20, "remote": 40}}
        assert [(e.span_id, e.parent_id, e.name, e.t, e.dur_ns)
                for e in col.events] == [
            (1, 0, "access", 100, 60), (2, 1, "bus_arb", 100, 20),
            (3, 1, "remote", 120, 40)]
        assert att.slowest_spans() == [col.events]


class TestSpanEvents:
    def test_round_trip_through_records(self):
        ev = SpanEvent(t=5, dur_ns=40, trace_id=3, span_id=7, parent_id=6,
                       name="bus_arb", proc=2, line=0x40, op="r",
                       level="remote", relocs=1)
        rec = ev.to_record()
        assert record_to_event(json.loads(json.dumps(rec))) == ev

    def test_chrome_trace_spans_and_flows_validate(self, tmp_path):
        path = tmp_path / "trace.json"
        ct = ChromeTraceSink(str(path))
        ct.wants_spans = True
        sim = build_simulation(SPEC)
        sim.machine.set_trace(ct)
        sim.run()
        ct.close()
        doc = json.loads(path.read_text())
        assert validate_trace_events(doc) == []
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "s", "t"} <= phs  # span slices + flow arrows

    def test_validator_rejects_flow_without_id(self):
        doc = {"traceEvents": [
            {"ph": "s", "pid": 1, "tid": 0, "ts": 1, "name": "f"},
        ]}
        assert validate_trace_events(doc) != []


class TestStallAttribution:
    def _run(self, top_spans=4):
        att = StallAttribution(top_spans=top_spans)
        sim = build_simulation(SPEC)
        sim.attach(att)
        result = sim.run()
        return att, result

    def test_report_and_rendering(self):
        att, result = self._run()
        report = att.report(stalls=result.stalls,
                            elapsed_ns=result.elapsed_ns)
        assert report["accesses"] == att.accesses
        assert report["conservation_errors"] == []
        assert report["per_proc"][0]["phases"]
        assert report["top_lines"]
        assert len(report["top_spans"]) == 4
        text = format_attribution(report)
        assert "conservation: OK" in text
        assert "kernel stall accounting" in text

    def test_slowest_spans_are_the_global_tail(self):
        att, _ = self._run(top_spans=3)
        trees = att.slowest_spans()
        assert len(trees) == 3
        durs = [t[0].dur_ns for t in trees]
        assert durs == sorted(durs, reverse=True)
        # Trees are complete: children conserve the root.
        for tree in trees:
            assert sum(c.dur_ns for c in tree[1:]) == tree[0].dur_ns
        text = format_span_tree(trees[0])
        assert f"trace {trees[0][0].trace_id}:" in text

    def test_workload_phases_delimited_by_barriers(self):
        att, _ = self._run()
        report = att.report()
        assert len(report["per_workload_phase"]) > 1

    def test_openmetrics_exemplars_round_trip(self):
        att, _ = self._run()
        text = to_openmetrics(att.registry, exemplars=att.exemplars())
        assert " # {" in text
        # Exemplars are comments per the exposition format: parsing the
        # text must still reproduce the histogram series exactly.
        assert parse_openmetrics(text) == parse_openmetrics(
            to_openmetrics(att.registry)
        )

    def test_openmetrics_render_byte_identical_with_exemplars(self):
        # Capture exemplars during the parse and feed them back into the
        # renderer: the output must reproduce the exporter's exposition
        # byte for byte, exemplar annotations included.
        att, _ = self._run()
        text = to_openmetrics(att.registry, exemplars=att.exemplars())
        assert " # {" in text
        captured: dict = {}
        families = parse_openmetrics(text, captured)
        assert captured  # the exemplar lines were actually captured
        assert render_openmetrics(families, captured) == text

    def test_deterministic(self):
        a, ra = self._run()
        b, rb = self._run()
        assert a.report(stalls=ra.stalls) == b.report(stalls=rb.stalls)


class TestOneFold:
    """Live spans and replayed span events go through the same fold."""

    @staticmethod
    def _live_and_replayed(spec: RunSpec, top_spans: int):
        live = StallAttribution(top_spans=top_spans)
        collected = _WantsSpans()
        sim = build_simulation(spec)
        sim.attach(live)
        sim.attach(collected)
        sim.run()
        replayed = StallAttribution(top_spans=top_spans)
        for ev in collected.events:
            replayed.emit(ev)
        assert live.accesses > 0
        return live, replayed

    @pytest.mark.parametrize("top_spans", [0, 3, 10])
    @pytest.mark.parametrize("machine", ["coma", "hcoma", "numa"])
    def test_replayed_events_report_equal(self, machine, top_spans):
        live, replayed = self._live_and_replayed(
            RunSpec(workload="synth_migratory", scale=0.05, machine=machine,
                    n_processors=16, procs_per_node=4), top_spans)
        assert replayed.report() == live.report()
        assert replayed.exemplars() == live.exemplars()

    @pytest.mark.parametrize("top_spans", [0, 3])
    def test_replay_flushes_the_pending_tree_at_barriers(self, top_spans):
        """ocean_contig crosses a barrier every few accesses per processor:
        a replayed tree still pending at an arrival must fold into the
        workload phase before it, as it does live."""
        live, replayed = self._live_and_replayed(
            RunSpec(workload="ocean_contig", scale=0.05, procs_per_node=4),
            top_spans)
        report = live.report()
        assert len(report["per_workload_phase"]) > 10
        assert replayed.report() == report
        assert replayed.exemplars() == live.exemplars()
        assert (to_openmetrics(replayed.registry)
                == to_openmetrics(live.registry))

    def test_replay_folds_each_childs_own_duration(self):
        """A replayed child one ns short leaves a gap before its sibling:
        its phase takes its own duration and conservation reports the
        missing ns, as a per-span fold would."""
        live = StallAttribution()
        collected = _WantsSpans()
        sim = build_simulation(SPEC)
        sim.attach(live)
        sim.attach(collected)
        sim.run()
        events = list(collected.events)
        i = next(i for i, (ev, nxt) in enumerate(zip(events, events[1:]))
                 if ev.kind == nxt.kind == "span" and ev.parent_id
                 and nxt.parent_id == ev.parent_id and ev.dur_ns > 1)
        short = events[i] = dataclasses.replace(events[i],
                                                dur_ns=events[i].dur_ns - 1)
        replayed = StallAttribution()
        for ev in events:
            replayed.emit(ev)
        phases = replayed.phase_ns[short.proc][short.op]
        assert phases[short.name] == (
            live.phase_ns[short.proc][short.op][short.name] - 1)
        assert replayed.conservation_errors() == [
            f"P{short.proc} {short.op}: phases sum to "
            f"{sum(phases.values())} ns, roots total "
            f"{live.root_ns[short.proc][short.op]} ns"]

    def test_close_completes_the_public_sums_of_a_replay(self):
        live = StallAttribution(top_spans=3)
        collected = _WantsSpans()
        sim = build_simulation(SPEC)
        sim.attach(live)
        sim.attach(collected)
        sim.run()
        events = collected.events
        last = max(i for i, ev in enumerate(events) if ev.kind == "span")
        replayed = StallAttribution(top_spans=3)
        for ev in events[:last + 1]:
            replayed.emit(ev)
        # The last tree waits for a next root or a barrier, neither of
        # which comes; close() folds it.
        assert replayed.accesses == live.accesses - 1
        replayed.close()
        for name in ("accesses", "root_ns", "phase_ns", "line_ns",
                     "wphase_ns", "reloc_count"):
            assert getattr(replayed, name) == getattr(live, name), name


class TestTimelineSampler:
    def _run(self, **kw):
        tl = TimelineSampler(**kw)
        sim = build_simulation(SPEC)
        sim.attach(tl, every=500)
        sim.run()
        return tl

    def test_samples_rectangular_and_monotone(self):
        tl = self._run()
        assert len(tl.t) >= 2
        assert tl.t == sorted(tl.t)
        for name, col in tl.cols.items():
            assert len(col) == len(tl.t), name
        assert "bus_busy_ns" in tl.cols and "am_occupancy" in tl.cols

    def test_series_and_json(self):
        tl = self._run()
        series = tl.series()
        assert len(series) == len(tl.t) - 1
        for win in series:
            assert 0.0 <= win["bus_utilization"] <= 1.0
        doc = json.loads(json.dumps(tl.to_json()))
        assert doc["samples"] == len(tl.t)
        assert sorted(doc["columns"]) == sorted(tl.cols)

    def test_interval_thins_samples(self):
        dense = self._run()
        sparse = self._run(interval_ns=10 * (dense.t[-1] - dense.t[0]))
        assert len(sparse.t) < len(dense.t)

    def test_registry_columns(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tl = TimelineSampler(registry=registry)
        sim = build_simulation(SPEC)
        sim.attach(registry)
        sim.attach(tl, every=500)
        sim.run()
        assert "bus_transactions{bus,read}" in tl.cols

    def test_perfetto_counter_events_validate(self):
        tl = self._run()
        events = tl.perfetto_events()
        assert validate_trace_events({"traceEvents": events}) == []
        assert any(e["ph"] == "C" and e["name"] == "bus_utilization"
                   for e in events)


class TestFlightDumpSpanStack:
    def test_open_span_stack_rides_the_flight_dump(self):
        from repro.obs.flight import FlightRecorder

        m = make_machine()
        fr = FlightRecorder(capacity=16)
        fr.wants_spans = True
        m.set_trace(fr)
        # Leave an access open, as a mid-access crash would.
        m.trace.begin(100, 2, "w", 0x9, addr=0x240)
        m.trace.phase("bus_arb", 140)

        def rogue():
            yield ("u", 0)  # releases a lock it never acquired

        sim = Simulation(m, [rogue()], SyncSpace(m.space, 64, 1, 0))
        with pytest.raises(SimulationError) as err:
            sim.run()
        dump = err.value.flight_dump
        assert "open span stack" in dump
        assert "P2 w line 0x9" in dump
        assert "bus_arb" in dump

    def test_builder_stack_text_empty_when_idle(self):
        b = SpanBuilder(CollectorSink())
        assert b.open_stack_text() == ""

    def test_builder_stack_text_derives_phase_starts(self):
        # Each phase starts where the previous one ended (the first at
        # t0); a zero-duration checkpoint adds no row.
        b = SpanBuilder(CollectorSink())
        b.begin(100, 2, "w", 0x9, addr=0x240)
        b.phase("bus_arb", 140)
        b.phase("am_lookup", 140)
        b.phase("transfer", 175)
        b.note_relocation()
        assert b.open_stack_text() == (
            "=== open span stack ===\n"
            "P2 w line 0x9 issued at 100 ns\n"
            "  bus_arb      100..140 (+40 ns)\n"
            "  transfer     140..175 (+35 ns)\n"
            "  (in flight since 175 ns, 1 relocation(s) so far)"
        )


class TestAttributeCli:
    def test_attribute_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "att.json"
        rc = main(["attribute", "synth_migratory", "--scale", "0.05",
                   "--format", "json", "--top-spans", "2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["conservation_errors"] == []
        assert report["accesses"] > 0
        assert len(report["top_spans"]) == 2
        assert report["stall_accounting"]

    def test_trace_spans_timeline_perfetto(self, tmp_path):
        from repro.cli import main

        chrome = tmp_path / "t.json"
        tl = tmp_path / "tl.json"
        rc = main(["trace", "synth_migratory", "--scale", "0.05",
                   "--chrome", str(chrome), "--spans",
                   "--timeline", str(tl)])
        assert rc == 0
        doc = json.loads(chrome.read_text())
        assert validate_trace_events(doc) == []
        evs = doc["traceEvents"]
        assert any(e.get("cat") == "span" for e in evs)
        assert any(e["ph"] == "C" for e in evs)
        assert json.loads(tl.read_text())["samples"] >= 2

    def test_explain_slowest_narrates_span_trees(self, capsys):
        from repro.cli import main

        rc = main(["explain", "synth_migratory", "--scale", "0.05",
                   "--slowest", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slowest access(es)" in out
        assert "trace " in out
