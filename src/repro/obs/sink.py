"""The :class:`TraceSink` receiver interface.

Machines, buses, the replacement engine and the simulation kernel hold
one ``trace`` attribute that is ``None`` by default; every emission site
is guarded by a single

    if trace is not None:
        trace.access(...)

so a disabled trace costs one attribute load and an ``is``-check on the
hot path — no event objects are ever allocated.  When a sink is attached
(:meth:`repro.coma.machine.ComaMachine.set_trace`), the typed entry
points below build the event dataclasses and route them through
:meth:`TraceSink.emit`, which is the one method concrete sinks implement.

Every observer rides this one stream: the metrics registry tees in a
:class:`repro.obs.metrics.MetricsSink`, and span trees come from a
:class:`repro.obs.spans.SpanBuilder` that ``set_trace`` puts in front of
a sink asking for them (``wants_spans``).  Facts no event carries — the
span checkpoints, per-bus-phase arbitration wait and occupancy, the
end-of-run totals — are entry points too, no-ops unless a sink
overrides them, so the JSONL/Chrome/flight outputs never see them.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    BusTx,
    MemAccess,
    Replacement,
    SpanEvent,
    SyncOp,
    SyncStall,
    Transition,
)


def ignored(self, *args, **kwargs) -> None:
    """An entry point whose events the sink does not consume (assign it
    over a typed method to skip building the event object)."""


class TraceSink:
    """Base sink: typed entry points funnel into :meth:`emit`."""

    #: Span emission is opt-in: building a span tree per access costs
    #: allocations the classic flat events avoid, so the machine only
    #: puts a :class:`repro.obs.spans.SpanBuilder` in front of a sink
    #: that asks for it.  Sinks that consume span events set this True
    #: (class attribute or per instance).
    wants_spans = False

    # -- emission API used by the instrumented machines ----------------

    def access(self, t: int, proc: int, op: str, line: int,
               level: str, latency_ns: int, addr: int = -1) -> None:
        self.emit(MemAccess(t, proc, op, line, level, latency_ns, addr))

    def transition(self, t: int, node: int, line: int, cause: str,
                   before: str, after: str) -> None:
        self.emit(Transition(t, node, line, cause, before, after))

    def bus(self, t: int, bus: str, tx: str, cls: str, nbytes: int,
            origin: int, line: int) -> None:
        self.emit(BusTx(t, bus, tx, cls, nbytes, origin, line))

    def replacement(self, t: int, src: int, dst: int, line: int,
                    outcome: str, hops: int) -> None:
        self.emit(Replacement(t, src, dst, line, outcome, hops))

    def sync(self, t: int, proc: int, primitive: str, obj: int,
             wait_ns: int) -> None:
        self.emit(SyncStall(t, proc, primitive, obj, wait_ns))

    def syncop(self, t: int, proc: int, op: str, primitive: str,
               obj: int) -> None:
        self.emit(SyncOp(t, proc, op, primitive, obj))

    def span(self, t: int, dur_ns: int, trace_id: int, span_id: int,
             parent_id: int, name: str, proc: int, line: int, op: str,
             level: str, relocs: int = 0) -> None:
        self.emit(SpanEvent(t, dur_ns, trace_id, span_id, parent_id,
                            name, proc, line, op, level, relocs))

    # -- facts no event carries (no-ops unless a sink aggregates them) --

    def bus_phase(self, bus: str, wait_ns: int, busy_ns: int) -> None:
        """One phase on ``bus``: ``wait_ns`` of arbitration before the
        grant, then ``busy_ns`` of occupancy."""

    def run_end(self, elapsed_ns: int, events: int, counters) -> None:
        """The run finished at ``elapsed_ns`` after dispatching
        ``events`` workload events; ``counters`` is the machine's
        :class:`~repro.stats.counters.Counters`."""

    # -- span checkpoints (consumed by repro.obs.spans.SpanBuilder) -----

    def begin(self, t: int, proc: int, op: str, line: int,
              addr: int = -1) -> None:
        """An access issued at ``t``; its ``access`` event closes it."""

    def phase(self, name: str, t: int) -> None:
        """The open access finished phase ``name`` at ``t``."""

    def note_relocation(self) -> None:
        """The open access triggered one background relocation."""

    # -- observer attach path -------------------------------------------

    def attach_to(self, sim, every: Optional[int] = None) -> None:
        """Uniform observer hook (``Simulation.attach``): install this
        sink on the machine, teeing when one is already attached.
        ``every`` is accepted for interface symmetry and ignored."""
        # Deferred: repro.obs.spans builds on this module.
        from repro.obs.spans import SpanBuilder

        existing = sim.machine.trace
        if isinstance(existing, SpanBuilder):
            existing = existing.sink
        if existing is None:
            sim.machine.set_trace(self)
        else:
            members = (existing.sinks if isinstance(existing, TeeSink)
                       else (existing,))
            sim.machine.set_trace(TeeSink(*members, self))

    # -- sink lifecycle -------------------------------------------------

    def emit(self, ev) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (file-backed sinks)."""

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        """Hook called by the simulation kernel when a run dies.

        The flight recorder overrides this to dump its buffer; the return
        value (a rendered dump, or None) is attached to the exception as
        ``exc.flight_dump`` by the kernel.
        """
        return None


class CollectorSink(TraceSink):
    """Keep every event in a list (tests, in-process analysis)."""

    def __init__(self) -> None:
        self.events: list = []

    def emit(self, ev) -> None:
        self.events.append(ev)

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if e.kind == kind]


class TeeSink(TraceSink):
    """Fan every entry point out to several child sinks.

    The children are fixed at construction.  Each typed entry point is
    bound straight to the children that consume it: one consumer gets
    the call with no tee frame in between, and a child that
    :func:`ignored` a kind is skipped, so it never pays for an event
    object it does not use.
    """

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = sinks
        for name in ("access", "transition", "bus", "replacement", "sync",
                     "syncop", "span", "bus_phase", "run_end"):
            methods = [getattr(s, name) for s in self.sinks
                       if getattr(type(s), name, None) is not ignored]
            if len(methods) == 1:
                setattr(self, name, methods[0])
            else:
                setattr(self, name, _fan_out(methods))

    @property
    def wants_spans(self) -> bool:
        return any(getattr(s, "wants_spans", False) for s in self.sinks)

    def emit(self, ev) -> None:
        for s in self.sinks:
            s.emit(ev)

    def close(self) -> None:
        for s in self.sinks:
            s.close()

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        dump = None
        for s in self.sinks:
            dump = s.on_simulation_error(exc) or dump
        return dump


def _fan_out(methods: list):
    """One entry point calling each of ``methods`` in turn."""

    def fan_out(*args) -> None:
        for method in methods:
            method(*args)

    return fan_out
