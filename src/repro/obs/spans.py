"""Causal span trees and simulated-time latency attribution.

The paper's core results are latency *decompositions*: execution time
split into busy / read-stall / write-stall / sync components, and the
remote-access cost split across bus arbitration, AM lookup and
inter-cluster transfer.  This module makes every simulated cycle of an
access attributable:

* :class:`SpanBuilder` — a filter ``set_trace`` puts in front of the
  machine's sink only when the sink sets ``wants_spans``.  The
  instrumented hot paths mark *checkpoints* on the trace slot —
  monotone completion times along one access — and the builder turns
  consecutive checkpoints into child spans.  Because children are
  differences of a monotone cut sequence over ``[issue, completion]``,
  their durations sum to the access latency **by construction**: the
  conservation invariant costs nothing to maintain and is enforced by
  the test suite on every machine flavour.
* :class:`StallAttribution` — a :class:`~repro.obs.sink.TraceSink` that
  aggregates span trees into the paper-style breakdown per processor,
  per line and per workload phase (barrier episodes delimit phases),
  keeps log2 latency histograms per access class, and retains the full
  span trees of the N slowest accesses as tail exemplars.

Span ids are deterministic sequence numbers (same RunSpec + seed ⇒
byte-identical span streams); all times are simulated nanoseconds.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Optional

from repro.obs.events import EV_SPAN, EV_SYNC, EV_SYNCOP, SpanEvent
from repro.obs.metrics import MetricsRegistry, TallyHistogram
from repro.obs.sink import CollectorSink, TraceSink, ignored


class SpanBuilder(TraceSink):
    """A filter in front of the attached sink that cuts each access into
    a span tree from its phase checkpoints.

    ``set_trace`` installs one (see :func:`span_filter`) when the sink
    asks for spans.  The machine's access entry points are strictly
    sequential (the event loop never interleaves two accesses of one
    machine), so a single mutable builder per machine suffices: ``begin``
    opens the access, ``phase`` records checkpoints, and the access's
    own ``access`` event closes the tree — it goes downstream first,
    followed by one :meth:`~repro.obs.sink.TraceSink.tree` call for the
    whole tree.  Every other entry point is the downstream sink's own
    bound method, so the filter adds no call to them.  Lists are reused
    across accesses — the per-access cost is appends plus one call.
    """

    #: A builder consumes span checkpoints; a tee holding one asks for a
    #: builder in front of the whole tee.
    wants_spans = True

    def __init__(self, sink: TraceSink) -> None:
        self.bind(sink)
        self._next_trace = 0
        self._next_span = 0
        self._open = False
        self.t0 = 0
        self.cursor = 0
        self.proc = -1
        self.op = ""
        self.line = -1
        self.relocs = 0
        #: Closed phases of the open access.  Phase ``i`` starts where
        #: phase ``i - 1`` ended (the first at ``t0``), so ends suffice.
        self._names: list[str] = []
        self._ends: list[int] = []

    def bind(self, sink: TraceSink) -> None:
        """Point the builder at ``sink``: closed trees and every
        forwarded entry point go to it from now on."""
        self.sink = sink
        for name in ("transition", "bus", "replacement", "sync", "syncop",
                     "span", "tree", "bus_phase", "run_end", "emit",
                     "close"):
            setattr(self, name, getattr(sink, name))

    # -- recording API (called from @hotpath code, spans enabled only) --

    def begin(self, t: int, proc: int, op: str, line: int,
              addr: int = -1) -> None:
        """Open the root span of one access issued at ``t``."""
        self._open = True
        self.t0 = t
        self.cursor = t
        self.proc = proc
        self.op = op
        self.line = line
        self.relocs = 0
        self._names.clear()
        self._ends.clear()

    def phase(self, name: str, t: int) -> None:
        """Close the current phase at completion time ``t``.

        Checkpoints must be non-decreasing; a checkpoint at (or before)
        the cursor contributes a zero-duration phase and is skipped, so
        uncontended steps never clutter the tree.
        """
        if not self._open or t <= self.cursor:
            return
        self._names.append(name)
        self._ends.append(t)
        self.cursor = t

    def note_relocation(self) -> None:
        """Count one background owner-line relocation triggered by the
        open access (traffic, not latency — annotated on the root)."""
        if self._open:
            self.relocs += 1

    def access(self, t: int, proc: int, op: str, line: int,
               level: str, latency_ns: int, addr: int = -1) -> None:
        """Forward the access, then close its span tree: the access
        completes at ``t + latency_ns`` and the un-annotated remainder
        ``[cursor, completion]`` becomes a tail phase named after
        ``level``."""
        self.sink.access(t, proc, op, line, level, latency_ns, addr)
        if not self._open:
            return
        self._open = False
        end = t + latency_ns
        names, ends = self._names, self._ends
        if end > self.cursor:
            names.append(level)
            ends.append(end)
        trace_id = self._next_trace = self._next_trace + 1
        root_id = self._next_span + 1
        self._next_span = root_id + len(names)
        # The tree carries the identity ``begin`` opened it with.
        self.tree(self.t0, end, trace_id, root_id, self.proc, self.line,
                  self.op, level, self.relocs, names, ends)

    # -- failure introspection ------------------------------------------

    def open_stack_text(self) -> str:
        """Render the in-flight span stack (empty string when idle)."""
        if not self._open:
            return ""
        out = [
            "=== open span stack ===",
            f"P{self.proc} {self.op} line {self.line:#x} "
            f"issued at {self.t0} ns",
        ]
        start = self.t0
        for name, stop in zip(self._names, self._ends):
            out.append(f"  {name:<12} {start}..{stop} (+{stop - start} ns)")
            start = stop
        out.append(f"  (in flight since {self.cursor} ns, "
                   f"{self.relocs} relocation(s) so far)")
        return "\n".join(out)

    def on_simulation_error(self, exc: BaseException) -> Optional[str]:
        """The downstream dump with the in-flight span stack appended, so
        a crash dump shows *where in an access* the run died."""
        dump = self.sink.on_simulation_error(exc)
        stack = self.open_stack_text()
        if not stack:
            return dump
        return f"{dump}\n{stack}" if dump else stack


def span_filter(current, sink):
    """What a machine's ``trace`` slot holds once ``sink`` is attached.

    That is ``sink`` itself, or a :class:`SpanBuilder` in front of it
    when it asks for spans.  ``current`` is the slot's present value:
    re-attaching the sink it already filters keeps that builder and its
    id counters.
    """
    if sink is None or not getattr(sink, "wants_spans", False):
        return sink
    if isinstance(current, SpanBuilder) and current.sink is sink:
        return current
    return SpanBuilder(sink)


def tree_events(*tree: Any) -> list[SpanEvent]:
    """The :class:`SpanEvent` list (root first) of one ``tree`` call."""
    out = CollectorSink()
    out.tree(*tree)
    return out.events


class SpanTreeAssembler:
    """Regroup a flat span-event stream back into ``tree`` calls.

    :meth:`SpanBuilder.access` emits each access's root (parent_id 0)
    immediately followed by its children, and the machine's access entry
    points are strictly sequential — so a new root closes the previous
    tree.  Span consumers that fold whole trees feed replayed span
    events to :meth:`add` and get one ``on_tree`` call (the
    :meth:`~repro.obs.sink.TraceSink.tree` signature) per access; call
    :meth:`flush` before anything that must see every tree so far (a
    barrier, a result read) to deliver the pending one.
    """

    __slots__ = ("_on_tree", "_root", "_names", "_ends")

    def __init__(self, on_tree) -> None:
        self._on_tree = on_tree
        self._root: Optional[SpanEvent] = None
        self._names: list[str] = []
        self._ends: list[int] = []

    def add(self, ev: SpanEvent) -> None:
        if ev.parent_id == 0:
            self.flush()
            self._root = ev
        elif self._root is not None and ev.trace_id == self._root.trace_id:
            # Phases stack by duration, so consumers fold each child's own
            # ``dur_ns`` even when a malformed stream leaves gaps (the
            # phase sums then miss the root and conservation reports it).
            ends = self._ends
            ends.append((ends[-1] if ends else self._root.t) + ev.dur_ns)
            self._names.append(ev.name)

    def flush(self) -> None:
        root = self._root
        if root is not None:
            self._root = None
            self._on_tree(root.t, root.t + root.dur_ns, root.trace_id,
                          root.span_id, root.proc, root.line, root.op,
                          root.level, root.relocs, self._names, self._ends)
            self._names.clear()
            self._ends.clear()


# ----------------------------------------------------------------------
# attribution aggregator
# ----------------------------------------------------------------------

#: Number of slowest accesses whose full span trees are retained.
DEFAULT_TOP_SPANS = 10


class StallAttribution(TraceSink):
    """Aggregate span trees into paper-style latency attributions.

    Consumes span trees through :meth:`tree` (per-phase cycle sums by
    processor, line and workload phase; span events replayed through
    ``emit`` are regrouped into trees first), ``sync`` events (blocked
    time per processor) and barrier ``syncop`` events (workload-phase
    boundaries).  The report's per-phase sums conserve cycles: for every
    processor and operation class, the phase sums equal the root-span
    sums exactly.  A replay leaves its last tree pending until
    :meth:`close` or a result method runs; only then do the public sums
    (``accesses``, ``root_ns``, ``phase_ns`` ...) cover the whole stream.
    """

    wants_spans = True

    def __init__(self, top_spans: int = DEFAULT_TOP_SPANS) -> None:
        self.top_spans = top_spans
        #: proc -> op -> phase name -> ns (children of the span trees).
        self.phase_ns: dict[int, dict[str, dict[str, int]]] = {}
        #: proc -> op -> ns (root durations; the conservation partner).
        self.root_ns: dict[int, dict[str, int]] = {}
        #: line -> ns of access latency spent on it (root durations).
        self.line_ns: dict[int, int] = {}
        #: workload phase index -> op -> ns.  Phase k of a processor is
        #: the number of barrier arrivals it has performed.
        self.wphase_ns: dict[int, dict[str, int]] = {}
        self._wphase: dict[int, int] = {}
        #: proc -> the ``wphase_ns`` dict its accesses fold into now.
        self._wphase_of: dict[int, dict[str, int]] = {}
        #: proc -> blocked ns (lock/barrier waits from sync events).
        self.sync_ns: dict[int, int] = {}
        #: proc -> background relocations triggered by its accesses.
        self.reloc_count: dict[int, int] = {}
        self.accesses = 0
        #: Latency histograms per access class (see :attr:`registry`).
        self._registry = MetricsRegistry()
        self._latency = self._registry.histogram(
            "span_access_latency_ns",
            "access latency from span roots by operation and level",
            labels=("op", "level"), child_type=TallyHistogram,
        )
        #: (op, level) -> [bound latency child, slowest dur, its trace id].
        self._class: dict[tuple[str, str], list] = {}
        #: Min-heap of (dur, trace_id) for the N slowest accesses.
        self._slowest: list[tuple[int, int]] = []
        #: trace_id -> [root, child, ...] for retained exemplar trees.
        self._trees: dict[int, list[SpanEvent]] = {}
        #: (proc, op) -> the ``root_ns[proc]`` dict roots fold into.
        self._root_of: dict[tuple[int, str], dict[str, int]] = {}
        #: (proc, op) -> the ``phase_ns[proc][op]`` dict children fold into.
        self._leaf: dict[tuple[int, str], dict[str, int]] = {}
        #: Shortest duration that can still enter the slowest-N heap.
        self._floor = 0 if top_spans > 0 else math.inf
        #: Regroups span events arriving through ``emit`` (replay).
        self._replay = SpanTreeAssembler(self.tree)

    # -- event intake ---------------------------------------------------

    # The flat events carry nothing the attribution aggregates.
    access = transition = bus = replacement = ignored

    def emit(self, ev) -> None:
        kind = ev.kind
        if kind == EV_SPAN:
            self._replay.add(ev)
            return
        # A replayed stream's pending tree belongs to the workload phase
        # before this event, as it does in the live run.
        self._replay.flush()
        if kind == EV_SYNC:
            self.sync_ns[ev.proc] = self.sync_ns.get(ev.proc, 0) + ev.wait_ns
        elif kind == EV_SYNCOP:
            if ev.op == "arrive":
                self._wphase[ev.proc] = self._wphase.get(ev.proc, 0) + 1
                self._wphase_of.pop(ev.proc, None)

    def tree(self, t0: int, end: int, trace_id: int, root_id: int,
             proc: int, line: int, op: str, level: str, relocs: int,
             names: list[str], ends: list[int]) -> None:
        """Fold one access tree straight from its fields: the root into
        the per-processor, per-line and per-workload-phase sums, the
        latency histogram, the per-class max and the slowest-N heap,
        then its phases into ``phase_ns``.  :class:`SpanEvent` objects
        are built only for a tree entering the slowest-N heap."""
        dur_ns = end - t0
        self.accesses += 1
        key = (proc, op)
        by_op = self._root_of.get(key)
        if by_op is None:
            by_op = self._root_of[key] = self.root_ns.setdefault(proc, {})
            by_op[op] = 0
        by_op[op] += dur_ns
        line_ns = self.line_ns
        line_ns[line] = line_ns.get(line, 0) + dur_ns
        by_op = self._wphase_of.get(proc)
        if by_op is None:
            by_op = self._wphase_of[proc] = self.wphase_ns.setdefault(
                self._wphase.get(proc, 0), {})
        by_op[op] = by_op.get(op, 0) + dur_ns
        if relocs:
            self.reloc_count[proc] = self.reloc_count.get(proc, 0) + relocs
        cls = self._class.get((op, level))
        if cls is None:
            cls = self._class[op, level] = [
                self._latency.labels(op, level), -1, 0]
        cls[0].observe(dur_ns)
        if dur_ns > cls[1]:
            cls[1] = dur_ns
            cls[2] = trace_id
        if names:
            leaf = self._leaf.get(key)
            if leaf is None:
                leaf = self._leaf[key] = {}
                self.phase_ns.setdefault(proc, {})[op] = leaf
            start = t0
            for name, stop in zip(names, ends):
                leaf[name] = leaf.get(name, 0) + stop - start
                start = stop
        if dur_ns < self._floor:
            return
        slowest = self._slowest
        entry = (dur_ns, trace_id)
        if len(slowest) < self.top_spans:
            heapq.heappush(slowest, entry)
        elif entry > slowest[0]:
            del self._trees[heapq.heapreplace(slowest, entry)[1]]
        else:
            return
        if len(slowest) == self.top_spans:
            self._floor = slowest[0][0]
        self._trees[trace_id] = tree_events(t0, end, trace_id, root_id, proc,
                                            line, op, level, relocs, names,
                                            ends)

    def close(self) -> None:
        """Fold a replayed stream's pending tree."""
        self._replay.flush()

    # -- results --------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The latency histograms, in a private registry so the
        OpenMetrics exporter renders them directly."""
        self._replay.flush()
        return self._registry

    def slowest_spans(self) -> list[list[SpanEvent]]:
        """The retained span trees, slowest first (root at index 0)."""
        self._replay.flush()
        order = sorted(self._slowest, reverse=True)
        return [self._trees[tid] for _, tid in order]

    def conservation_errors(self) -> list[str]:
        """Per-(proc, op) mismatch between phase sums and root sums.

        Empty for every correctly instrumented machine: the builder cuts
        phases out of the root interval, so the sums agree exactly.
        """
        self._replay.flush()
        problems = []
        procs = set(self.root_ns) | set(self.phase_ns)
        for proc in sorted(procs):
            roots = self.root_ns.get(proc, {})
            phased = self.phase_ns.get(proc, {})
            for op in sorted(set(roots) | set(phased)):
                want = roots.get(op, 0)
                got = sum(phased.get(op, {}).values())
                if want != got:
                    problems.append(
                        f"P{proc} {op}: phases sum to {got} ns, "
                        f"roots total {want} ns"
                    )
        return problems

    def exemplars(self) -> dict[str, dict[tuple[str, ...], tuple[dict, int]]]:
        """OpenMetrics exemplars: the slowest access per class, labeled
        with its trace id so ``coma-sim explain``/Perfetto can find it."""
        self._replay.flush()
        per_class = {}
        for (op, level), (_, dur, tid) in sorted(self._class.items()):
            per_class[(op, level)] = ({"trace_id": str(tid)}, dur)
        return {"span_access_latency_ns": per_class}

    def report(self, stalls: Optional[list[dict]] = None,
               elapsed_ns: int = 0) -> dict:
        """The full attribution as a plain (JSON-ready) dict.

        ``stalls`` — per-processor stall accounting from the simulation
        result — adds the busy/read/write/sync conservation view: those
        categories are the ground truth the kernel charges (they sum to
        each processor's cycles exactly); the span phases subdivide the
        stall portion.
        """
        self._replay.flush()
        per_proc = []
        procs = sorted(set(self.root_ns) | set(self.phase_ns)
                       | set(self.sync_ns))
        for proc in procs:
            phased = self.phase_ns.get(proc, {})
            per_proc.append({
                "proc": proc,
                "access_ns": {
                    op: ns
                    for op, ns in sorted(self.root_ns.get(proc, {}).items())
                },
                "phases": {
                    op: dict(sorted(names.items()))
                    for op, names in sorted(phased.items())
                },
                "sync_wait_ns": self.sync_ns.get(proc, 0),
                "relocations": self.reloc_count.get(proc, 0),
            })
        out = {
            "accesses": self.accesses,
            "per_proc": per_proc,
            "per_workload_phase": [
                {"phase": wp, "access_ns": dict(sorted(ops.items()))}
                for wp, ops in sorted(self.wphase_ns.items())
            ],
            "top_lines": [
                {"line": hex(line), "access_ns": ns}
                for line, ns in sorted(
                    self.line_ns.items(), key=lambda kv: (-kv[1], kv[0])
                )[:20]
            ],
            "latency_histograms": self._registry.snapshot(),
            "top_spans": [
                [e.to_record() for e in tree]
                for tree in self.slowest_spans()
            ],
            "conservation_errors": self.conservation_errors(),
        }
        if stalls is not None:
            out["stall_accounting"] = [
                {**s, "total_ns": sum(s.values())} for s in stalls
            ]
        if elapsed_ns:
            out["elapsed_ns"] = elapsed_ns
        return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def format_span_tree(tree: list[SpanEvent]) -> str:
    """One retained span tree as indented text (root first)."""
    if not tree:
        return "(empty span tree)"
    root = tree[0]
    out = [
        f"trace {root.trace_id}: P{root.proc} {root.op} "
        f"line {root.line:#x} -> {root.level}  +{root.dur_ns} ns "
        f"(issued {root.t} ns"
        + (f", {root.relocs} relocation(s))" if root.relocs else ")")
    ]
    for child in tree[1:]:
        pct = 100.0 * child.dur_ns / root.dur_ns if root.dur_ns else 0.0
        out.append(
            f"    {child.name:<12} {child.t:>10}..{child.t + child.dur_ns:<10}"
            f" +{child.dur_ns:>6} ns  {pct:5.1f}%"
        )
    return "\n".join(out)


def format_attribution(report: dict) -> str:
    """Human rendering of :meth:`StallAttribution.report` (table mode)."""
    out = [f"latency attribution over {report['accesses']} accesses"]
    stalls = report.get("stall_accounting")
    if stalls:
        cats = [c for c in stalls[0] if c != "total_ns"]
        header = "  proc  " + "".join(f"{c:>12}" for c in cats) + f"{'total':>14}"
        out.append("per-processor cycles (kernel stall accounting, "
                   "sums exactly to each processor's clock):")
        out.append(header)
        for i, s in enumerate(stalls):
            row = f"  P{i:<4}" + "".join(f"{s[c]:>12}" for c in cats)
            out.append(row + f"{s['total_ns']:>14}")
    out.append("per-processor span phases (ns; phases partition each "
               "access's latency):")
    for row in report["per_proc"]:
        out.append(f"  P{row['proc']}: sync_wait={row['sync_wait_ns']} "
                   f"relocations={row['relocations']}")
        for op, phases in row["phases"].items():
            total = row["access_ns"].get(op, 0)
            detail = "  ".join(f"{k}={v}" for k, v in phases.items())
            out.append(f"    {op:<3} total={total:<12} {detail}")
    wps = report.get("per_workload_phase", ())
    if len(wps) > 1:
        out.append("per workload phase (barrier episodes):")
        for row in wps:
            detail = "  ".join(f"{k}={v}" for k, v in row["access_ns"].items())
            out.append(f"  phase {row['phase']:<3} {detail}")
    if report.get("top_lines"):
        out.append("hottest lines by access latency:")
        for row in report["top_lines"][:10]:
            out.append(f"  {row['line']:>8}  {row['access_ns']} ns")
    errs = report.get("conservation_errors", ())
    if errs:
        out.append("CONSERVATION VIOLATIONS:")
        out.extend(f"  {e}" for e in errs)
    else:
        out.append("conservation: OK (phase sums equal root sums for "
                   "every processor and op)")
    return "\n".join(out)
