"""Typed metrics registry: counters, gauges and log2-bucket histograms.

Where the event tracing of :mod:`repro.obs.sink` records *what* happened
event by event, this module aggregates *how much and how fast* into
labeled time-series families — the paper's quantitative spine (RNMr,
traffic splits, stall breakdowns) exported as first-class metrics rather
than one-off report text.

Design rules, in order of importance:

* **Zero overhead when disabled.**  The registry observes a run through
  the machine's one ``trace`` slot (a :class:`MetricsSink` teed onto
  the trace stream), which defaults to ``None``: every hot-path
  emission site is a single ``if trace is not None``.  No registry,
  family or sample object is ever allocated for an uninstrumented run.
* **Deterministic.**  This module is part of the deterministic core (the
  DET lint rules apply): metric values are simulated quantities —
  nanoseconds, event counts, bytes — never the wall clock.  Wall-time
  series (per-phase seconds, sweep ETA) are recorded by the unrestricted
  callers (``repro.experiments``, ``repro.bench``) into the same
  registry.  :meth:`MetricsRegistry.snapshot` is sorted at every level,
  so two runs of one RunSpec+seed snapshot byte-identically.
* **Fixed log2 buckets.**  Histograms bucket by power of two
  (``le = 1, 2, 4, ... 2^(n-1), +Inf``): constant-time ``bit_length``
  indexing on the hot path, and bucket boundaries that never depend on
  the data, so histograms from different runs are always mergeable.

Exporters live in :mod:`repro.obs.openmetrics` (OpenMetrics text, JSON
snapshots) and the CLI surface is ``coma-sim metrics``.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Sequence, Union

from repro.obs.sink import TraceSink, ignored

Number = Union[int, float]

#: Default histogram size: boundaries 2^0 .. 2^(N-2), plus +Inf — wide
#: enough for nanosecond latencies up to ~17 simulated minutes.
DEFAULT_LOG2_BUCKETS = 32

_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Counter family names must carry this suffix in the exposition format;
#: the registry stores the base name and exporters append it.
COUNTER_SUFFIX = "_total"


class Counter:
    """A monotonically increasing integer/float sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A sample that can go up and down (utilization, sizes, ratios)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def dec(self, amount: Number = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed log2-bucket histogram of non-negative integer observations.

    Bucket ``i`` (of ``n``) counts observations with ``value <= 2**i``
    for ``i < n-1``; the last bucket is ``+Inf``.  ``observe`` is O(1)
    via ``int.bit_length``.  Float observations are truncated toward
    zero first — callers observing seconds should scale to an integer
    unit (microseconds) before observing.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int = DEFAULT_LOG2_BUCKETS) -> None:
        self.counts = [0] * n_buckets
        self.sum: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        v = int(value)
        if v <= 1:
            idx = 0
        else:
            idx = (v - 1).bit_length()
            last = len(self.counts) - 1
            if idx > last:
                idx = last
        self.counts[idx] += 1
        self.sum += value
        self.count += 1

    def bucket_bounds(self) -> list[Number]:
        """Upper bounds per bucket; the last is ``float('inf')``."""
        bounds: list[Number] = [1 << i for i in range(len(self.counts) - 1)]
        bounds.append(float("inf"))
        return bounds

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket (the OpenMetrics ``le`` view)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric family: a set of children keyed by label values.

    Children are created on first use and cached; hot paths should bind
    them once (``child = fam.labels("am")``) and call ``inc``/``observe``
    on the bound child.  A family declared with no labels delegates
    ``inc``/``set``/``observe`` straight to its single child.
    """

    __slots__ = ("name", "type", "help", "label_names", "_children", "_hist_buckets")

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        label_names: Sequence[str] = (),
        hist_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.label_names = tuple(label_names)
        self._children: dict[tuple[str, ...], object] = {}
        self._hist_buckets = hist_buckets

    def labels(self, *values: object):
        """The child for one label-value combination (created on demand)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected {len(self.label_names)} label value(s) "
                f"{self.label_names}, got {len(key)}"
            )
        child = self._children.get(key)
        if child is None:
            cls = _METRIC_TYPES[self.type]
            child = cls(self._hist_buckets) if cls is Histogram else cls()
            self._children[key] = child
        return child

    # -- no-label conveniences ------------------------------------------

    def inc(self, amount: Number = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: Number) -> None:
        self.labels().set(value)

    def observe(self, value: Number) -> None:
        self.labels().observe(value)

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        return sorted(self._children.items())


class MetricsRegistry:
    """A process-local collection of metric families.

    Attach to a simulation with :meth:`repro.sim.simulator.Simulation.attach`
    (the uniform observer path shared with trace sinks and profilers):
    the registry wires itself into the machine, its buses and the
    replacement engine, and the simulation kernel fills the end-of-run
    gauges.
    """

    def __init__(self) -> None:
        self._families: dict[str, Family] = {}

    # -- declaration ----------------------------------------------------

    def _declare(
        self,
        name: str,
        type_: str,
        help_: str,
        labels: Sequence[str],
        hist_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> Family:
        if not _NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if type_ == "counter" and name.endswith(COUNTER_SUFFIX):
            raise ValueError(
                f"{name}: declare counters without the {COUNTER_SUFFIX!r} "
                "suffix; exporters append it"
            )
        for ln in labels:
            if not _NAME.match(ln):
                raise ValueError(f"invalid label name {ln!r}")
        existing = self._families.get(name)
        if existing is not None:
            if existing.type != type_ or existing.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"type/label set ({existing.type}{existing.label_names} "
                    f"vs {type_}{tuple(labels)})"
                )
            return existing
        fam = Family(name, type_, help_, labels, hist_buckets)
        self._families[name] = fam
        return fam

    def counter(self, name: str, help_: str, labels: Sequence[str] = ()) -> Family:
        return self._declare(name, "counter", help_, labels)

    def gauge(self, name: str, help_: str, labels: Sequence[str] = ()) -> Family:
        return self._declare(name, "gauge", help_, labels)

    def histogram(
        self,
        name: str,
        help_: str,
        labels: Sequence[str] = (),
        n_buckets: int = DEFAULT_LOG2_BUCKETS,
    ) -> Family:
        return self._declare(name, "histogram", help_, labels, n_buckets)

    # -- access ---------------------------------------------------------

    def families(self) -> Iterable[Family]:
        """Families in sorted name order (deterministic exports)."""
        for name in sorted(self._families):
            yield self._families[name]

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def snapshot(self) -> dict:
        """A plain-dict view of every family, sorted at every level.

        Counters/gauges serialize to their value; histograms to
        ``{"buckets": {le: cumulative}, "sum": s, "count": n}`` with only
        non-empty buckets included (fixed boundaries make omission
        lossless).  The label key is the values joined with commas.
        """
        out: dict[str, dict] = {}
        for fam in self.families():
            series: dict[str, object] = {}
            for key, child in fam.samples():
                label = ",".join(key)
                if fam.type == "histogram":
                    bounds = child.bucket_bounds()
                    cum = child.cumulative()
                    buckets = {
                        ("+Inf" if b == float("inf") else str(b)): c
                        for b, c, raw in zip(bounds, cum, child.counts)
                        if raw
                    }
                    series[label] = {
                        "buckets": buckets,
                        "sum": child.sum,
                        "count": child.count,
                    }
                else:
                    series[label] = child.value
            out[fam.name] = {
                "type": fam.type,
                "help": fam.help,
                "labels": list(fam.label_names),
                "series": series,
            }
        return out

    # -- observer attach path -------------------------------------------

    def attach_to(self, sim, every: Optional[int] = None) -> None:
        """Wire this registry into a :class:`~repro.sim.simulator.Simulation`.

        Called by ``Simulation.attach(registry)`` — the same uniform path
        trace sinks and profilers use: the registry tees a
        :class:`MetricsSink` onto the machine's trace stream.  ``every``
        is accepted for interface symmetry and ignored (metrics are not
        sampled; they fold every event).
        """
        MetricsSink(self, sim.machine).attach_to(sim)


# ----------------------------------------------------------------------
# the trace-stream aggregator behind the simulation families
# ----------------------------------------------------------------------


class MetricsSink(TraceSink):
    """Fold a machine's trace stream into a registry's ``coma_*``,
    ``bus_*`` and ``sim_*`` families.

    Every family is declared when the sink is built, with the per-node
    and per-bus children bound up front (zero-valued until they move);
    children keyed by event fields are bound on their first event and
    reused, so the per-event cost is a dict probe and one increment.
    Node hits and misses come from the access level: a read satisfied in
    the node (``am``) is a node hit, any access satisfied ``remote`` a
    node miss.
    """

    def __init__(self, registry: MetricsRegistry, machine) -> None:
        cfg = machine.config
        self._node_of = [cfg.node_of_proc(p) for p in range(cfg.n_processors)]
        self._latency = registry.histogram(
            "coma_access_latency_ns",
            "end-to-end access latency by operation and satisfying level",
            labels=("op", "level"),
        )
        #: (op, level) -> bound latency child.
        self._latency_of: dict[tuple[str, str], Histogram] = {}
        hits = registry.counter(
            "coma_node_hits", "node-level (AM/overflow/neighbour-SLC) hits",
            labels=("node",),
        )
        misses = registry.counter(
            "coma_node_misses", "node misses (remote data fetches)",
            labels=("node",),
        )
        self._node_hits = [hits.labels(i) for i in range(cfg.n_nodes)]
        self._node_misses = [misses.labels(i) for i in range(cfg.n_nodes)]
        self._relocations = registry.counter(
            "coma_relocations", "owner-line relocations by outcome",
            labels=("outcome",),
        )
        self._relocation_hops = registry.histogram(
            "coma_relocation_hops", "forced-cascade depth per relocation",
            n_buckets=8,
        )
        self._events = registry.counter(
            "coma_events", "end-of-run machine event counters",
            labels=("event",),
        )
        self._transactions = registry.counter(
            "bus_transactions", "metered transactions by bus and class",
            labels=("bus", "cls"),
        )
        self._bytes = registry.counter(
            "bus_bytes", "metered traffic bytes by bus and class",
            labels=("bus", "cls"),
        )
        #: (bus, traffic class) -> bound (transactions, bytes) children.
        self._traffic_of: dict[tuple[str, str], tuple[Counter, Counter]] = {}
        busy = registry.counter(
            "bus_busy_ns", "cumulative bus occupancy", labels=("bus",),
        )
        wait = registry.histogram(
            "bus_wait_ns", "arbitration wait per bus phase", labels=("bus",),
        )
        buses = [machine.bus, *getattr(machine, "group_buses", ())]
        self._busy_of = {b.name: busy.labels(b.name) for b in buses}
        self._wait_of = {b.name: wait.labels(b.name) for b in buses}
        self._sim_events = registry.gauge(
            "sim_events_processed", "workload events the kernel dispatched")
        self._elapsed = registry.gauge(
            "sim_elapsed_ns", "simulated nanoseconds at completion")
        self._sync_wait = registry.histogram(
            "sim_sync_wait_ns", "time blocked per completed sync wait",
            labels=("primitive",),
        )

    # -- aggregated events ----------------------------------------------

    def access(self, t: int, proc: int, op: str, line: int,
               level: str, latency_ns: int, addr: int = -1) -> None:
        child = self._latency_of.get((op, level))
        if child is None:
            child = self._latency_of[op, level] = self._latency.labels(op, level)
        child.observe(latency_ns)
        if level == "remote":
            self._node_misses[self._node_of[proc]].inc()
        elif level == "am" and op == "r":
            self._node_hits[self._node_of[proc]].inc()

    def bus(self, t: int, bus: str, tx: str, cls: str, nbytes: int,
            origin: int, line: int) -> None:
        pair = self._traffic_of.get((bus, cls))
        if pair is None:
            pair = self._traffic_of[bus, cls] = (
                self._transactions.labels(bus, cls),
                self._bytes.labels(bus, cls))
        pair[0].inc()
        pair[1].inc(nbytes)

    def bus_phase(self, bus: str, wait_ns: int, busy_ns: int) -> None:
        self._wait_of[bus].observe(wait_ns)
        self._busy_of[bus].inc(busy_ns)

    def replacement(self, t: int, src: int, dst: int, line: int,
                    outcome: str, hops: int) -> None:
        self._relocations.labels(outcome).inc()
        self._relocation_hops.observe(hops)

    def sync(self, t: int, proc: int, primitive: str, obj: int,
             wait_ns: int) -> None:
        self._sync_wait.labels(primitive).observe(wait_ns)

    def run_end(self, elapsed_ns: int, events: int, counters) -> None:
        """Set the kernel gauges and fold the end-of-run counters into
        ``coma_events`` (one labeled series per non-zero counter)."""
        self._sim_events.set(events)
        self._elapsed.set(elapsed_ns)
        for name, value in counters.as_dict().items():
            if value:
                self._events.labels(name).inc(value)

    # The registry keeps no per-transition, ordering-point or span series.
    transition = syncop = span = emit = ignored


class ExperimentInstruments:
    """Pre-bound experiment-layer children (``experiments_*`` families).

    Unlike the simulation families, the values these record come from the wall
    clock — observed by the unrestricted :mod:`repro.experiments` layer
    (in integer microseconds) and merely stored here.
    """

    __slots__ = ("cache_requests", "run_wall", "worker_wall")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.cache_requests = registry.counter(
            "experiments_cache_requests",
            "run_spec() requests by how the cache satisfied them",
            labels=("outcome",),
        )
        self.run_wall = registry.histogram(
            "experiments_run_wall_us",
            "wall-clock microseconds per simulated (cache-miss) run",
        )
        self.worker_wall = registry.histogram(
            "experiments_worker_wall_us",
            "wall-clock microseconds per parallel sweep task",
        )
