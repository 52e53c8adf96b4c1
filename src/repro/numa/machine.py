"""A CC-NUMA machine with the same processors, caches, bus and timing as
the COMA model — but conventional home-based main memory instead of
attraction memories.

Section 2 of the paper contrasts COMA's migration/replication with
NUMA/UMA behaviour; this baseline lets the benchmark suite show the
contrast quantitatively (COMA converts repeated remote accesses into
local AM hits after migration; NUMA pays the remote latency every time a
line falls out of the small SLC).

Model: pages are homed at the first-touch node.  SLCs cache lines under
an invalidation MSI protocol tracked by a full-map directory at the home.
A read that misses the SLC costs a local memory access (148 ns) when the
home is the local node, or a remote access (332 ns) otherwise; dirty
remote data is fetched via the owner with the same remote timing.  It
exposes the same ``read``/``write``/``rmw`` interface as ``ComaMachine``,
so :class:`repro.sim.Simulation` drives both.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.caches.l1 import L1Cache
from repro.caches.slc import SecondLevelCache
from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.mem.address import AddressSpace
from repro.numa.directory import Directory
from repro.stats.counters import Counters
from repro.timing.resource import Resource

LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_AM = "am"       # local memory (reported in the AM slot for comparability)
LEVEL_REMOTE = "remote"


class NumaMachine:
    """Home-based CC-NUMA memory system."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        config._require_sized()
        self.config = config
        self.timing = config.timing
        self.space = space
        self.counters = Counters()
        self.bus = SharedBus(config.timing, config.line_size)
        self.directory = Directory()
        slc_geom = config.slc_geometry
        l1_geom = config.l1_geometry
        n = config.n_processors
        self.slcs = [SecondLevelCache(slc_geom) for _ in range(n)]
        self.l1s = [L1Cache(l1_geom) for _ in range(n)]
        self.slc_res = [Resource(f"slc{p}") for p in range(n)]
        self.nc = [Resource(f"nc{i}") for i in range(config.n_nodes)]
        self.dram = [Resource(f"dram{i}") for i in range(config.n_nodes)]
        self._shift = config.line_shift
        self._node_of = [config.node_of_proc(p) for p in range(n)]
        self.now = 0
        self._bg = False  # posted-write background port selector
        #: Optional :class:`repro.obs.sink.TraceSink`; None (the default)
        #: keeps every emission site a single ``if`` with no allocations.
        self.trace = None

    def set_trace(self, sink) -> None:
        """Attach a trace sink to the machine and its bus.

        Mirrors :meth:`repro.coma.machine.ComaMachine.set_trace` so the
        observability stack (span sinks, the bounds certifier,
        ``TraceSink.attach_to``) drives the NUMA baseline unchanged.
        """
        from repro.obs.spans import span_filter

        self.trace = span_filter(self.trace, sink)
        self.bus.trace = sink

    # ------------------------------------------------------------------
    def _home_node(self, addr: int) -> int:
        page = self.space.page_of(addr)
        home = self.space.page_home.get(page)
        if home is None:
            raise ProtocolError(f"page of {addr:#x} not materialized")
        return home

    def _ensure_page(self, addr: int, node_id: int) -> None:
        if self.space.page_of(addr) not in self.space.page_home:
            self.space.ensure_page(addr, node_id)
            self.counters.pages_allocated += 1

    def _memory_access(self, node_id: int, t0: int) -> int:
        tm = self.timing
        s = self.nc[node_id].acquire(t0, tm.nc_busy_ns, self._bg)
        t = s + tm.nc_ns
        s = self.dram[node_id].acquire(t, tm.dram_busy_ns, self._bg)
        t = s + tm.dram_latency_ns
        s = self.nc[node_id].acquire(t, tm.nc_busy_ns, self._bg)
        return s + tm.nc_ns

    def _remote_access(self, local: int, home: int, now: int) -> int:
        tm = self.timing
        trace = self.trace
        s = self.nc[local].acquire(now, tm.nc_busy_ns, self._bg)
        t = self.bus.phase(s + tm.nc_ns, self._bg)
        if trace is not None:
            trace.phase("nc_out", s + tm.nc_ns)
            trace.phase("bus_arb", self.bus.arb_start(t))
            trace.phase("bus_req", t)
        s = self.nc[home].acquire(t, tm.nc_busy_ns, self._bg)
        t = s + tm.nc_ns
        s = self.dram[home].acquire(t, tm.dram_busy_ns, self._bg)
        t = self.bus.phase(s + tm.dram_latency_ns, self._bg)
        if trace is not None:
            trace.phase("remote_am", s + tm.dram_latency_ns)
            trace.phase("bus_arb", self.bus.arb_start(t))
            trace.phase("bus_reply", t)
        s = self.nc[local].acquire(t, tm.nc_busy_ns, self._bg)
        if trace is not None:
            trace.phase("nc_ret", s + tm.nc_ns)
            trace.phase("fill_dram", s + tm.nc_ns + tm.dram_latency_ns)
        return s + tm.nc_ns + tm.dram_latency_ns + tm.remote_overhead_ns

    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        c.reads += 1
        line = addr >> self._shift
        node = self._node_of[proc]
        trace = self.trace
        if trace is not None:
            trace.begin(now, proc, "r", line, addr)
        self._ensure_page(addr, node)
        if self.l1s[proc].lookup(line):
            c.l1_read_hits += 1
            done = now + self.timing.l1_hit_ns
            if trace is not None:
                trace.access(now, proc, "r", line, LEVEL_L1, done - now, addr)
            return done, LEVEL_L1
        start = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
        if self.slcs[proc].lookup(line) is not None:
            c.slc_read_hits += 1
            self.l1s[proc].fill(line)
            done = start + self.timing.slc_hit_ns
            if trace is not None:
                trace.phase("slc_wait", start)
                trace.access(now, proc, "r", line, LEVEL_SLC, done - now, addr)
            return done, LEVEL_SLC
        home = self._home_node(addr)
        e = self.directory.entry(line)
        if e.owner is not None and e.owner != proc:
            # Dirty elsewhere: fetch through the owner (remote timing) and
            # leave both copies shared/clean at the home.
            done = self._remote_access(node, self._node_of[e.owner], now)
            self.bus.record(TxKind.READ_DATA)
            c.node_read_misses += 1
            e.owner = None
            level = LEVEL_REMOTE
        elif home == node:
            done = self._memory_access(node, now)
            c.am_read_hits += 1
            level = LEVEL_AM
        else:
            done = self._remote_access(node, home, now)
            self.bus.record(TxKind.READ_DATA)
            c.node_read_misses += 1
            level = LEVEL_REMOTE
        e.sharers.add(proc)
        self._fill(proc, line)
        if trace is not None:
            trace.access(now, proc, "r", line, level, done - now, addr)
        return done, level

    def write(self, proc: int, addr: int, now: int) -> int:
        self.counters.writes += 1
        trace = self.trace
        if trace is not None:
            trace.begin(now, proc, "w", addr >> self._shift, addr)
        self._bg = True
        try:
            done, level = self._write_access(proc, addr, now)
        finally:
            self._bg = False
        if trace is not None:
            trace.access(now, proc, "w", addr >> self._shift, level,
                         done - now, addr)
        return done

    def rmw(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.counters.atomics += 1
        trace = self.trace
        if trace is not None:
            trace.begin(now, proc, "rmw", addr >> self._shift, addr)
        done, level = self._write_access(proc, addr, now)
        if trace is not None:
            trace.access(now, proc, "rmw", addr >> self._shift, level,
                         done - now, addr)
        return done, level

    def write_stalling(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """A write the processor waits for (sequential-consistency mode)."""
        self.counters.writes += 1
        trace = self.trace
        if trace is not None:
            trace.begin(now, proc, "w", addr >> self._shift, addr)
        done, level = self._write_access(proc, addr, now)
        if trace is not None:
            trace.access(now, proc, "w", addr >> self._shift, level,
                         done - now, addr)
        return done, level

    def _write_access(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        line = addr >> self._shift
        node = self._node_of[proc]
        self._ensure_page(addr, node)
        self.l1s[proc].write_hit(line)
        home = self._home_node(addr)
        e = self.directory.entry(line)
        slc_hit = line in self.slcs[proc]

        if e.owner == proc and slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC

        # Need exclusivity: invalidate every other cached copy.
        others = [p for p in e.sharers if p != proc]
        if others or (e.owner is not None and e.owner != proc):
            self.bus.record(TxKind.UPGRADE)
            s = self.nc[node].acquire(now, self.timing.nc_busy_ns, self._bg)
            now = self.bus.phase(s + self.timing.nc_ns, self._bg)
            if self.trace is not None:
                self.trace.phase("nc_out", s + self.timing.nc_ns)
                self.trace.phase("upgrade_bus", now)
            for p in others:
                self.slcs[p].invalidate(line)
                self.l1s[p].invalidate(line)
                c.invalidations_sent += 1
        e.sharers = {proc}
        e.owner = proc

        if slc_hit:
            s = self.slc_res[proc].acquire(now, self.timing.slc_occupancy_ns, self._bg)
            self.slcs[proc].mark_dirty(line)
            return s + self.timing.slc_hit_ns, LEVEL_SLC
        c.node_write_misses += 1
        if home == node:
            done = self._memory_access(node, now)
            level = LEVEL_AM
        else:
            done = self._remote_access(node, home, now)
            self.bus.record(TxKind.READ_EXCL)
            level = LEVEL_REMOTE
        self._fill(proc, line)
        self.slcs[proc].mark_dirty(line)
        return done, level

    # ------------------------------------------------------------------
    def _fill(self, proc: int, line: int) -> None:
        victim = self.slcs[proc].fill(line)
        if victim >= 0:
            vline = victim >> 1
            self.l1s[proc].invalidate(vline)
            ve = self.directory.maybe(vline)
            if ve is not None:
                ve.sharers.discard(proc)
                if ve.owner == proc:
                    ve.owner = None
                    # Dirty write-back travels to the line's home.
                    vhome = self.space.page_home.get(
                        vline * self.config.line_size // self.space.page_size
                    )
                    if vhome is not None and vhome != self._node_of[proc]:
                        self.bus.record(TxKind.REPLACE_DATA)
                        self.bus.phase(self.now, self._bg)
                        self.counters.replacements += 1
                    self.dram[vhome if vhome is not None else 0].acquire(
                        self.now, self.timing.dram_busy_ns
                    , self._bg)
                    self.counters.slc_writebacks += 1
        self.l1s[proc].fill(line)

    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Directory vs cache cross-check (tests)."""
        cached: dict[int, set[int]] = {}
        for p, slc in enumerate(self.slcs):
            for entry in slc.array.valid_entries():
                cached.setdefault(entry.line, set()).add(p)
        for line, e in self.directory.items():
            assert e.sharers.issuperset(cached.get(line, set())), (
                f"line {line:#x}: cached copies missing from directory"
            )
            if e.owner is not None:
                assert e.owner in e.sharers or line not in cached, (
                    f"line {line:#x}: owner {e.owner} not a sharer"
                )
        for p in range(self.config.n_processors):
            for le in self.l1s[p].array.valid_entries():
                assert le.line in self.slcs[p], f"L1{p} not subset of SLC"
