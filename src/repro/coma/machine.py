"""The bus-based COMA memory system (paper sections 2-3).

:class:`ComaMachine` wires together the per-processor L1s and SLCs, the
per-node attraction memories with their node controllers and DRAM banks,
the global snooping bus, the four-state invalidation protocol and the
accept-based replacement engine.  The simulation kernel drives it through
three entry points:

* :meth:`ComaMachine.read`  — processor load; returns completion time and
  the level that satisfied it (``l1``/``slc``/``am``/``remote``);
* :meth:`ComaMachine.write` — one write drained from a write buffer;
* :meth:`ComaMachine.rmw`   — atomic read-modify-write (lock/barrier ops).

All times are integer nanoseconds.  The machine never looks at data
values — workloads keep real data on the Python side — so coherence here
is about *where copies live*, which is all the paper's metrics need.

The per-access paths run *compiled* (see :mod:`repro.analysis.compile`):
at build time the machine interns the protocol table, the timing
constants and the victim policy into plain ints bound as ``_t_*`` /
``_st_*`` attributes, and line state is addressed as way numbers into the
attraction memory's arrays-of-structs.  The certification pass of
``coma-sim verify`` re-derives every one of these bindings from the
declarative table, so the compiled machine cannot silently diverge from
the protocol source.  Functions marked ``@hotpath`` are held to the HOT
lint rules (no interpreted dispatch, no per-access allocation).
"""

from __future__ import annotations

from typing import Optional

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.caches.l1 import L1Cache
from repro.caches.slc import SecondLevelCache
from repro.coma.linetable import LOC_AM, LOC_OVERFLOW, LOC_SLC, LineTable
from repro.coma.node import (
    REMOVED_EVICTED,
    REMOVED_INVALIDATED,
    ComaNode,
)
from repro.coma.replacement import ReplacementEngine
from repro.coma.states import (
    EXCLUSIVE,
    INVALID,
    OWNER,
    SHARED,
    is_owning,
    state_name,
)
from repro.common.config import MachineConfig
from repro.common.errors import ProtocolError
from repro.common.hotpath import hotpath
from repro.mem.address import AddressSpace
from repro.stats.counters import Counters
from repro.timing.resource import Resource

#: Levels reported to the processor model for stall accounting.
LEVEL_L1 = "l1"
LEVEL_SLC = "slc"
LEVEL_AM = "am"
LEVEL_REMOTE = "remote"


class ComaMachine:
    """A 16-processor (configurable) cluster-based COMA memory system."""

    def __init__(self, config: MachineConfig, space: AddressSpace) -> None:
        # Deferred: repro.analysis's package init imports this module back
        # (the cross-checker drives ComaMachine), so the compiler can only
        # be pulled in at machine build time, never at import time.
        from repro.analysis.compile import build_dispatch

        config._require_sized()
        if space.page_size != config.page_size:
            raise ProtocolError(
                f"address space page size {space.page_size} != config {config.page_size}"
            )
        self.config = config
        self.timing = config.timing
        self.space = space
        self.counters = Counters()
        self.lines = LineTable()
        self.bus = SharedBus(config.timing, config.line_size)
        am_geom = config.am_geometry
        self.nodes: list[ComaNode] = [
            ComaNode(i, am_geom, config) for i in range(config.n_nodes)
        ]
        slc_geom = config.slc_geometry
        l1_geom = config.l1_geometry
        self.slcs: list[SecondLevelCache] = [
            SecondLevelCache(slc_geom) for _ in range(config.n_processors)
        ]
        self.l1s: list[L1Cache] = [L1Cache(l1_geom) for _ in range(config.n_processors)]
        self.slc_res: list[Resource] = [
            Resource(f"slc{p}") for p in range(config.n_processors)
        ]
        #: Compiled dispatch bundle: flattened protocol table, interned
        #: timing and policies.  ``coma-sim verify`` certifies every
        #: binding below against the declarative table (rules C101-C104).
        self.dispatch = build_dispatch(config)
        tm = self.dispatch.timing
        self._t_l1 = tm.l1_hit
        self._t_slc = tm.slc_hit
        self._t_slc_occ = tm.slc_occ
        self._t_nc = tm.nc
        self._t_nc_busy = tm.nc_busy
        self._t_dram_lat = tm.dram_lat
        self._t_dram_busy = tm.dram_busy
        self._t_remote = tm.remote_overhead
        #: Supplier-side degradation on a snooped remote read (E -> O).
        self._st_degrade = self.dispatch.st_degrade_remote_read
        self._victim_mode = self.dispatch.victim_mode
        #: (no-surviving-sharers, sharers-survive) inject resolutions.
        self._inj_invalid = self.dispatch.inject_from_invalid
        self._inj_shared = self.dispatch.inject_from_shared
        self._inclusive = config.inclusive
        self._ppn = config.procs_per_node
        self._page_home = space.page_home
        self._page_size = space.page_size
        self.repl = ReplacementEngine(self)
        self._shift = config.line_shift
        self._node_of = [config.node_of_proc(p) for p in range(config.n_processors)]
        #: Direct-mapped L1 probes are opened in line in read()/write():
        #: the backing arrays are pre-bound per processor.
        self._l1_direct = l1_geom.assoc == 1
        self._l1_nsets = l1_geom.num_sets
        self._l1_arrays = [l1.array for l1 in self.l1s]
        #: Time of the operation currently being processed; used by
        #: background actions (back-invalidations, relocations) so they
        #: charge resource occupancy at a sensible instant.
        self.now = 0
        #: True while processing a posted (write-buffered) write: all
        #: resource occupancy it causes goes to the background ports so
        #: demand accesses are never queued behind it (read bypass).
        self._bg = False
        #: Optional :class:`repro.obs.sink.TraceSink`: the one observation
        #: slot (tracing, metrics and span checkpoints all ride it).  None
        #: (the default) keeps every emission site a single ``if`` with no
        #: allocations; attach one with :meth:`set_trace`.
        self.trace = None

    def set_trace(self, sink) -> None:
        """Attach a trace sink to the machine and its interconnect.

        A sink with a truthy ``wants_spans`` is reached through a
        :class:`~repro.obs.spans.SpanBuilder` so accesses emit causal
        span trees; re-attaching the same sink keeps the builder's id
        counters (``TraceSink.attach_to`` re-points it at a grown tee).
        """
        from repro.obs.spans import span_filter

        self.trace = span_filter(self.trace, sink)
        self.bus.trace = sink

    # ------------------------------------------------------------------
    # processor-facing operations
    # ------------------------------------------------------------------

    @hotpath
    def read(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        """Processor ``proc`` loads ``addr`` at time ``now``.

        Returns ``(completion_time, level)``.
        """
        self.now = now
        c = self.counters
        c.reads += 1
        trace = self.trace
        line = addr >> self._shift
        if trace is not None:
            trace.begin(now, proc, "r", line, addr)
        if (addr // self._page_size) not in self._page_home:
            self._materialize_page(addr, self.nodes[self._node_of[proc]], now)

        if self._l1_direct:
            a = self._l1_arrays[proc]
            w = line % self._l1_nsets
            if a.line_a[w] == line and a.state_a[w]:
                a.tick += 1
                a.lru_a[w] = a.tick
                hit = True
            else:
                hit = False
        else:
            hit = self.l1s[proc].lookup(line)
        if hit:
            c.l1_read_hits += 1
            done = now + self._t_l1
            if trace is not None:
                trace.access(now, proc, "r", line, LEVEL_L1, done - now,
                             addr)
            return done, LEVEL_L1

        node = self.nodes[self._node_of[proc]]
        shadow = node.shadow
        slc = self.slcs[proc]
        r = self.slc_res[proc]
        occ = self._t_slc_occ
        if self._bg:
            start = r.acquire(now, occ, True)
        else:
            start = r.next_free
            if start < now:
                start = now
            r.next_free = start + occ
            r.busy_ns += occ
            r.uses += 1
        sw = slc.index.get(line)
        if sw is not None:
            sa = slc.array
            sa.tick += 1
            sa.lru_a[sw] = sa.tick
            c.slc_read_hits += 1
            if self._l1_direct:
                a = self._l1_arrays[proc]
                w = line % self._l1_nsets
                if a.line_a[w] != line or not a.state_a[w]:
                    if a.state_a[w]:
                        del a.index[a.line_a[w]]
                    a.line_a[w] = line
                    a.state_a[w] = 1
                    a.index[line] = w
                    a.tick += 1
                    a.lru_a[w] = a.tick
            else:
                self.l1s[proc].fill(line)
            done = start + self._t_slc
            if trace is not None:
                trace.phase("slc_wait", start)
                trace.access(now, proc, "r", line, LEVEL_SLC, done - now,
                             addr)
            return done, LEVEL_SLC

        # Node level: the attraction memory (or the overflow buffer).
        am = node.am
        way = am.index.get(line)
        if way is not None:
            done = self._am_access(node, now)
            am.tick += 1
            am.lru_a[way] = am.tick
            if shadow is not None:
                shadow.access(line)
            c.am_read_hits += 1
            am.aux_a[way] |= 1 << (proc % self._ppn)
            self._fill_slc(proc, node, line)
            if trace is not None:
                trace.access(now, proc, "r", line, LEVEL_AM, done - now,
                             addr)
            return done, LEVEL_AM
        if line in node.overflow:
            done = self._am_access(node, now)
            if shadow is not None:
                shadow.access(line)
            c.overflow_read_hits += 1
            if trace is not None:
                trace.access(now, proc, "r", line, LEVEL_AM, done - now,
                             addr)
            return done, LEVEL_AM
        if not self._inclusive:
            sr = node.slc_resident.get(line)
            if sr is not None:
                # Another local SLC supplies the line through the node
                # controller (intra-node cache-to-cache).
                done = self._am_access(node, now)
                if shadow is not None:
                    shadow.access(line)
                c.slc_neighbor_hits += 1
                sr[0] |= 1 << (proc % self._ppn)
                self._fill_slc(proc, node, line)
                if trace is not None:
                    trace.access(now, proc, "r", line, LEVEL_AM, done - now,
                                 addr)
                return done, LEVEL_AM

        # Read node miss.
        c.node_read_misses += 1
        self._classify_read_miss(node, line)
        if shadow is not None:
            shadow.access(line)
        info = self.lines.get(line)
        owner = self.nodes[info.owner_node]
        self._record_remote(TxKind.READ_DATA, node, owner, line)
        t = self._remote_path(node, owner, now)

        # Supplier side: E degrades to O (a shared copy now exists).
        self._owner_to_shared_state(owner, line, info)

        way = self.repl.make_room(node, line, t, mandatory=False)
        if way is None:
            # Uncached read: data delivered, no local copy retained.
            done = t + self._t_remote
            if trace is not None:
                trace.access(now, proc, "r", line, LEVEL_REMOTE,
                             done - now, addr)
            return done, LEVEL_REMOTE
        am.fill_way(way, line, SHARED)
        node.note_present(line)
        info.sharers.add(node.id)
        if trace is not None:
            trace.transition(t, node.id, line, "fill", "I", "S")
        s = node.dram.acquire(t, self._t_dram_busy, self._bg)
        done = s + self._t_dram_lat + self._t_remote
        am.aux_a[way] |= 1 << (proc % self._ppn)
        self._fill_slc(proc, node, line)
        if trace is not None:
            trace.phase("fill_dram", s + self._t_dram_lat)
            trace.access(now, proc, "r", line, LEVEL_REMOTE,
                         done - now, addr)
        return done, LEVEL_REMOTE

    def write(self, proc: int, addr: int, now: int) -> int:
        """One write drained from ``proc``'s write buffer at ``now``.

        Returns the completion time; under release consistency the
        processor does not wait for it unless the buffer is full or a
        release is pending.
        """
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
        """Atomic read-modify-write (synchronization accesses).

        The processor stalls for it (acquire semantics); returns
        ``(completion_time, level)`` for stall accounting.
        """
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

    # ------------------------------------------------------------------
    # write machinery
    # ------------------------------------------------------------------

    @hotpath
    def _write_access(self, proc: int, addr: int, now: int) -> tuple[int, str]:
        self.now = now
        c = self.counters
        line = addr >> self._shift
        trace = self.trace
        if (addr // self._page_size) not in self._page_home:
            self._materialize_page(addr, self.nodes[self._node_of[proc]], now)

        # Write-through, no-write-allocate L1 probe.
        if self._l1_direct:
            a = self._l1_arrays[proc]
            w = line % self._l1_nsets
            if a.line_a[w] == line and a.state_a[w]:
                a.tick += 1
                a.lru_a[w] = a.tick
        else:
            self.l1s[proc].write_hit(line)
        node = self.nodes[self._node_of[proc]]
        shadow = node.shadow
        slc = self.slcs[proc]
        slc_hit = line in slc.index
        info = self.lines.get(line)

        am = node.am
        way = am.index.get(line)
        sr = None
        if way is not None:
            local_state = am.state_a[way]
            where = LOC_AM
        elif line in node.overflow:
            local_state = node.overflow[line]
            where = LOC_OVERFLOW
            way = -1
        else:
            sr = node.slc_resident.get(line) if not self._inclusive else None
            local_state = sr[1] if sr is not None else INVALID
            where = LOC_SLC
            way = -1

        if local_state == EXCLUSIVE:
            if shadow is not None:
                shadow.access(line)
            if way >= 0:
                am.tick += 1
                am.lru_a[way] = am.tick
            return self._local_write_finish(proc, node, line, way, sr, slc_hit, now)

        if local_state == OWNER or local_state == SHARED:
            # Upgrade: erase every other copy, take exclusive ownership.
            c.upgrades += 1
            s = node.nc.acquire(now, self._t_nc_busy, self._bg)
            t = self._upgrade_broadcast(node, line, s + self._t_nc)
            self._invalidate_others(line, node)
            if trace is not None:
                trace.phase("nc_out", s + self._t_nc)
                trace.phase("upgrade_bus", t)
                trace.transition(t, node.id, line, "upgrade",
                                 state_name(local_state), "E")
            if way >= 0:
                am.state_a[way] = EXCLUSIVE
                am.tick += 1
                am.lru_a[way] = am.tick
            elif where == LOC_OVERFLOW:
                node.overflow[line] = EXCLUSIVE
            else:
                assert sr is not None
                sr[1] = EXCLUSIVE
            info.owner_node = node.id
            info.owner_loc = where
            # One clear() per exclusive branch; hoisting would tax the
            # branches that never touch it.
            info.sharers.clear()  # noqa: HOT003
            if shadow is not None:
                shadow.access(line)
            return self._local_write_finish(proc, node, line, way, sr, slc_hit, t)

        # Write node miss: read-exclusive on the bus.
        c.node_write_misses += 1
        c.read_exclusive += 1
        owner = self.nodes[info.owner_node]
        self._record_remote(TxKind.READ_EXCL, node, owner, line)
        t = self._remote_path(node, owner, now)
        self._invalidate_others(line, node)
        way = self.repl.make_room(node, line, t, mandatory=True)
        assert way is not None, "mandatory make_room returned None"
        if trace is not None:
            trace.transition(t, node.id, line, "read_exclusive", "I", "E")
        am.fill_way(way, line, EXCLUSIVE)
        node.note_present(line)
        info.owner_node = node.id
        info.owner_loc = LOC_AM
        info.sharers.clear()
        if shadow is not None:
            shadow.access(line)
        s = node.dram.acquire(t, self._t_dram_busy, self._bg)
        t = s + self._t_dram_lat
        am.aux_a[way] |= 1 << (proc % self._ppn)
        self._fill_slc(proc, node, line)
        self.slcs[proc].mark_dirty(line)
        if trace is not None:
            trace.phase("fill_dram", t)
        return t + self._t_remote, LEVEL_REMOTE

    @hotpath
    def _local_write_finish(
        self,
        proc: int,
        node: ComaNode,
        line: int,
        way: int,
        sr: Optional[list],
        slc_hit: bool,
        t: int,
    ) -> tuple[int, str]:
        """Complete a write whose node already holds exclusive ownership.

        ``way`` is the line's way in the node's AM, or -1 when the owner
        copy sits in the overflow buffer or (non-inclusive) a local SLC.
        """
        slc = self.slcs[proc]
        if slc_hit:
            s = self.slc_res[proc].acquire(t, self._t_slc_occ, self._bg)
            slc.mark_dirty(line)
            return s + self._t_slc, LEVEL_SLC
        if way >= 0:
            done = self._am_access(node, t)
            node.am.aux_a[way] |= 1 << (proc % self._ppn)
            self._fill_slc(proc, node, line)
            slc.mark_dirty(line)
            return done, LEVEL_AM
        if sr is not None:
            # Fetched from a neighbour SLC within the node (non-inclusive).
            done = self._am_access(node, t)
            sr[0] |= 1 << (proc % self._ppn)
            self._fill_slc(proc, node, line)
            slc.mark_dirty(line)
            return done, LEVEL_AM
        # Owner copy parked in overflow: write at AM level, no SLC fill.
        return self._am_access(node, t), LEVEL_AM

    # ------------------------------------------------------------------
    # protocol helpers
    # ------------------------------------------------------------------

    def _owner_to_shared_state(self, owner: ComaNode, line: int, info) -> None:
        """After supplying a read copy, the owner snoops ``remote_read``
        and degrades per the compiled table (E -> O; O stays O)."""
        degraded = self._st_degrade
        changed = False
        am = owner.am
        ow = am.index.get(line)
        if ow is not None:
            if am.state_a[ow] == EXCLUSIVE:
                am.state_a[ow] = degraded
                changed = True
        elif line in owner.overflow:
            if owner.overflow[line] == EXCLUSIVE:
                owner.overflow[line] = degraded
                changed = True
        elif line in owner.slc_resident:
            if owner.slc_resident[line][1] == EXCLUSIVE:
                owner.slc_resident[line][1] = degraded
                changed = True
        else:
            raise ProtocolError(
                f"owner node {owner.id} does not hold line {line:#x}"
            )
        if changed and self.trace is not None:
            self.trace.transition(self.now, owner.id, line, "remote_read",
                                  "E", state_name(degraded))

    def _invalidate_others(self, line: int, writer: ComaNode) -> None:
        """Erase every copy of ``line`` outside ``writer`` (upgrade or
        read-exclusive).  The line table is updated by the caller."""
        info = self.lines.get(line)
        c = self.counters
        for sid in list(info.sharers):
            if sid == writer.id:
                continue
            n = self.nodes[sid]
            w = n.am.index.get(line)
            if w is not None:
                self.strip_node_copy(n, w, REMOVED_INVALIDATED)
            else:
                sr = n.slc_resident.pop(line, None)
                if sr is None:
                    raise ProtocolError(f"sharer {sid} lost line {line:#x}")
                self._invalidate_mask(n, line, sr[0])
                n.note_removed(line, REMOVED_INVALIDATED)
                if n.shadow is not None:
                    n.shadow.remove(line)
            c.invalidations_sent += 1
            if self.trace is not None:
                self.trace.transition(self.now, sid, line, "invalidate",
                                      "S", "I")
        if info.owner_node != writer.id:
            onode = self.nodes[info.owner_node]
            if info.owner_loc == LOC_AM:
                w = onode.am.index.get(line)
                if w is None:
                    raise ProtocolError(f"owner {onode.id} lost line {line:#x}")
                prev = onode.am.state_a[w]
                self.strip_node_copy(onode, w, REMOVED_INVALIDATED)
            elif info.owner_loc == LOC_OVERFLOW:
                prev = onode.overflow.pop(line)
                onode.note_removed(line, REMOVED_INVALIDATED)
                if onode.shadow is not None:
                    onode.shadow.remove(line)
            else:  # LOC_SLC
                sr = onode.slc_resident.pop(line)
                prev = sr[1]
                self._invalidate_mask(onode, line, sr[0])
                onode.note_removed(line, REMOVED_INVALIDATED)
                if onode.shadow is not None:
                    onode.shadow.remove(line)
            c.invalidations_sent += 1
            if self.trace is not None:
                self.trace.transition(self.now, onode.id, line, "invalidate",
                                      state_name(prev), "I")

    def drop_shared_copy(self, node: ComaNode, way: int) -> None:
        """Silently drop the Shared replica held in ``way`` of ``node``'s
        AM (safe: an owner exists elsewhere).

        In a non-inclusive hierarchy, local SLC copies keep the node a
        sharer: only the AM way is surrendered.
        """
        am = node.am
        assert am.state_a[way] == SHARED
        line = am.line_a[way]
        aux = am.aux_a[way]
        if not self._inclusive and aux:
            node.slc_resident[line] = [aux, SHARED]
            am.aux_a[way] = 0
            am.invalidate_way(way)
            return
        info = self.lines.get(line)
        info.sharers.discard(node.id)
        self.counters.shared_drops += 1
        if self.trace is not None:
            self.trace.transition(self.now, node.id, line, "drop", "S", "I")
        self.strip_node_copy(node, way, REMOVED_EVICTED)

    def strip_node_copy(self, node: ComaNode, way: int, reason: str) -> None:
        """Remove AM ``way`` from ``node``: back-invalidate the local SLCs
        (inclusion), update shadow/miss bookkeeping, invalidate the way."""
        am = node.am
        line = am.line_a[way]
        self.backinvalidate_slcs(node, way)
        node.note_removed(line, reason)
        if reason == REMOVED_INVALIDATED and node.shadow is not None:
            node.shadow.remove(line)
        am.invalidate_way(way)

    def backinvalidate_slcs(self, node: ComaNode, way: int) -> None:
        """Purge the line in AM ``way`` from every local SLC/L1 caching it."""
        am = node.am
        aux = am.aux_a[way]
        if aux == 0:
            return
        self._invalidate_mask(node, am.line_a[way], aux)
        am.aux_a[way] = 0

    def _invalidate_mask(self, node: ComaNode, line: int, mask: int) -> None:
        base = node.id * self._ppn
        idx = 0
        while mask:
            if mask & 1:
                p = base + idx
                self.slcs[p].invalidate(line)
                self.l1s[p].invalidate(line)
                self.slc_res[p].acquire(self.now, self._t_slc_occ, self._bg)
                self.counters.back_invalidations += 1
            mask >>= 1
            idx += 1

    # ------------------------------------------------------------------
    # fills, paging, timing
    # ------------------------------------------------------------------

    @hotpath
    def _fill_slc(self, proc: int, node: ComaNode, line: int) -> None:
        """Install ``line`` into ``proc``'s SLC and L1 after an AM-level
        hit, a neighbour-SLC hit or a remote fill, handling the SLC
        victim.

        The caller sets ``proc``'s presence bit first — in ``am.aux_a``
        or in the line's ``slc_resident`` mask — so the victim's
        consequences see an accurate picture: in a non-inclusive
        hierarchy they can displace ``line`` itself from the AM (owner
        reinsertion picks a victim in the same set), and the
        displacement machinery then migrates the bit to
        ``slc_resident``.  The L1 fill happens only if the line survived
        in this SLC.

        The common victim case is handled here: the victim is still in
        the AM, so its presence bit is cleared, its L1 copy dropped and
        a dirty victim written back to DRAM.  A victim held only in
        local SLCs (non-inclusive) goes to :meth:`_handle_slc_victim`.
        """
        slc = self.slcs[proc]
        packed = slc.fill(line)
        l1_direct = self._l1_direct
        if packed >= 0:
            victim = packed >> 1
            if l1_direct:
                a = self._l1_arrays[proc]
                w = victim % self._l1_nsets
                if a.line_a[w] == victim and a.state_a[w]:
                    a.line_a[w] = -1
                    a.state_a[w] = 0
                    del a.index[victim]
            else:
                self.l1s[proc].invalidate(victim)
            am = node.am
            vw = am.index.get(victim)
            if vw is not None:
                am.aux_a[vw] &= ~(1 << (proc % self._ppn))
                if packed & 1:
                    node.dram.acquire(self.now, self._t_dram_busy, self._bg)
                    self.counters.slc_writebacks += 1
            else:
                self._handle_slc_victim(proc, node, victim)
        if line in slc.index:
            if l1_direct:
                a = self._l1_arrays[proc]
                w = line % self._l1_nsets
                if a.line_a[w] != line or not a.state_a[w]:
                    if a.state_a[w]:
                        del a.index[a.line_a[w]]
                    a.line_a[w] = line
                    a.state_a[w] = 1
                    a.index[line] = w
                    a.tick += 1
                    a.lru_a[w] = a.tick
            else:
                self.l1s[proc].fill(line)

    def _handle_slc_victim(self, proc: int, node: ComaNode, line: int) -> None:
        """Non-inclusive hierarchy: ``line`` left ``proc``'s SLC and is
        not in the AM, so it may exist *only* in local SLCs.  When the
        last SLC copy of an owner line goes, the line is written back
        into the AM (which may displace another owner through the normal
        replacement machinery) so the datum is never lost; the last copy
        of a shared line is dropped."""
        sr = node.slc_resident.get(line)
        if sr is None:
            return  # line already left the node at AM level
        sr[0] &= ~(1 << (proc % self._ppn))
        if sr[0]:
            return  # other local SLCs still hold it
        state = sr[1]
        del node.slc_resident[line]
        info = self.lines.get(line)
        if state == SHARED:
            info.sharers.discard(node.id)
            node.note_removed(line, REMOVED_EVICTED)
            self.counters.shared_drops += 1
            if self.trace is not None:
                self.trace.transition(self.now, node.id, line, "drop",
                                      "S", "I")
            return
        # Last copy of an owner line: reinsert into the attraction memory.
        way = self.repl.make_room(node, line, self.now, mandatory=True)
        assert way is not None
        node.am.fill_way(way, line, state)
        node.note_present(line)
        info.owner_loc = LOC_AM
        node.dram.acquire(self.now, self._t_dram_busy, self._bg)
        self.counters.slc_owner_reinserts += 1

    def _materialize_page(self, addr: int, node: ComaNode, now: int) -> None:
        """Materialize the page on first touch: its lines appear in the
        toucher's AM in Exclusive state, instantly and with no processor
        delay (paper section 3)."""
        page = self.space.page_of(addr)
        self.space.ensure_page(addr, node.id)
        self.counters.pages_allocated += 1
        for line in self.space.lines_of_page(page, self.config.line_size):
            self.lines.materialize(line, node.id)
            way = self.repl.make_room(node, line, now, mandatory=True)
            assert way is not None
            node.am.fill_way(way, line, EXCLUSIVE)
            node.note_present(line)
            if self.trace is not None:
                self.trace.transition(now, node.id, line, "materialize",
                                      "I", "E")

    @hotpath
    def _am_access(self, node: ComaNode, t0: int) -> int:
        """Charge one attraction-memory access: controller in, DRAM read,
        controller return.  Contention-free latency 148 ns.

        The foreground path opens the :class:`Resource` next-free math in
        line (the totals are identical to three ``acquire`` calls); the
        background path keeps the calls — posted writes are not latency
        critical.
        """
        nc = node.nc
        dram = node.dram
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        dram_busy = self._t_dram_busy
        if self._bg:
            s = nc.bg_next_free
            if s < t0:
                s = t0
            nc.bg_next_free = s + nc_busy
            t = s + nc_ns
            s = dram.bg_next_free
            if s < t:
                s = t
            dram.bg_next_free = s + dram_busy
            t = s + self._t_dram_lat
            s = nc.bg_next_free
            if s < t:
                s = t
            nc.bg_next_free = s + nc_busy
        else:
            s = nc.next_free
            if s < t0:
                s = t0
            nc.next_free = s + nc_busy
            t = s + nc_ns
            s = dram.next_free
            if s < t:
                s = t
            dram.next_free = s + dram_busy
            t = s + self._t_dram_lat
            s = nc.next_free
            if s < t:
                s = t
            nc.next_free = s + nc_busy
        nc.busy_ns += 2 * nc_busy
        nc.uses += 2
        dram.busy_ns += dram_busy
        dram.uses += 1
        return s + nc_ns

    # -- interconnect hooks (overridden by the hierarchical machine) -----

    def _record_remote(
        self, kind: TxKind, local: ComaNode, owner: ComaNode, line: int = -1
    ) -> None:
        """Meter one remote data transaction on the interconnect."""
        self.bus.record(kind, self.now, local.id, line)

    def _upgrade_broadcast(self, node: ComaNode, line: int, t: int) -> int:
        """Broadcast an upgrade/erase; returns its completion time."""
        self.bus.record(TxKind.UPGRADE, t, node.id, line)
        return self.bus.phase(t, self._bg)

    def charge_replacement(
        self,
        src: ComaNode,
        dst: Optional[ComaNode],
        now: int,
        data: bool,
        line: int = -1,
    ) -> None:
        """Meter and time a replacement transaction (probe, and the data
        transfer into ``dst`` when ``data``)."""
        self.bus.record(TxKind.REPLACE_PROBE, now, src.id, line)
        t = self.bus.phase(now, self._bg)
        if data:
            assert dst is not None
            self.bus.record(TxKind.REPLACE_DATA, t, src.id, line)
            t = self.bus.phase(t, self._bg)
            s = dst.nc.acquire(t, self._t_nc_busy, self._bg)
            dst.dram.acquire(s + self._t_nc, self._t_dram_busy, self._bg)

    def node_scan_order(self, exclude_id: int, rotor: int) -> list[ComaNode]:
        """Receiver scan order for the replacement engine: rotating round
        robin over all other nodes."""
        n = len(self.nodes)
        return [
            self.nodes[(rotor + k) % n]
            for k in range(n)
            if (rotor + k) % n != exclude_id
        ]

    @hotpath
    def _remote_path(self, local: ComaNode, owner: ComaNode, now: int) -> int:
        """Charge the remote fetch up to data arrival at the local
        controller: local NC, bus request, remote NC + DRAM, bus reply,
        local NC.  The local allocate/fill and fixed overhead are added by
        the caller (they differ between cached and uncached reads).

        The foreground path opens all seven resource acquisitions in line
        (grouped busy/uses totals, identical timing); the background path
        keeps the calls.
        """
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        trace = self.trace
        if self._bg:
            nc = local.nc
            bus = self.bus
            s = nc.acquire(now, nc_busy, True)
            t = bus.phase(s + nc_ns, True)
            if trace is not None:
                trace.phase("nc_out", s + nc_ns)
                trace.phase("bus_arb", bus.arb_start(t))
                trace.phase("bus_req", t)
            s = owner.nc.acquire(t, nc_busy, True)
            t = s + nc_ns
            s = owner.dram.acquire(t, self._t_dram_busy, True)
            t = bus.phase(s + self._t_dram_lat, True)
            if trace is not None:
                trace.phase("remote_am", s + self._t_dram_lat)
                trace.phase("bus_arb", bus.arb_start(t))
                trace.phase("bus_reply", t)
            s = nc.acquire(t, nc_busy, True)
            if trace is not None:
                trace.phase("nc_ret", s + nc_ns)
            return s + nc_ns
        lnc = local.nc
        onc = owner.nc
        odram = owner.dram
        bus = self.bus
        br = bus.resource
        bus_busy = bus._busy_ns
        bus_phase = bus._phase_ns
        # local NC out
        s = lnc.next_free
        if s < now:
            s = now
        lnc.next_free = s + nc_busy
        t = s + nc_ns
        if trace is not None:
            trace.phase("nc_out", t)
        # bus request phase
        b = br.next_free
        if b < t:
            b = t
        br.next_free = b + bus_busy
        if trace is not None:
            trace.bus_phase(bus.name, b - t, bus_busy)
            trace.phase("bus_arb", b)
            trace.phase("bus_req", b + bus_phase)
        t = b + bus_phase
        # owner NC in
        s = onc.next_free
        if s < t:
            s = t
        onc.next_free = s + nc_busy
        onc.busy_ns += nc_busy
        onc.uses += 1
        t = s + nc_ns
        # owner DRAM
        s = odram.next_free
        if s < t:
            s = t
        odram.next_free = s + self._t_dram_busy
        odram.busy_ns += self._t_dram_busy
        odram.uses += 1
        t = s + self._t_dram_lat
        if trace is not None:
            trace.phase("remote_am", t)
        # bus reply phase
        b = br.next_free
        if b < t:
            b = t
        br.next_free = b + bus_busy
        br.busy_ns += 2 * bus_busy
        br.uses += 2
        if trace is not None:
            trace.bus_phase(bus.name, b - t, bus_busy)
            trace.phase("bus_arb", b)
            trace.phase("bus_reply", b + bus_phase)
        t = b + bus_phase
        # local NC return
        s = lnc.next_free
        if s < t:
            s = t
        lnc.next_free = s + nc_busy
        lnc.busy_ns += 2 * nc_busy
        lnc.uses += 2
        if trace is not None:
            trace.phase("nc_ret", s + nc_ns)
        return s + nc_ns

    def _classify_read_miss(self, node: ComaNode, line: int) -> None:
        c = self.counters
        if line not in node.ever:
            c.read_miss_cold += 1
        elif node.removal_reason.get(line) == REMOVED_INVALIDATED:
            c.read_miss_coherence += 1
        elif node.shadow is not None and line in node.shadow:
            c.read_miss_conflict += 1
        else:
            c.read_miss_capacity += 1

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Machine-wide invariant check (used heavily by the test suite).

        Verifies the line table against the per-node arrays, the single-
        owner invariant, sharer bookkeeping, and inclusion (every SLC line
        present in its node's AM with the aux bit set; every L1 line in
        the SLC).
        """
        for node in self.nodes:
            node.am.check_consistency()
        for line, info in self.lines.items():
            onode = self.nodes[info.owner_node]
            if info.owner_loc == LOC_AM:
                e = onode.am.lookup(line)
                assert e is not None and is_owning(e.state), (
                    f"line {line:#x}: owner copy missing in node {onode.id}"
                )
                if info.sharers:
                    assert e.state == OWNER, f"line {line:#x}: E with sharers"
            elif info.owner_loc == LOC_OVERFLOW:
                assert line in onode.overflow, (
                    f"line {line:#x}: overflow owner missing in node {onode.id}"
                )
            else:  # LOC_SLC
                sr = onode.slc_resident.get(line)
                assert sr is not None and is_owning(sr[1]) and sr[0], (
                    f"line {line:#x}: SLC-resident owner missing in node {onode.id}"
                )
            for sid in info.sharers:
                n = self.nodes[sid]
                se = n.am.lookup(line)
                if se is not None:
                    assert se.state == SHARED, (
                        f"line {line:#x}: sharer {sid} inconsistent"
                    )
                else:
                    sr = n.slc_resident.get(line)
                    assert sr is not None and sr[1] == SHARED and sr[0], (
                        f"line {line:#x}: sharer {sid} holds no copy"
                    )
        # Reverse direction: every valid AM entry is registered.
        for node in self.nodes:
            for e in node.am.valid_entries():
                info = self.lines.maybe(e.line)
                assert info is not None, f"unregistered line {e.line:#x}"
                if e.state == SHARED:
                    assert node.id in info.sharers
                else:
                    assert info.owner_node == node.id and info.owner_loc == LOC_AM
            for line, sr in node.slc_resident.items():
                info = self.lines.maybe(line)
                assert info is not None and sr[0], f"bad slc_resident {line:#x}"
                assert line not in node.am, f"slc_resident line {line:#x} also in AM"
                if sr[1] == SHARED:
                    assert node.id in info.sharers
                else:
                    assert info.owner_node == node.id and info.owner_loc == LOC_SLC
        # Hierarchy relations.
        ppn = self.config.procs_per_node
        for p in range(self.config.n_processors):
            node = self.nodes[self._node_of[p]]
            bit = 1 << (p % ppn)
            for se in self.slcs[p].array.valid_entries():
                ae = node.am.lookup(se.line)
                if ae is not None:
                    assert ae.aux & bit, (
                        f"aux bit missing for SLC{p} line {se.line:#x}"
                    )
                elif self.config.inclusive:
                    raise AssertionError(
                        f"inclusion violated: SLC{p} holds {se.line:#x} not in AM"
                    )
                else:
                    sr = node.slc_resident.get(se.line)
                    assert sr is not None and sr[0] & bit, (
                        f"SLC{p} line {se.line:#x} untracked at node level"
                    )
            for le in self.l1s[p].array.valid_entries():
                assert le.line in self.slcs[p], (
                    f"L1{p} holds {le.line:#x} not in SLC"
                )

    # ------------------------------------------------------------------
    def owned_line_count(self) -> int:
        """Total owner lines machine-wide (equals materialized lines)."""
        total = 0
        for n in self.nodes:
            total += n.owned_lines_in_am() + len(n.overflow)
            total += sum(1 for sr in n.slc_resident.values() if is_owning(sr[1]))
        return total
