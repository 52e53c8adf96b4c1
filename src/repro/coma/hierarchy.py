"""Hierarchical (DDM-style) COMA machine.

The paper's flat bus-based COMA descends from the Data Diffusion Machine
(Hagersten, Landin & Haridi — the paper's reference [6]), which arranges
nodes under a *hierarchy of buses*: nodes share a group bus, and group
directories connect the groups over a top bus.  A miss first snoops the
group bus; only if no copy exists in the group does the group directory
forward the request over the top bus.

This machine reuses the entire flat protocol (attraction memories, E/O/S/I
states, accept-based replacement) and overrides only the interconnect:

* **remote path** — in-group fetches skip the top bus entirely (they cost
  a shorter latency and no top-bus bandwidth); cross-group fetches pay
  both buses plus a directory lookup each way;
* **replacement receivers** — in-group nodes are scanned first, so evicted
  owners stay close (the DDM's locality argument);
* **traffic metering** — ``machine.bus`` is the *top* bus (the global
  traffic the paper's figures plot); per-group buses are metered
  separately in ``group_buses``.

Group membership bookkeeping (who holds a copy below each directory) is
tracked exactly by the simulator's line table; directory lookup cost is
charged as one node-controller time per level.
"""

from __future__ import annotations

from repro.bus.sharedbus import SharedBus
from repro.bus.transaction import TxKind
from repro.coma.machine import ComaMachine
from repro.coma.node import ComaNode
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.mem.address import AddressSpace


class HierarchicalComaMachine(ComaMachine):
    """Two-level COMA: ``n_groups`` groups of nodes under a top bus."""

    def __init__(
        self, config: MachineConfig, space: AddressSpace, n_groups: int = 4
    ) -> None:
        super().__init__(config, space)
        if n_groups < 1 or config.n_nodes % n_groups:
            raise ConfigError(
                f"n_groups={n_groups} must divide n_nodes={config.n_nodes}"
            )
        self.n_groups = n_groups
        self.nodes_per_group = config.n_nodes // n_groups
        #: self.bus (from the base class) is the top bus; these are the
        #: per-group buses.
        self.group_buses = [
            SharedBus(config.timing, config.line_size, name=f"gbus{g}")
            for g in range(n_groups)
        ]

    def set_trace(self, sink) -> None:
        super().set_trace(sink)
        for gb in self.group_buses:
            gb.trace = sink

    # ------------------------------------------------------------------
    def group_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_group

    def same_group(self, a: ComaNode, b: ComaNode) -> bool:
        return self.group_of(a.id) == self.group_of(b.id)

    @property
    def top_bus_bytes(self) -> int:
        return self.bus.total_bytes

    @property
    def group_bus_bytes(self) -> int:
        return sum(b.total_bytes for b in self.group_buses)

    # ------------------------------------------------------------------
    # interconnect overrides
    # ------------------------------------------------------------------

    def _record_remote(
        self, kind: TxKind, local: ComaNode, owner: ComaNode, line: int = -1
    ) -> None:
        gb = self.group_buses[self.group_of(local.id)]
        gb.record(kind, self.now, local.id, line)
        if not self.same_group(local, owner):
            # The request also crosses the top bus and the owner's group bus.
            self.bus.record(kind, self.now, local.id, line)
            self.group_buses[self.group_of(owner.id)].record(
                kind, self.now, local.id, line
            )

    def _remote_path(self, local: ComaNode, owner: ComaNode, now: int) -> int:
        nc_busy = self._t_nc_busy
        nc_ns = self._t_nc
        trace = self.trace
        lg = self.group_buses[self.group_of(local.id)]
        s = local.nc.acquire(now, nc_busy, self._bg)
        t = lg.phase(s + nc_ns, self._bg)  # group bus request
        if trace is not None:
            trace.phase("nc_out", s + nc_ns)
            trace.phase("bus_arb", lg.arb_start(t))
            trace.phase("gbus_req", t)
        if self.same_group(local, owner):
            # Snooped within the group: owner answers over the group bus.
            s = owner.nc.acquire(t, nc_busy, self._bg)
            t = s + nc_ns
            s = owner.dram.acquire(t, self._t_dram_busy, self._bg)
            t = lg.phase(s + self._t_dram_lat, self._bg)
            if trace is not None:
                trace.phase("remote_am", s + self._t_dram_lat)
                trace.phase("bus_arb", lg.arb_start(t))
                trace.phase("gbus_reply", t)
        else:
            # Group directory forwards over the top bus to the owner group.
            og = self.group_buses[self.group_of(owner.id)]
            t += nc_ns                         # local group directory lookup
            if trace is not None:
                trace.phase("dir_lookup", t)
            t = self.bus.phase(t, self._bg)              # top bus request
            if trace is not None:
                trace.phase("bus_arb", self.bus.arb_start(t))
                trace.phase("tbus_req", t)
            t += nc_ns                         # remote group directory
            if trace is not None:
                trace.phase("dir_lookup", t)
            t = og.phase(t, self._bg)                    # owner group bus
            if trace is not None:
                trace.phase("bus_arb", og.arb_start(t))
                trace.phase("gbus_req", t)
            s = owner.nc.acquire(t, nc_busy, self._bg)
            t = s + nc_ns
            s = owner.dram.acquire(t, self._t_dram_busy, self._bg)
            t = og.phase(s + self._t_dram_lat, self._bg)
            if trace is not None:
                trace.phase("remote_am", s + self._t_dram_lat)
                trace.phase("gbus_reply", t)
            t = self.bus.phase(t, self._bg)              # top bus reply
            if trace is not None:
                trace.phase("bus_arb", self.bus.arb_start(t))
                trace.phase("tbus_reply", t)
            t = lg.phase(t + nc_ns, self._bg)            # back down the local group
            if trace is not None:
                trace.phase("gbus_reply", t)
        s = local.nc.acquire(t, nc_busy, self._bg)
        if trace is not None:
            trace.phase("nc_ret", s + nc_ns)
        return s + nc_ns

    def _upgrade_broadcast(self, node: ComaNode, line: int, t: int) -> int:
        """Erase goes up only as far as copies exist (DDM's point: the
        directories know whether anything outside the group has a copy)."""
        info = self.lines.maybe(line)
        lg = self.group_buses[self.group_of(node.id)]
        lg.record(TxKind.UPGRADE, t, node.id, line)
        t = lg.phase(t, self._bg)
        holder_groups: set[int] = set()
        if info is not None:
            holders = set(info.sharers)
            holders.add(info.owner_node)
            holders.discard(node.id)
            holder_groups = {self.group_of(h) for h in holders}
            holder_groups.discard(self.group_of(node.id))
        if holder_groups:
            # The directories know which groups hold copies: the erase
            # crosses the top bus and descends only into those groups.
            self.bus.record(TxKind.UPGRADE, t, node.id, line)
            t = self.bus.phase(t, self._bg)
            for g in holder_groups:
                self.group_buses[g].record(TxKind.UPGRADE, t, node.id, line)
        return t

    def charge_replacement(self, src, dst, now, data: bool, line: int = -1) -> None:
        lg = self.group_buses[self.group_of(src.id)]
        lg.record(TxKind.REPLACE_PROBE, now, src.id, line)
        t = lg.phase(now, self._bg)
        if not data:
            return
        assert dst is not None
        if self.same_group(src, dst):
            lg.record(TxKind.REPLACE_DATA, t, src.id, line)
            t = lg.phase(t, self._bg)
        else:
            dg = self.group_buses[self.group_of(dst.id)]
            for b, kind in (
                (self.bus, TxKind.REPLACE_PROBE),
                (self.bus, TxKind.REPLACE_DATA),
                (dg, TxKind.REPLACE_DATA),
            ):
                b.record(kind, t, src.id, line)
            t = self.bus.phase(t, self._bg)
            t = dg.phase(t, self._bg)
        s = dst.nc.acquire(t, self._t_nc_busy, self._bg)
        dst.dram.acquire(s + self._t_nc, self._t_dram_busy, self._bg)

    def node_scan_order(self, exclude_id: int, rotor: int):
        """In-group receivers first (rotating), then the rest — evicted
        owners stay close to their ejecting node when possible."""
        order = super().node_scan_order(exclude_id, rotor)
        g = self.group_of(exclude_id)
        return sorted(order, key=lambda n: self.group_of(n.id) != g)
