"""Host-speed probe: converts host seconds into nominal seconds.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to tens of seconds, which would swamp any change to the
simulator.  :meth:`SpeedProbe.probe` runs a fixed pure-Python loop shaped
like the simulator's inner work (a heap of processor clocks, random
indexing into a table of line objects, attribute updates) and returns
its rate relative to ``NOMINAL_RATE``.  The benchmark probes before each
point and after the last one, and scales each point's host seconds by
the mean of the two probes around it: the result is the seconds the
point would have taken on a host running the probe at ``NOMINAL_RATE``.
The probe uses no simulator code, so a change to the simulator moves
nominal times exactly as much as host times.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: Probe iterations per second that count as nominal speed: the median
#: rate over several minutes on a 2-CPU Intel Xeon at 2.1 GHz with
#: Python 3.11.  That host's speed drifted between about 0.7x and 2.3x it.
NOMINAL_RATE = 1.12e6
ITERATIONS = 50_000
#: 32k line objects (~3 MB): past the L2 cache, small beside the
#: simulator's own footprint in ``peak_rss_mb``.
_TABLE_BITS = 15


class _Proc:
    __slots__ = ("pid", "clock", "hits")

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.clock = 0
        self.hits = 0


class _Line:
    __slots__ = ("state", "owner", "sharers")

    def __init__(self) -> None:
        self.state = 0
        self.owner = -1
        self.sharers = 0


class SpeedProbe:
    """Owns the probe's line table."""

    def __init__(self) -> None:
        self._table = [_Line() for _ in range(1 << _TABLE_BITS)]

    def probe(self) -> float:
        """Run the loop once; return host speed as a multiple of nominal."""
        table = self._table
        mask = (1 << _TABLE_BITS) - 1
        procs = [_Proc(i) for i in range(16)]
        heap = [(0, i) for i in range(16)]
        recent = {}
        x = 12345
        t0 = perf_counter()
        for _ in range(ITERATIONS):
            clock, pid = heapq.heappop(heap)
            p = procs[pid]
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            ln = table[x & mask]
            if ln.owner == pid:
                p.hits += 1
                clock += 4
            else:
                ln.owner = pid
                ln.state = (ln.state + 1) & 3
                ln.sharers |= 1 << (pid & 7)
                recent[x & 0xFFFF] = clock
                clock += 100
            p.clock = clock
            heapq.heappush(heap, (clock, pid))
        return ITERATIONS / (perf_counter() - t0) / NOMINAL_RATE
