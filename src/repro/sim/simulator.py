"""The conservative event-ordered simulation loop.

Each processor owns a clock; the loop always advances the processor with
the minimum clock, pulling events from its workload generator, so requests
reach every contended resource in non-decreasing time order (see
``repro.timing.resource``).  Synchronization is orchestrated here: lock
waiters and barrier parties block (leave the ready heap) and are woken by
the releasing processor with the appropriate memory traffic charged.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.common.errors import ReproError, SimulationError
from repro.cpu.processor import Processor
from repro.sim.events import (
    EV_BARRIER,
    EV_COMPUTE,
    EV_LOCK,
    EV_READ,
    EV_UNLOCK,
    EV_WRITE,
)
from repro.sim.results import SimulationResult
from repro.obs.timeline import CompositeProfiler
from repro.sync.primitives import SimBarrier, SimLock, SyncSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.coma.machine import ComaMachine


class Simulation:
    """Couples workload threads to a :class:`ComaMachine`."""

    def __init__(
        self,
        machine: "ComaMachine",
        programs: Sequence[Iterator],
        sync: Optional[SyncSpace] = None,
        max_events: int = 200_000_000,
        check_every: int = 0,
        profiler=None,
        profile_every: int = 5000,
        observers: Sequence = (),
    ) -> None:
        if len(programs) > machine.config.n_processors:
            raise SimulationError(
                f"{len(programs)} threads > {machine.config.n_processors} processors"
            )
        self.machine = machine
        self.sync = sync
        #: Set by the runner; lets attached analyses (the coherence
        #: sanitizer) read the workload's sharing declarations.
        self.workload = None
        self.max_events = max_events
        self.check_every = check_every
        self.profiler = None
        self.profile_every = profile_every
        if profiler is not None:
            self.attach(profiler, every=profile_every)
        for obs in observers:
            self.attach(obs)
        timing = machine.config.timing
        coalesce = machine.config.write_buffer_coalescing
        self.procs = [
            Processor(pid, timing, prog, wb_coalescing=coalesce)
            for pid, prog in enumerate(programs)
        ]
        #: Sequential consistency stalls the processor on every write.
        self._sc = machine.config.consistency == "sc"
        self._shift = machine.config.line_shift
        self.n_participants = len(self.procs)
        self._heap: list[tuple[int, int]] = []
        self.events_processed = 0

    # ------------------------------------------------------------------
    def attach(self, observer, every: Optional[int] = None) -> None:
        """Attach an observer through the one uniform path.

        Every observer kind hangs off the simulation the same way:
        objects exposing ``attach_to(sim, every=)`` wire themselves in
        (trace sinks tee onto ``machine.trace``, and so does the
        :class:`~repro.obs.metrics.MetricsSink` of a
        :class:`~repro.obs.metrics.MetricsRegistry`); anything exposing
        ``sample(machine)`` registers as a sampling profiler, merged into a
        :class:`~repro.obs.timeline.CompositeProfiler` when one is
        already attached.  ``every`` overrides the sampling interval for
        profilers and is forwarded to ``attach_to`` hooks.
        """
        hook = getattr(observer, "attach_to", None)
        if hook is not None:
            hook(self, every=every)
            return
        if hasattr(observer, "sample"):
            if every is not None:
                self.profile_every = every
            if self.profiler is None:
                self.profiler = observer
            elif isinstance(self.profiler, CompositeProfiler):
                self.profiler.profilers.append(observer)
            else:
                self.profiler = CompositeProfiler([self.profiler, observer])
            return
        raise SimulationError(
            f"cannot attach {type(observer).__name__}: it exposes neither "
            "attach_to(sim, every=) nor sample(machine)"
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run every thread to completion and collect the results.

        If the run dies (deadlock, protocol invariant violation, event
        budget) and a trace sink is attached, the sink's
        ``on_simulation_error`` hook fires — the flight recorder uses it
        to dump the last events before the crash — and the rendered dump
        (if any) is attached to the exception as ``flight_dump``.  A span
        builder in front of the sink appends the access in flight.
        """
        try:
            heap = self._heap
            for p in self.procs:
                heapq.heappush(heap, (p.clock, p.pid))
            while heap:
                clock, pid = heapq.heappop(heap)
                p = self.procs[pid]
                if p.done or p.blocked or p.clock != clock:
                    continue  # stale entry
                self._advance(p)
            self._check_finished()
        except (AssertionError, ReproError) as exc:
            trace = getattr(self.machine, "trace", None)
            if trace is not None:
                exc.flight_dump = trace.on_simulation_error(exc)
            raise
        return self._collect()

    def _advance(self, p: Processor) -> None:
        """Run ``p`` until it blocks, finishes, or passes the next clock."""
        heap = self._heap
        program = p.program
        assert program is not None
        while True:
            try:
                ev = next(program)
            except StopIteration:
                p.done = True
                now, stall = p.wb.drain(p.clock)
                p.acct.write += stall
                p.clock = now
                return
            self.events_processed += 1
            if self.events_processed > self.max_events:
                raise SimulationError(
                    f"event budget exceeded ({self.max_events}); runaway workload?"
                )
            if self.check_every and self.events_processed % self.check_every == 0:
                self.machine.check_consistency()
            if (
                self.profiler is not None
                and self.events_processed % self.profile_every == 0
            ):
                self.profiler.sample(self.machine)
            self._dispatch(p, ev)
            if p.blocked:
                return
            if heap and p.clock > heap[0][0]:
                heapq.heappush(heap, (p.clock, p.pid))
                return

    # ------------------------------------------------------------------
    def _dispatch(self, p: Processor, ev: tuple) -> None:
        op = ev[0]
        m = self.machine
        if op == EV_READ:
            done, level = m.read(p.pid, ev[1], p.clock)
            self._charge(p, level, done - p.clock)
            p.clock = done
        elif op == EV_WRITE:
            if self._sc:
                # Sequential consistency: the store must complete before
                # the processor proceeds (the ablation's whole cost).
                done, level = m.write_stalling(p.pid, ev[1], p.clock)
                self._charge(p, level, done - p.clock)
                p.clock = done
                return
            line = ev[1] >> self._shift
            if p.wb.try_coalesce(line, p.clock):
                m.counters.wb_coalesced += 1
                return
            now, stall = p.wb.wait_for_slot(p.clock)
            if stall:
                p.acct.write += stall
            completion = m.write(p.pid, ev[1], now)
            p.wb.push(completion, line)
            p.clock = now
        elif op == EV_COMPUTE:
            ns = m.timing.instructions_ns(ev[1])
            p.acct.busy += ns
            p.clock += ns
        elif op == EV_LOCK:
            self._acquire(p, self._lock(ev[1]))
        elif op == EV_UNLOCK:
            self._release(p, self._lock(ev[1]))
        elif op == EV_BARRIER:
            self._barrier(p, self._barrier_obj(ev[1]))
        else:
            raise SimulationError(f"unknown event opcode {op!r}")

    @staticmethod
    def _charge(p: Processor, level: str, dt: int) -> None:
        if dt <= 0:
            return
        if level == "l1":
            p.acct.busy += dt
        else:
            p.acct.add(level, dt)

    def _lock(self, lock_id: int) -> SimLock:
        if self.sync is None:
            raise SimulationError("workload uses locks but no SyncSpace was provided")
        return self.sync.lock(lock_id)

    def _barrier_obj(self, barrier_id: int) -> SimBarrier:
        if self.sync is None:
            raise SimulationError("workload uses barriers but no SyncSpace was provided")
        return self.sync.barrier(barrier_id)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------

    def _acquire(self, p: Processor, lock: SimLock) -> None:
        if lock.holder is None:
            done, level = self.machine.rmw(p.pid, lock.addr, p.clock)
            self._charge(p, level, done - p.clock)
            p.clock = done
            lock.holder = p.pid
            self.machine.counters.lock_acquires += 1
            trace = getattr(self.machine, "trace", None)
            if trace is not None:
                trace.syncop(done, p.pid, "acquire", "lock", lock.lock_id)
        else:
            lock.waiters.append(p.pid)
            p.block()

    def _release(self, p: Processor, lock: SimLock) -> None:
        if lock.holder != p.pid:
            raise SimulationError(
                f"processor {p.pid} releasing lock {lock.lock_id} "
                f"held by {lock.holder}"
            )
        # Release consistency: drain the write buffer first.
        now, stall = p.wb.drain(p.clock)
        p.acct.write += stall
        p.clock = now
        handoff = self.machine.write(p.pid, lock.addr, p.clock)
        lock.holder = None
        trace = getattr(self.machine, "trace", None)
        if trace is not None:
            trace.syncop(p.clock, p.pid, "release", "lock", lock.lock_id)
        if lock.waiters:
            wpid = lock.waiters.popleft()
            # The release invalidated every waiter's cached copy of the
            # lock line; each spins through one refetch (traffic only).
            for other in lock.waiters:
                self.machine.read(other, lock.addr, handoff)
            done, _lvl = self.machine.rmw(wpid, lock.addr, handoff)
            lock.holder = wpid
            self.machine.counters.lock_acquires += 1
            wp = self.procs[wpid]
            wp.unblock(done)
            if trace is not None:
                trace.sync(
                    wp.clock, wpid, "lock", lock.lock_id,
                    wp.clock - wp.block_start,
                )
                trace.syncop(done, wpid, "acquire", "lock", lock.lock_id)
            heapq.heappush(self._heap, (wp.clock, wpid))

    def _barrier(self, p: Processor, b: SimBarrier) -> None:
        # Barrier arrival is a release point.
        now, stall = p.wb.drain(p.clock)
        p.acct.write += stall
        p.clock = now
        done, level = self.machine.rmw(p.pid, b.addr, p.clock)
        self._charge(p, level, done - p.clock)
        p.clock = done
        b.arrived[p.pid] = done
        trace = getattr(self.machine, "trace", None)
        if trace is not None:
            trace.syncop(done, p.pid, "arrive", "barrier", b.barrier_id)
        if len(b.arrived) < self.n_participants:
            p.block()
            return
        # Last arriver: flip the sense and wake everyone.
        release_t = max(b.arrived.values())
        sense_done = self.machine.write(p.pid, b.addr, release_t)
        self.machine.counters.barrier_episodes += 1
        for pid2 in b.arrived:
            if pid2 == p.pid:
                continue
            q = self.procs[pid2]
            rdone, _lvl = self.machine.read(pid2, b.addr, sense_done)
            q.unblock(rdone)
            if trace is not None:
                trace.sync(
                    q.clock, pid2, "barrier", b.barrier_id,
                    q.clock - q.block_start,
                )
                trace.syncop(rdone, pid2, "depart", "barrier", b.barrier_id)
            heapq.heappush(self._heap, (q.clock, pid2))
        if sense_done > p.clock:
            p.acct.sync += sense_done - p.clock
            p.clock = sense_done
        if trace is not None:
            trace.syncop(p.clock, p.pid, "depart", "barrier", b.barrier_id)
        b.arrived.clear()
        b.generation += 1

    # ------------------------------------------------------------------
    def _check_finished(self) -> None:
        stuck = [p.pid for p in self.procs if not p.done]
        if stuck:
            raise SimulationError(
                f"simulation ended with blocked processors {stuck}; "
                "lock/barrier deadlock in the workload?"
            )

    def _collect(self) -> SimulationResult:
        elapsed = max((p.clock for p in self.procs), default=0)
        trace = getattr(self.machine, "trace", None)
        if trace is not None:
            trace.run_end(elapsed, self.events_processed,
                          self.machine.counters)
        return SimulationResult.build(self.machine, self.procs, elapsed)
