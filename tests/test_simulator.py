"""Tests for the simulation kernel: event dispatch, synchronization,
determinism, deadlock detection, and stall-accounting conservation."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.simulator import Simulation
from repro.sync.primitives import SyncSpace
from tests.conftest import make_machine

LINE = 64


def build(programs, n_locks=2, n_barriers=2, **machine_kw):
    machine = make_machine(
        n_processors=max(4, len(programs)), procs_per_node=2, **machine_kw
    )
    sync = SyncSpace(machine.space, LINE, n_locks, n_barriers)
    return Simulation(machine, programs, sync)


class TestBasics:
    def test_compute_advances_clock_and_busy(self):
        sim = build([iter([("c", 400)])])
        res = sim.run()
        assert sim.procs[0].clock == 400
        assert res.stalls[0]["busy"] == 400

    def test_read_charges_level(self):
        sim = build([iter([("r", 0)])])
        res = sim.run()
        assert res.stalls[0]["am"] == 148

    def test_write_is_buffered_not_stalling(self):
        sim = build([iter([("w", 0), ("c", 4)])])
        res = sim.run()
        # The write costs the processor nothing; only the compute shows.
        assert res.stalls[0]["busy"] == 4
        assert res.counters["writes"] == 1

    def test_unknown_event_raises(self):
        sim = build([iter([("zz", 1)])])
        with pytest.raises(SimulationError):
            sim.run()

    def test_event_budget(self):
        def forever():
            while True:
                yield ("c", 1)

        sim = build([forever()])
        sim.max_events = 100
        with pytest.raises(SimulationError, match="budget"):
            sim.run()

    def test_result_elapsed_is_max_clock(self):
        sim = build([iter([("c", 100)]), iter([("c", 900)])])
        res = sim.run()
        assert res.elapsed_ns == 900


class TestDeterminism:
    def test_same_programs_same_result(self):
        def prog(tid):
            def gen():
                for k in range(50):
                    yield ("r", (tid * 64 + k % 8) * LINE)
                    yield ("c", 10)
                    yield ("w", (tid * 64 + k % 8) * LINE)
                yield ("b", 0)

            return gen()

        r1 = build([prog(t) for t in range(4)]).run()
        r2 = build([prog(t) for t in range(4)]).run()
        assert r1.elapsed_ns == r2.elapsed_ns
        assert r1.counters == r2.counters
        assert r1.traffic_bytes == r2.traffic_bytes


class TestLocks:
    def test_mutual_exclusion_orders_critical_sections(self):
        order = []

        def prog(tid):
            def gen():
                yield ("c", 10 * (tid + 1))
                yield ("l", 0)
                order.append(("in", tid))
                yield ("c", 100)
                order.append(("out", tid))
                yield ("u", 0)

            return gen()

        build([prog(t) for t in range(4)]).run()
        # Critical sections never interleave.
        for k in range(0, len(order), 2):
            assert order[k][0] == "in" and order[k + 1][0] == "out"
            assert order[k][1] == order[k + 1][1]

    def test_lock_waiters_wake_in_fifo_order(self):
        entered = []

        def prog(tid):
            def gen():
                yield ("c", 32 * tid)  # strictly staggered arrival: 0 first
                yield ("l", 0)
                entered.append(tid)
                yield ("c", 500)
                yield ("u", 0)

            return gen()

        build([prog(t) for t in range(4)]).run()
        assert entered == [0, 1, 2, 3]

    def test_release_without_hold_raises(self):
        sim = build([iter([("u", 0)])])
        with pytest.raises(SimulationError):
            sim.run()

    def test_lock_traffic_recorded(self):
        def prog(tid):
            def gen():
                yield ("l", 0)
                yield ("c", 50)
                yield ("u", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        res = sim.run()
        assert res.counters["lock_acquires"] == 4
        assert res.counters["atomics"] >= 4


class TestBarriers:
    def test_barrier_synchronizes_clocks(self):
        def prog(tid):
            def gen():
                yield ("c", 100 * (tid + 1))
                yield ("b", 0)
                yield ("c", 10)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.run()
        # Everyone resumed at or after the slowest arrival (400 ns busy).
        assert min(p.clock for p in sim.procs) > 400

    def test_barrier_reusable_across_episodes(self):
        def prog(tid):
            def gen():
                for _ in range(5):
                    yield ("c", 10 + tid)
                    yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        res = sim.run()
        assert res.counters["barrier_episodes"] == 5

    def test_single_thread_barrier_is_nonblocking(self):
        sim = build([iter([("b", 0), ("c", 5)])])
        res = sim.run()
        assert res.counters["barrier_episodes"] == 1


class TestAccountingConservation:
    def test_stall_categories_sum_to_clock(self):
        """Each processor's category times must add up to its final clock
        (nothing double-counted, nothing lost)."""

        def prog(tid):
            def gen():
                for k in range(40):
                    yield ("r", ((tid * 16 + k) % 64) * LINE)
                    yield ("c", 17)
                    yield ("w", ((tid * 16 + k) % 64) * LINE)
                    if k % 10 == 0:
                        yield ("l", 0)
                        yield ("c", 5)
                        yield ("u", 0)
                yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.run()
        for p in sim.procs:
            assert p.acct.total == p.clock, (
                f"proc {p.pid}: accounted {p.acct.total} != clock {p.clock}"
            )

    def test_consistency_checks_during_run(self):
        def prog(tid):
            def gen():
                for k in range(60):
                    yield ("r", ((tid * 7 + k) % 48) * LINE)
                    yield ("w", ((k * 3 + tid) % 48) * LINE)
                yield ("b", 0)

            return gen()

        sim = build([prog(t) for t in range(4)])
        sim.check_every = 25
        sim.run()
        sim.machine.check_consistency()


def _mixed_prog(tid, n_iter=40):
    """Reads, writes, compute, a lock and a barrier: every loop arm."""

    def gen():
        for k in range(n_iter):
            yield ("r", ((tid * 7 + k) % 48) * LINE)
            yield ("c", 9)
            yield ("w", ((k * 3 + tid) % 48) * LINE)
            if k % 8 == 0:
                yield ("l", 0)
                yield ("w", 60 * LINE)
                yield ("u", 0)
        yield ("b", 0)

    return gen()


#: Events in one ``_mixed_prog`` thread at the default ``n_iter``.
MIXED_EVENTS = 40 * 3 + 5 * 3 + 1


class _Log:
    """Records the event counts at which the kernel's checkpoints fire."""

    def __init__(self, sim):
        self.sim = sim
        self.calls: list[tuple[str, int]] = []
        check = sim.machine.check_consistency

        def counted_check():
            self.calls.append(("check", sim.events_processed))
            check()

        sim.machine.check_consistency = counted_check

    def sample(self, machine):
        self.calls.append(("sample", self.sim.events_processed))

    def at(self, kind):
        return [n for k, n in self.calls if k == kind]


class TestEventLoopCheckpoints:
    """The budget, consistency check and profiler sample share one stop
    counter in the event loop; each must still fire on exactly the
    events the per-event checks picked."""

    N = 4 * MIXED_EVENTS

    def _sim(self):
        return build([_mixed_prog(t) for t in range(4)])

    def test_events_processed_exact_after_run(self):
        sim = self._sim()
        sim.run()
        assert sim.events_processed == self.N

    def test_budget_equal_to_work_does_not_fire(self):
        sim = self._sim()
        sim.max_events = self.N
        sim.run()
        assert sim.events_processed == self.N

    def test_budget_fires_on_the_event_after_it(self):
        pulled = []

        def forever():
            while True:
                pulled.append(1)
                yield ("c", 4)

        sim = build([forever()])
        sim.max_events = 100
        with pytest.raises(SimulationError, match="budget exceeded \\(100\\)"):
            sim.run()
        assert sim.events_processed == 101
        assert len(pulled) == 101
        # Event 101 was pulled but never dispatched.
        assert sim.procs[0].acct.busy == 100 * 4

    def test_events_processed_exact_after_a_dispatch_error(self):
        sim = build([iter([("c", 4), ("r", 0), ("zz", 1), ("c", 4)])])
        with pytest.raises(SimulationError, match="unknown event opcode"):
            sim.run()
        assert sim.events_processed == 3

    @pytest.mark.parametrize("k", [1, 7, 25, 10_000])
    def test_check_every_fires_floor_n_over_k_times(self, k):
        sim = self._sim()
        log = _Log(sim)
        sim.check_every = k
        sim.run()
        assert log.at("check") == list(range(k, self.N + 1, k))
        assert len(log.at("check")) == self.N // k

    @pytest.mark.parametrize("e", [1, 13, 100, 10_000])
    def test_profiler_samples_floor_n_over_e_times(self, e):
        sim = self._sim()
        log = _Log(sim)
        sim.attach(log, every=e)
        sim.run()
        assert log.at("sample") == list(range(e, self.N + 1, e))
        assert not log.at("check")

    def test_coprime_intervals_keep_both_counts_and_the_order(self):
        sim = self._sim()
        log = _Log(sim)
        sim.check_every = 7
        sim.attach(log, every=5)
        sim.max_events = self.N
        sim.run()
        assert log.at("check") == list(range(7, self.N + 1, 7))
        assert log.at("sample") == list(range(5, self.N + 1, 5))
        # On a common multiple the check runs before the sample.
        i = log.calls.index(("check", 35))
        assert log.calls[i + 1] == ("sample", 35)

    @pytest.mark.parametrize("overrides", [
        {"consistency": "sc"},
        {"write_buffer_coalescing": True, "procs_per_node": 2},
        {"machine": "hcoma", "hierarchy_groups": 2},
        {"machine": "numa", "procs_per_node": 2},
    ], ids=["sc", "coalescing", "hcoma", "numa"])
    def test_checkpoint_path_leaves_results_identical(self, overrides):
        from repro.experiments.runner import RunSpec, build_simulation

        spec = RunSpec("barnes", scale=0.05, memory_pressure=0.875,
                       **overrides)
        plain = build_simulation(spec)
        expected = plain.run().to_dict()
        checked = build_simulation(spec)
        checked.check_every = 1
        log = _Log(checked)
        checked.attach(log, every=1)
        assert checked.run().to_dict() == expected
        assert expected["counters"]["lock_acquires"] > 0
        n = plain.events_processed
        assert checked.events_processed == n > 0
        assert len(log.at("check")) == len(log.at("sample")) == n
