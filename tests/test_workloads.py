"""Workload tests: registry, structure, and end-to-end runs of all 14
paper applications plus the synthetic streams at reduced scale."""

from __future__ import annotations

import pytest

from repro.experiments.runner import RunSpec, build_simulation
from repro.mem.address import AddressSpace
from repro.workloads.registry import get_workload, paper_workloads, workload_names

#: Reduced scales keep the full-suite test fast while still exercising
#: every phase of every kernel.
SCALE = {
    "barnes": 0.4,
    "cholesky": 0.5,
    "fft": 0.5,
    "fmm": 0.5,
    "lu_contig": 0.5,
    "lu_noncontig": 0.5,
    "ocean_contig": 0.5,
    "ocean_noncontig": 0.5,
    "radiosity": 0.4,
    "radix": 0.4,
    "raytrace": 0.4,
    "volrend": 0.5,
    "water_n2": 0.5,
    "water_sp": 0.6,
}


class TestRegistry:
    def test_all_paper_apps_registered(self):
        assert len(paper_workloads()) == 14, "Table 1 has 14 applications"

    def test_paper_order_matches_table1(self):
        assert paper_workloads()[:3] == ["barnes", "cholesky", "fft"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nonexistent")

    def test_synthetics_registered_but_not_paper(self):
        names = workload_names()
        assert "synth_uniform" in names
        assert "synth_uniform" not in paper_workloads()

    def test_workload_param_validation(self):
        with pytest.raises(ValueError):
            get_workload("fft", n_threads=0)
        with pytest.raises(ValueError):
            get_workload("fft", scale=0)


class TestPartitioning:
    def test_chunk_covers_range_exactly(self):
        wl = get_workload("fft", n_threads=16)
        seen = []
        for t in range(16):
            seen.extend(wl.chunk(100, t))
        assert seen == list(range(100))

    def test_chunk_contiguous(self):
        wl = get_workload("fft", n_threads=4)
        for t in range(4):
            c = wl.chunk(64, t)
            assert c == range(t * 16, (t + 1) * 16)


class TestAllocation:
    @pytest.mark.parametrize("name", paper_workloads())
    def test_allocates_nonempty_working_set(self, name):
        wl = get_workload(name, scale=SCALE[name])
        space = AddressSpace(page_size=2048)
        wl.allocate(space)
        assert space.allocated_bytes > 4096, "non-trivial working set"

    def test_working_set_scales_up(self):
        def ws(scale):
            wl = get_workload("radix", scale=scale)
            space = AddressSpace(page_size=2048)
            wl.allocate(space)
            return space.allocated_bytes

        assert ws(2.0) > ws(1.0) > ws(0.5)


@pytest.mark.parametrize("name", paper_workloads())
def test_runs_to_completion(name):
    """Every application runs to completion on the clustered machine with
    consistency checks on, and produces sane counters."""
    sim = build_simulation(
        RunSpec(
            workload=name,
            procs_per_node=4,
            memory_pressure=0.5,
            scale=SCALE[name],
        )
    )
    sim.check_every = 20_000
    res = sim.run()
    sim.machine.check_consistency()
    assert res.counters["reads"] > 1000
    assert res.elapsed_ns > 0
    assert 0.0 <= res.read_node_miss_rate < 1.0
    assert sim.machine.owned_line_count() == len(sim.machine.lines)
    # Accounting conservation on every processor.
    for p in sim.procs:
        assert p.acct.total == p.clock


@pytest.mark.parametrize(
    "name", ["synth_uniform", "synth_hotspot", "synth_private",
             "synth_migratory", "synth_producer_consumer"]
)
def test_synthetics_run(name):
    sim = build_simulation(RunSpec(workload=name, scale=0.25))
    res = sim.run()
    sim.machine.check_consistency()
    assert res.counters["reads"] > 0


class TestDeterministicResults:
    def test_same_spec_same_counters(self):
        spec = RunSpec(workload="fft", scale=0.5, memory_pressure=0.75)
        r1 = build_simulation(spec).run()
        r2 = build_simulation(spec).run()
        assert r1.counters == r2.counters
        assert r1.elapsed_ns == r2.elapsed_ns

    def test_seed_changes_stream(self):
        r1 = build_simulation(
            RunSpec(workload="synth_uniform", scale=0.25, seed=1)
        ).run()
        r2 = build_simulation(
            RunSpec(workload="synth_uniform", scale=0.25, seed=2)
        ).run()
        assert r1.counters != r2.counters


def _recursive_walk(wl, cell, body):
    """The Barnes force walk as first written: recursive, vector norm."""
    import numpy as np

    yield ("r", wl._cell_addr(cell.index, 8))
    d = float(np.linalg.norm(wl.pos[body] - cell.com)) + 1e-9
    if cell.body is not None or cell.size / d < wl.theta:
        yield ("c", 24)
        return
    yield ("r", wl._cell_addr(cell.index, 0))
    for ch in cell.children:
        if ch is not None:
            yield from _recursive_walk(wl, ch, body)


class TestBarnesWalk:
    @staticmethod
    def _built(seed):
        wl = get_workload("barnes", n_threads=16, scale=0.1, seed=seed)
        wl.allocate(AddressSpace(page_size=2048))
        wl._build_tree()
        return wl

    @pytest.mark.parametrize("seed", [1, 1997, 4099])
    def test_stack_walk_matches_recursive_walk(self, seed):
        wl = self._built(seed)
        for step in range(wl.steps):
            if step:
                wl._advance_positions(step)
                wl._build_tree()
            for b in range(wl.n_bodies):
                assert (list(wl._walk(wl.root, b))
                        == list(_recursive_walk(wl, wl.root, b))), (step, b)

    def test_theta_guard_band_defers_to_vector_norm(self, monkeypatch):
        import math

        import numpy as np

        from repro.workloads import barnes

        wl = self._built(1997)
        body = 0
        cell = barnes._Cell(0, [0.5, 0.5, 0.5], 1.0)
        leaf = barnes._Cell(1, [0.25, 0.25, 0.25], 0.5)
        leaf.body = 1
        cell.children[0] = leaf
        cell.com = wl.pos[body] + np.array([0.3, -0.2, 0.1])
        cell.com_t = tuple(cell.com.tolist())
        dx, dy, dz = (wl.pos[body] - cell.com).tolist()
        d = math.sqrt(dx * dx + dy * dy + dz * dz) + 1e-9
        # size / d sits 1e-12 above theta: inside the guard band, so the
        # scalar distance alone would open the cell.
        cell.size = wl.theta * d * (1 + 1e-12)
        assert cell.size / d >= wl.theta
        assert abs(cell.size / d - wl.theta) <= barnes._THETA_GUARD * wl.theta

        calls = []

        def far_norm(v):
            calls.append(v)
            return 2.0 * d  # the vector formula says: far enough, accept

        monkeypatch.setattr(np.linalg, "norm", far_norm)
        addr8 = wl._cell_addr(cell.index, 8)
        assert list(wl._walk(cell, body)) == [("r", addr8), ("c", 24)]
        assert len(calls) == 1
        # Outside the band the scalar distance decides on its own.
        cell.size = wl.theta * d * 2
        assert list(wl._walk(cell, body))[:2] == [
            ("r", addr8), ("r", wl._cell_addr(cell.index, 0))]
        assert len(calls) == 1
