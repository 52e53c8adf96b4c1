"""Tests for the simulated-time metric timeline (``repro.obs.timeline``)."""

from __future__ import annotations

import warnings

import pytest

from repro.experiments.runner import RunSpec, build_simulation
from repro.obs.timeline import (
    CompositeProfiler,
    TimelineSampler,
    format_timeline_series,
)
from repro.stats.profiler import SharingProfiler


def _sampler(t: list[int], **cols: list) -> TimelineSampler:
    tl = TimelineSampler()
    tl.t = list(t)
    zeros = [0] * len(t)
    tl.cols = {"bus_busy_ns": zeros, "bus_bytes": zeros,
               "accesses": zeros, "node_misses": zeros, **cols}
    return tl


class _Machine:
    """The slice of a machine ``TimelineSampler._probe`` reads."""

    def __init__(self, now: int) -> None:
        from repro.bus.sharedbus import SharedBus
        from repro.common.config import TimingConfig
        from repro.stats.counters import Counters

        self.now = now
        self.counters = Counters()
        self.bus = SharedBus(TimingConfig(), 64)


class TestModuleDeprecation:
    def test_package_import_does_not_warn(self):
        """Importing repro.stats stays silent and exposes no legacy
        timeline names; the timeline lives in repro.obs.timeline."""
        import importlib
        import sys

        saved = sys.modules.pop("repro.stats", None)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                importlib.import_module("repro.stats")
            dep = [w for w in caught
                   if issubclass(w.category, DeprecationWarning)]
            assert dep == []
            assert not hasattr(sys.modules["repro.stats"], "TrafficTimeline")
        finally:
            if saved is not None:
                sys.modules["repro.stats"] = saved


class TestWindows:
    def test_differencing(self):
        tl = _sampler([0, 1000, 3000], bus_bytes=[0, 120, 328],
                      accesses=[0, 10, 30], node_misses=[0, 1, 6])
        ws = tl.series()
        assert len(ws) == 2
        assert ws[0]["bandwidth_bytes_per_us"] == pytest.approx(120.0)
        assert ws[1]["bandwidth_bytes_per_us"] == pytest.approx(104.0)
        assert ws[1]["miss_rate"] == pytest.approx(0.25)
        assert ws[1]["start_ns"] == 1000 and ws[1]["end_ns"] == 3000

    def test_non_advancing_samples_skipped(self):
        tl = TimelineSampler()
        for now in (1000, 500, 1000, 2000):  # a wakeup rewound machine.now
            tl.sample(_Machine(now))
        assert tl.t == [1000, 2000]
        assert len(tl.series()) == 1

    def test_bandwidth(self):
        tl = _sampler([0, 1000], bus_bytes=[0, 2048], bus_busy_ns=[0, 250])
        (win,) = tl.series()
        assert win["bandwidth_bytes_per_us"] == pytest.approx(2048.0)
        assert win["bus_utilization"] == pytest.approx(0.25)

    def test_peak_empty(self):
        tl = TimelineSampler()
        assert tl.series() == []
        assert "fewer than two samples" in format_timeline_series(tl)


class TestAttachedToSimulation:
    def test_captures_phases(self):
        tl = TimelineSampler()
        sim = build_simulation(RunSpec(workload="fft", scale=0.5))
        sim.attach(tl, every=3000)
        res = sim.run()
        tl.sample(sim.machine)  # closing sample
        ws = tl.series()
        assert len(ws) >= 3, "several sample windows over the run"
        assert tl.cols["bus_bytes"][-1] <= res.total_traffic_bytes
        assert max(w["bandwidth_bytes_per_us"] for w in ws) > 0

    def test_composite_profiler(self):
        tl = TimelineSampler()
        sp = SharingProfiler()
        sim = build_simulation(RunSpec(workload="synth_private", scale=0.25))
        sim.profiler = CompositeProfiler([tl, sp])
        sim.profile_every = 2000
        sim.run()
        assert len(tl.t) > 0
        assert sp.samples >= len(tl.t)

    def test_format(self):
        tl = TimelineSampler()
        sim = build_simulation(RunSpec(workload="synth_private", scale=0.25))
        sim.attach(tl, every=2000)
        sim.run()
        tl.sample(sim.machine)
        text = format_timeline_series(tl)
        assert "bus utilization over simulated time" in text
