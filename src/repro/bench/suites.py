"""Named benchmark suites: deterministic units of simulator work.

Each suite is a callable that performs a fixed amount of work and
reports how much it did (so the harness can derive a throughput); the
harness owns all timing.  The suites cover the per-operation machine
paths, the full event loop (bare and with each observer attached) and a
small parallel sweep — the one simulator microbenchmark harness, behind
``coma-sim bench``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from repro.coma.machine import ComaMachine
from repro.common.config import MachineConfig, TimingConfig
from repro.experiments.parallel import run_specs
from repro.experiments.runner import RunSpec, build_simulation
from repro.mem.address import AddressSpace

LINE = 64


def small_machine(
    n_processors: int = 4,
    procs_per_node: int = 2,
    am_sets: int = 8,
    am_assoc: int = 4,
    slc_lines: int = 8,
    l1_lines: int = 4,
    page_size: int = 256,
    **config_kwargs,
) -> ComaMachine:
    """A small machine with exactly-controlled geometry (the benchmark
    twin of the test suite's ``make_machine`` helper)."""
    cfg = MachineConfig(
        n_processors=n_processors,
        procs_per_node=procs_per_node,
        line_size=LINE,
        page_size=page_size,
        am_assoc=am_assoc,
        memory_pressure=Fraction(1, 2),
        am_bytes_per_node=am_sets * am_assoc * LINE,
        slc_bytes=slc_lines * LINE,
        l1_bytes=l1_lines * LINE,
        timing=TimingConfig(),
        **config_kwargs,
    )
    space = AddressSpace(page_size=page_size)
    space.alloc(1 << 20, "bench")
    return ComaMachine(cfg, space)


@dataclass(frozen=True)
class Suite:
    """One named benchmark: ``run(quick, jobs)`` does the work and
    returns ``{"work": n, "unit": str}`` plus optional ``spec_key`` /
    ``snapshot`` extras."""

    name: str
    description: str
    run: Callable[[bool, int], dict]


def _l1_hit(quick: bool, jobs: int) -> dict:
    m = small_machine(am_sets=64)
    m.read(0, 0, 0)
    n = 50_000 if quick else 200_000
    t = 0
    for _ in range(n):
        t, _ = m.read(0, 0, t + 10)
    return {"work": n, "unit": "reads"}


def _am_hit(quick: bool, jobs: int) -> dict:
    m = small_machine(am_sets=64, slc_lines=2, l1_lines=1, slc_assoc=1)
    for ln in range(16):
        m.read(0, ln * LINE, ln * 1000)
    n = 20_000 if quick else 100_000
    t = 100_000
    # Cycle through more lines than the tiny SLC holds: AM hits.
    for k in range(n):
        t, _ = m.read(0, (k % 16) * LINE, t + 10)
    return {"work": n, "unit": "reads"}


def _remote_read(quick: bool, jobs: int) -> dict:
    m = small_machine(n_processors=4, procs_per_node=1, am_sets=64)
    n = 3_000 if quick else 12_000
    t = 0
    for k in range(n):
        line = k % 32
        m.write(0, line * LINE, t)               # node 0 takes ownership
        t, _ = m.read(3, line * LINE, t + 1000)  # node 3 remote-reads
        t += 1000
    return {"work": n, "unit": "round-trips"}


def _replacement_storm(quick: bool, jobs: int) -> dict:
    n = 1_000 if quick else 4_000
    m = small_machine(
        n_processors=4, procs_per_node=1, am_sets=2, am_assoc=1,
        slc_lines=2, l1_lines=1, page_size=64,
    )
    t = 0
    # Single-way sets at machine-wide conflict: every allocation runs
    # the accept-based replacement machinery.
    for k in range(n):
        m.write(k % 4, (k % 24) * LINE, t)
        t += 500
    return {"work": n, "unit": "writes"}


def _event_loop_spec(quick: bool) -> RunSpec:
    return RunSpec(workload="synth_private", scale=0.1 if quick else 0.25)


def _event_loop(quick: bool, jobs: int) -> dict:
    spec = _event_loop_spec(quick)
    sim = build_simulation(spec)
    sim.run()
    return {"work": sim.events_processed, "unit": "events",
            "spec_key": spec.key()}


def _event_loop_instrumented(quick: bool, jobs: int) -> dict:
    """The event-loop suite with a metrics registry attached — its wall
    time against ``event_loop``'s bounds the enabled-instrumentation
    overhead, and its snapshot rides into the BENCH file."""
    from repro.obs.metrics import MetricsRegistry

    spec = _event_loop_spec(quick)
    registry = MetricsRegistry()
    sim = build_simulation(spec)
    sim.attach(registry)
    sim.run()
    return {"work": sim.events_processed, "unit": "events",
            "spec_key": spec.key(), "snapshot": registry.snapshot()}


def _span_overhead(quick: bool, jobs: int) -> dict:
    """The event-loop suite with a span-emitting attribution sink
    attached — its wall time against ``event_loop``'s bounds the cost of
    building a span tree per memory access.  ``event_loop`` itself (no
    sink) is the zero-overhead-when-off reference: ``machine.trace``
    stays ``None`` there, so a regression in *that* suite after a spans change means
    the off path grew."""
    from repro.obs.spans import StallAttribution

    spec = _event_loop_spec(quick)
    att = StallAttribution(top_spans=4)
    sim = build_simulation(spec)
    sim.attach(att)
    sim.run()
    return {"work": sim.events_processed, "unit": "events",
            "spec_key": spec.key()}


def _bounds_overhead(quick: bool, jobs: int) -> dict:
    """The event-loop suite with the static-bounds certifier attached —
    its wall time against ``span_overhead``'s bounds the extra cost of
    checking every span tree against its static envelope (the spans
    themselves are already paid for there).  The run must certify clean:
    a violation here means the timing model and the envelope diverged."""
    from repro.analysis.bounds import certify_bounds

    spec = _event_loop_spec(quick)
    sim = build_simulation(spec)
    cert = certify_bounds(sim, spec.machine)
    if not cert.ok():
        raise RuntimeError(f"bounds violations in bench run: {cert.counts()}")
    return {"work": sim.events_processed, "unit": "events",
            "spec_key": spec.key()}


def _sweep(quick: bool, jobs: int) -> dict:
    pressures = (0.5, 0.8125) if quick else (0.5, 0.75, 0.8125, 0.875)
    specs = [
        RunSpec(workload="synth_migratory", scale=0.1,
                memory_pressure=mp, procs_per_node=ppn)
        for mp in pressures
        for ppn in (1, 4)
    ]
    # use_cache=False: the gate must time simulation, not cache reads.
    run_specs(specs, jobs=jobs, use_cache=False, progress=False)
    return {"work": len(specs), "unit": "points"}


SUITES: tuple[Suite, ...] = (
    Suite("l1_hit", "L1 read-hit fast path", _l1_hit),
    Suite("am_hit", "attraction-memory hit path", _am_hit),
    Suite("remote_read", "ownership transfer + remote read round-trip",
          _remote_read),
    Suite("replacement_storm", "accept-based replacement under conflict",
          _replacement_storm),
    Suite("event_loop", "end-to-end event-loop throughput", _event_loop),
    Suite("event_loop_instrumented",
          "event loop with a metrics registry attached",
          _event_loop_instrumented),
    Suite("span_overhead",
          "event loop with per-access span trees + stall attribution",
          _span_overhead),
    Suite("bounds_overhead",
          "event loop with spans certified against static latency bounds",
          _bounds_overhead),
    Suite("sweep", "parallel sweep engine, uncached points", _sweep),
)


def suite_names() -> list[str]:
    return [s.name for s in SUITES]


def get_suite(name: str) -> Optional[Suite]:
    for s in SUITES:
        if s.name == name:
            return s
    return None
