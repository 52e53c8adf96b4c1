"""Per-layer host-time tracer, applied from outside the simulator.

:meth:`LayerTracer.instrument` replaces, on one assembled
:class:`~repro.sim.simulator.Simulation`, the public entry point of each
layer with a timing wrapper:

===============  ========================================================
layer            entry point wrapped
===============  ========================================================
``sim``          ``Simulation.run`` (the root span; kernel, cpu and sync)
``workloads``    ``next()`` on each thread generator
``coma``         ``ComaMachine.read/write/rmw/write_stalling``
``replacement``  ``machine.repl.make_room``
``bus``          ``machine.bus.phase``
===============  ========================================================

Wrappers nest on one stack, so a layer's *self* time is its spans'
duration minus the time of the traced spans they contain, and the self
times of all layers add up to the root ``Simulation.run`` span.  The
remote-read fast path in ``ComaMachine`` inlines its two bus phases, so
those are billed to ``coma``, not ``bus``.

The wrappers only observe: a traced run must produce the same
``SimulationResult`` as an untraced one, which the benchmark checks.
"""

from __future__ import annotations

from time import perf_counter

LAYERS = ("sim", "workloads", "coma", "replacement", "bus")
COMA_ENTRIES = ("read", "write", "rmw", "write_stalling")
#: Workload opcode -> event kind (see ``repro.sim.events``).
EVENT_KINDS = {"r": "read", "w": "write", "c": "compute",
               "l": "sync", "u": "sync", "b": "sync"}


class LayerTracer:
    """Accumulates inclusive time, self time and calls per layer."""

    def __init__(self) -> None:
        self.inclusive = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.opcodes: dict[str, int] = {}
        #: Child-time accumulators of the open spans; the bottom entry
        #: collects the root spans.
        self._stack = [0.0]

    def instrument(self, sim) -> None:
        """Wrap every layer entry point of ``sim`` (call before ``run``)."""
        m = sim.machine
        for name in COMA_ENTRIES:
            setattr(m, name, self._wrap("coma", getattr(m, name)))
        m.repl.make_room = self._wrap("replacement", m.repl.make_room)
        m.bus.phase = self._wrap("bus", m.bus.phase)
        for p in sim.procs:
            if p.program is not None:
                p.program = _TimedProgram(self, p.program)
        sim.run = self._wrap("sim", sim.run)

    def _wrap(self, layer: str, fn):
        stack = self._stack
        inclusive = self.inclusive
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inclusive[layer] += dt
                self_s[layer] += dt - stack.pop()
                calls[layer] += 1
                stack[-1] += dt

        return traced

    def events(self) -> dict[str, int]:
        """Events pulled from the generators, by kind."""
        out = dict.fromkeys(("read", "write", "compute", "sync"), 0)
        for op, n in self.opcodes.items():
            out[EVENT_KINDS[op]] += n
        return out

    def self_check(self) -> list[str]:
        """Problems with the accounting itself (empty when sound)."""
        problems = []
        if len(self._stack) != 1:
            problems.append(f"tracer stack left {len(self._stack) - 1} span(s) open")
        total = self.inclusive["sim"]
        covered = sum(self.self_s.values())
        if abs(covered - total) > 1e-6 * max(total, 1.0):
            problems.append(
                f"layer self times sum to {covered:.6f} s but the traced "
                f"Simulation.run took {total:.6f} s")
        return problems


class _TimedProgram:
    """Iterator proxy timing ``next()`` on one workload thread generator.

    Generators call into no other traced layer, so their time is all
    self time.
    """

    __slots__ = ("_next", "_tracer")

    def __init__(self, tracer: LayerTracer, program) -> None:
        self._next = program.__next__
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        t0 = perf_counter()
        try:
            ev = self._next()
        finally:
            dt = perf_counter() - t0
            tr.inclusive["workloads"] += dt
            tr.self_s["workloads"] += dt
            tr.calls["workloads"] += 1
            tr._stack[-1] += dt
        op = ev[0]
        tr.opcodes[op] = tr.opcodes.get(op, 0) + 1
        return ev
