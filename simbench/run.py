"""Work-normalised host-time benchmark of the COMA simulator.

Usage (from the repository root)::

    python3 simbench/run.py --workload paper_slice --seed 1997 --seconds 30 --trace 0

Each run executes the workload's points (see ``specs.py``) serially in
this process through the public API -- ``build_simulation`` then
``Simulation.run`` then ``SimulationResult.to_dict`` -- with no result
cache and no history recorder, repeating whole passes over the points
while the next one still fits in ``--seconds``.  Every point is checked against the
committed reference (``reference.jsonl``) when the seed is in it, and
against the run's own first pass otherwise.

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` alternates untraced and traced passes (see ``layers.py``)
and reports the per-layer split.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Sibling modules: the script's own directory is first on sys.path.
import specs
from layers import LayerTracer
from probe import SpeedProbe
from provenance import provenance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Expected results, written by ``make_reference.py``.
REFERENCE = HERE / "reference.jsonl"

#: Top-span count of the observed workload (the ``coma-sim attribute`` setup).
OBSERVED_TOP_SPANS = 4


# ----------------------------------------------------------------------
# one point
# ----------------------------------------------------------------------

@dataclass
class PointRun:
    """One point's outcome: host times, work, and its fingerprints."""

    point: str
    spec: object
    build_s: float = 0.0
    run_s: float = 0.0
    events: int = 0
    result: object = None
    sha256: str = ""
    openmetrics_sha256: Optional[str] = None
    #: Workload events by kind; counted only on traced runs.
    events_by_kind: Optional[dict] = None
    error: Optional[str] = None


def fingerprint(result) -> str:
    """sha256 of the result's canonical JSON."""
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_point(point: str, spec, observers: bool,
              tracer: Optional[LayerTracer] = None) -> PointRun:
    """Build and run one point; never raises (failures land in ``error``)."""
    from repro.experiments.runner import build_simulation

    out = PointRun(point, spec)
    gc.collect()  # do not bill the previous point's garbage to this one
    try:
        t0 = time.perf_counter()
        sim = build_simulation(spec)
        out.build_s = time.perf_counter() - t0
        registry = attribution = None
        if observers:
            from repro.obs.metrics import MetricsRegistry
            from repro.obs.spans import StallAttribution

            registry = MetricsRegistry()
            attribution = StallAttribution(top_spans=OBSERVED_TOP_SPANS)
            sim.attach(registry)
            sim.attach(attribution)
        if tracer is not None:
            tracer.instrument(sim)
        t0 = time.perf_counter()
        result = sim.run()
        out.run_s = time.perf_counter() - t0
        out.events = sim.events_processed
        out.result = result
        out.sha256 = fingerprint(result)
        if observers:
            from repro.obs.openmetrics import to_openmetrics

            text = to_openmetrics(registry)
            out.openmetrics_sha256 = hashlib.sha256(text.encode()).hexdigest()
            errs = attribution.conservation_errors()
            if errs:
                out.error = f"conservation: {errs[0]}"
    except Exception as exc:  # a failed point is counted, not fatal
        out.error = f"{type(exc).__name__}: {exc}"
    return out


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------

VALUE_GROUPS = ("counters", "traffic_counts", "traffic_bytes")


def result_values(result) -> dict:
    """The result's named scalars, in the order mismatches are reported."""
    d = result.to_dict()
    out = {}
    for group in VALUE_GROUPS:
        for k in sorted(d[group]):
            out[f"{group}.{k}"] = d[group][k]
    out["elapsed_ns"] = d["elapsed_ns"]
    out["bus_utilization"] = d["bus_utilization"]
    return out


def load_reference() -> tuple[dict, dict]:
    """The reference header and ``{(seed, workload, point): entry}``,
    each entry's ``values`` as a dict."""
    entries = {}
    with open(REFERENCE) as fh:
        header = json.loads(fh.readline())
        fields = header["fields"]
        for line in fh:
            e = json.loads(line)
            e["values"] = dict(zip(fields, e["values"]))
            entries[(e["seed"], e["workload"], e["point"])] = e
    return header, entries


class Checker:
    """Checks every point run against its expected fingerprint.

    The expectation is the committed reference entry when the seed has
    one, else the first run of the point in this process.  A mismatch is
    reported with the spec and the first named value that differs.
    """

    def __init__(self, workload: str, seed: int, header: dict,
                 entries: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        #: One message per failed point run.
        self.failures: list[str] = []
        #: Run-level check failures (a stale reference, the tracer's
        #: own accounting).
        self.problems: list[str] = []
        points = [point for point, _ in specs.specs(workload, seed)]
        if header and header["workload_hashes"].get(workload) != specs.workload_hash(workload):
            self.problems.append(
                f"{workload}: reference.jsonl was made for other workload "
                "definitions; regenerate it with make_reference.py")
        self.has_reference = all((seed, workload, p) in entries for p in points)
        self.expected = ({p: entries[(seed, workload, p)] for p in points}
                         if self.has_reference else {})

    def check(self, run: PointRun) -> None:
        self.attempted += 1
        problem = run.error or self._mismatch(run)
        if problem:
            self.failures.append(
                f"{self.workload} {run.point} seed {self.seed} "
                f"(spec key {run.spec.key()}): {problem}")

    def _mismatch(self, run: PointRun) -> str:
        by_kind = run.events_by_kind
        exp = self.expected.get(run.point)
        if exp is None:
            # No reference for this seed: the first run becomes the
            # expectation, so every later pass must reproduce it.
            self.expected[run.point] = exp = {
                "sha256": run.sha256, "events": run.events,
                "values": result_values(run.result),
            }
        if by_kind is not None:
            exp.setdefault("events_by_kind", by_kind)
        if run.openmetrics_sha256 is not None:
            exp.setdefault("openmetrics_sha256", run.openmetrics_sha256)
        if run.events != exp["events"]:
            return f"events {run.events} != expected {exp['events']}"
        if by_kind is not None:
            for kind, n in exp["events_by_kind"].items():
                if by_kind[kind] != n:
                    return f"events.{kind} {by_kind[kind]} != expected {n}"
        if run.sha256 != exp["sha256"]:
            got = result_values(run.result)
            for name, want in exp["values"].items():
                if got.get(name) != want:
                    return f"{name} {got.get(name)} != expected {want}"
            return "result sha256 differs (stall breakdown or config summary)"
        if (run.openmetrics_sha256 is not None
                and run.openmetrics_sha256 != exp["openmetrics_sha256"]):
            return "OpenMetrics text sha256 differs"
        return ""


# ----------------------------------------------------------------------
# passes and rounds
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """Totals of one pass over the points that completed.

    ``run_s`` and ``build_s`` are nominal seconds (see ``probe.py``);
    ``host_run_s`` is the unscaled host time in ``Simulation.run``.
    """

    runs: list
    tracer: Optional[LayerTracer]
    events: int
    run_s: float
    build_s: float
    host_run_s: float
    points: int


class Bench:
    """Runs passes of one workload at one seed, checking every point."""

    def __init__(self, workload: str, seed: int, checker: Checker) -> None:
        self.workload = workload
        self.seed = seed
        self.checker = checker
        self.observed = specs.is_observed(workload)
        self.probe = SpeedProbe()

    def run_pass(self, observers: bool, traced: bool) -> Pass:
        """One serial pass over every point, with a speed probe before
        each point and after the last."""
        tracer = LayerTracer() if traced else None
        runs = []
        speeds = []
        for point, spec in specs.specs(self.workload, self.seed):
            speeds.append(self.probe.probe())
            before = tracer.events() if tracer else None
            run = run_point(point, spec, observers, tracer)
            if tracer is not None:
                after = tracer.events()
                run.events_by_kind = {k: after[k] - before[k] for k in after}
            self.checker.check(run)
            runs.append(run)
        speeds.append(self.probe.probe())
        run_s = build_s = host_run_s = 0.0
        events = points = 0
        for i, r in enumerate(runs):
            if r.error is None:
                speed = (speeds[i] + speeds[i + 1]) / 2
                run_s += r.run_s * speed
                build_s += r.build_s * speed
                host_run_s += r.run_s
                events += r.events
                points += 1
        return Pass(runs, tracer, events, run_s, build_s, host_run_s, points)

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Medians over passes of nominal-time rates (see ``probe.py``)."""
        passes = [self.run_pass(self.observed, traced=False)
                  for _ in _within(seconds)]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "events_per_s": _median(p.events / p.run_s for p in passes if p.run_s),
            "setup_s": _median(p.build_s for p in passes),
            "peak_rss_mb": rss_kb / 1024.0,
        }, {
            "passes": len(passes),
            "host_events_per_s": _median(p.events / p.host_run_s
                                         for p in passes if p.host_run_s),
            "speed": _median(p.run_s / p.host_run_s
                             for p in passes if p.host_run_s),
        }

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        """Medians over rounds of the per-layer metrics."""
        rounds = [self.layer_round() for _ in _within(seconds)]
        return {k: _median(r[k] for r in rounds) for k in rounds[0]}, {
            "rounds": len(rounds)}

    def layer_round(self) -> dict:
        """One untraced and one traced pass (for ``observed`` also a bare
        pass without observers); the per-layer metrics of the round."""
        bare = self.run_pass(False, False) if self.observed else None
        plain = self.run_pass(self.observed, False)
        # The traced pass is checked against the same expectation as the
        # untraced ones, so a wrapper that changed behaviour fails its points.
        traced = self.run_pass(self.observed, True)
        tr = traced.tracer
        self.checker.problems.extend(
            f"{self.workload}: {p}" for p in tr.self_check())

        events = plain.events
        run_s = tr.inclusive["sim"]
        s = tr.self_s
        c = tr.calls
        inc = tr.inclusive
        # The tracer's host seconds, scaled like the traced pass's.
        f = traced.run_s / traced.host_run_s if traced.host_run_s else 1.0

        def ns_per(seconds, n):
            return seconds * f / n * 1e9 if n else 0.0

        def share(seconds):
            return seconds / run_s if run_s else 0.0

        m = {
            "workloads.ns_per_event": ns_per(s["workloads"], events),
            "workloads.share": share(s["workloads"]),
            "sim.self_ns_per_event": ns_per(s["sim"], events),
            "sim.share": share(s["sim"]),
            "coma.ns_per_access": ns_per(inc["coma"], c["coma"]),
            "coma.self_ns_per_access": ns_per(s["coma"], c["coma"]),
            "coma.share": share(s["coma"]),
            "coma.calls": c["coma"],
            "replacement.ns_per_call": ns_per(inc["replacement"], c["replacement"]),
            "replacement.calls": c["replacement"],
            "replacement.share": share(s["replacement"]),
            "bus.ns_per_phase": ns_per(inc["bus"], c["bus"]),
            "bus.calls": c["bus"],
            "bus.share": share(s["bus"]),
            "obs.ns_per_event": 0.0,
            "obs.overhead_x": 0.0,
            "experiments.build_s_per_point": (plain.build_s / plain.points
                                              if plain.points else 0.0),
            "trace.overhead_x": (traced.run_s / plain.run_s - 1.0
                                 if plain.run_s else 0.0),
        }
        if bare is not None and bare.run_s:
            m["obs.ns_per_event"] = (plain.run_s - bare.run_s) / events * 1e9
            m["obs.overhead_x"] = plain.run_s / bare.run_s - 1.0
        m.update(counts(plain.runs, tr))
        return m


def warm_up(workload: str, seed: int) -> None:
    """Pay lazy imports and first-build costs before anything is timed."""
    from repro.experiments.runner import build_simulation

    for point, spec in specs.specs(workload, seed):
        try:
            build_simulation(spec.with_(scale=0.02)).run()
            build_simulation(spec)
        except Exception as exc:  # the timed passes count and report it
            print(f"warm-up of {point} failed: {exc}", file=sys.stderr)


def counts(runs: list[PointRun], tracer: LayerTracer) -> dict:
    """Deterministic per-layer counts: events by kind from the traced
    generators, the rest from the result counters."""
    ok = [r.result for r in runs if r.result is not None]
    c: dict[str, int] = {}
    for r in ok:
        for k, v in r.counters.items():
            c[k] = c.get(k, 0) + v
    tx = {k: sum(r.traffic_counts.get(k, 0) for r in ok)
          for k in ("read", "write", "replace")}
    ev = tracer.events()
    reads = c.get("reads", 0)
    relocations = c.get("replacements", 0)
    return {
        "events.read": ev["read"],
        "events.write": ev["write"],
        "events.compute": ev["compute"],
        "events.sync": ev["sync"],
        "coma.rnm_rate": c.get("node_read_misses", 0) / reads if reads else 0.0,
        "coma.l1_read_hit_ratio": c.get("l1_read_hits", 0) / reads if reads else 0.0,
        "replacement.relocations": relocations,
        "replacement.forced_hops": (c.get("replace_forced_hops", 0) / relocations
                                    if relocations else 0.0),
        "bus.tx.read": tx["read"],
        "bus.tx.write": tx["write"],
        "bus.tx.replace": tx["replace"],
        "bus.utilization": (statistics.fmean(r.bus_utilization for r in ok)
                            if ok else 0.0),
    }


def _within(seconds: float):
    """Yield once per repetition that fits in ``seconds``: always once,
    then again while the last repetition's length still fits."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            return


def _median(values):
    """Median, 0.0 when empty; counts stay whole numbers."""
    vals = list(values)
    if not vals:
        return 0.0
    if all(isinstance(v, int) for v in vals):
        return statistics.median_low(vals)
    return statistics.median(vals)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def load_metric_units() -> dict:
    """``{metric: unit}`` from ``BENCHMARK.json`` (units live in one place)."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="PATH",
                    help="append this run (metrics + provenance) as one JSON "
                    "line, for compare.py")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"error: simulator sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    units = load_metric_units()

    warm_up(args.workload, args.seed)
    checker = Checker(args.workload, args.seed, *load_reference())
    bench = Bench(args.workload, args.seed, checker)
    if args.trace:
        metrics, info = bench.per_layer(args.seconds)
    else:
        metrics, info = bench.end_to_end(args.seconds)

    prov = provenance(args.workload, args.seed, checker.has_reference)
    failed = len(checker.failures)
    attempted = checker.attempted
    print(f"# provenance: {json.dumps(prov, sort_keys=True)}")
    for msg in checker.problems + checker.failures[:20]:
        print(f"# FAIL {msg}")
    print(f"# {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v:.6g}" for k, v in info.items()))
    print(f"#   {'error_rate':32s} {failed / attempted:16.6g} fraction "
          f"({failed} of {attempted} point runs failed)")
    for name, value in metrics.items():
        print(f"#   {name:32s} {value:16.6g} {units[name]}")
    out = {
        "correct": failed == 0 and not checker.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**out, "workload": args.workload,
                                 "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "info": info,
                                 "provenance": prov}, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
