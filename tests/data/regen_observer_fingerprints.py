#!/usr/bin/env python3
"""Regenerate tests/data/observer_fingerprints.json.

The observers (span attribution, OpenMetrics export, span tracing,
bounds certification) must stay byte-identical across refactors and
speedups.  This script runs each case the way the matching ``coma-sim``
subcommand does and records the sha256 and length of every output:

* ``attribute_json`` — ``coma-sim attribute --format json``;
* ``attribute_openmetrics`` — its ``--openmetrics`` text (latency
  histograms with tail exemplars);
* ``trace_spans_jsonl`` — ``coma-sim trace --spans`` JSONL stream;
* ``trace_flight`` — the flight recorder's buffer after that run;
* ``bounds_json`` — ``coma-sim bounds --check --format json`` minus its
  ``provenance`` block (which names the git revision).

``tests/test_observer_fingerprints.py`` recomputes them and compares.
Regenerate only for an intentional output change::

    PYTHONPATH=src python tests/data/regen_observer_fingerprints.py
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

from repro.analysis.bounds import (
    BoundsCertifier,
    bound_table,
    envelope_for,
)
from repro.experiments.runner import RunSpec, build_simulation
from repro.obs import FlightRecorder, JsonlTraceSink, TeeSink
from repro.obs.openmetrics import to_openmetrics
from repro.obs.spans import StallAttribution

OUT = Path(__file__).parent / "observer_fingerprints.json"

CASES = {
    "synth_migratory_coma": RunSpec(
        workload="synth_migratory", machine="coma", scale=0.05,
        memory_pressure=0.5),
    "synth_migratory_hcoma": RunSpec(
        workload="synth_migratory", machine="hcoma", scale=0.05,
        memory_pressure=0.5),
    "synth_migratory_numa": RunSpec(
        workload="synth_migratory", machine="numa", scale=0.05,
        memory_pressure=0.5),
    "ocean_contig_ppn4": RunSpec(
        workload="ocean_contig", machine="coma", scale=0.05,
        procs_per_node=4, memory_pressure=0.5),
}


def attribute_outputs(spec: RunSpec) -> dict[str, str]:
    """``coma-sim attribute --format json --openmetrics``."""
    sim = build_simulation(spec)
    att = StallAttribution(top_spans=10)
    cert = BoundsCertifier(envelope_for(spec.machine,
                                        sim.machine.config.timing))
    sim.attach(att)
    sim.attach(cert)
    result = sim.run()
    cert.finalize()
    report = att.report(stalls=result.stalls, elapsed_ns=result.elapsed_ns)
    report["spec_key"] = spec.key()
    report["bounds"] = {
        "spans_checked": cert.checked,
        "violations": cert.counts(),
        "ok": cert.ok(),
    }
    return {
        "attribute_json": json.dumps(report, indent=2, sort_keys=True) + "\n",
        "attribute_openmetrics": to_openmetrics(
            att.registry, exemplars=att.exemplars()),
    }


def trace_outputs(spec: RunSpec) -> dict[str, str]:
    """``coma-sim trace --spans`` (JSONL plus the flight recorder)."""
    buf = io.StringIO()
    js = JsonlTraceSink(buf)
    flight = FlightRecorder()
    js.wants_spans = flight.wants_spans = True
    sim = build_simulation(spec)
    sim.machine.set_trace(TeeSink(js, flight))
    sim.run()
    js.close()
    return {"trace_spans_jsonl": buf.getvalue(),
            "trace_flight": flight.dump_text()}


def bounds_output(spec: RunSpec) -> dict[str, str]:
    """``coma-sim bounds --check --format json`` without provenance."""
    sim = build_simulation(spec)
    timing = sim.machine.config.timing
    cert = BoundsCertifier(envelope_for(spec.machine, timing))
    sim.attach(cert)
    sim.run()
    cert.finalize()
    payload = {
        "machine": spec.machine,
        "spec_key": spec.key(),
        "bounds": [r.to_record() for r in bound_table(spec.machine, timing)],
        "certification": cert.report(),
    }
    return {"bounds_json": json.dumps(payload, indent=2, sort_keys=True)
            + "\n"}


def outputs(spec: RunSpec) -> dict[str, str]:
    """Every fingerprinted output of one case, by name."""
    return {**attribute_outputs(spec), **trace_outputs(spec),
            **bounds_output(spec)}


def fingerprint(text: str) -> dict:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def main() -> None:
    table = {
        name: {k: fingerprint(v) for k, v in sorted(outputs(spec).items())}
        for name, spec in CASES.items()
    }
    OUT.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
