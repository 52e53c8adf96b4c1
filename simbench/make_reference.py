"""Regenerate ``reference.jsonl``, the results every benchmark run is checked against.

Usage (from the repository root, on a commit whose results are trusted)::

    python3 simbench/make_reference.py

For each reference seed and workload it runs one untraced and one traced
pass (they must agree) and writes one line per point: the sha256 of the
result's canonical JSON, the event counts, the named result values used
to report a mismatch, and for ``observed`` the sha256 of its OpenMetrics
text.  Regenerate only when the simulator's results change on purpose.
"""

from __future__ import annotations

import json
import sys

import run
import specs


def reference_seeds() -> list[int]:
    return [specs.DEFAULT_SEED, specs.HELD_OUT_SEED, *specs.REFERENCE_RANGE]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))

    fields = None
    lines = []
    for seed in reference_seeds():
        for workload in specs.WORKLOADS:
            checker = run.Checker(workload, seed, {}, {})
            bench = run.Bench(workload, seed, checker)
            bench.run_pass(bench.observed, traced=False)
            bench.run_pass(bench.observed, traced=True)
            if checker.failures:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            for point, exp in checker.expected.items():
                names = list(exp["values"])
                if fields is None:
                    fields = names
                if names != fields:
                    print(f"{workload} {point}: value names differ", file=sys.stderr)
                    return 1
                lines.append({
                    "seed": seed, "workload": workload, "point": point,
                    "sha256": exp["sha256"],
                    "openmetrics_sha256": exp.get("openmetrics_sha256"),
                    "events": exp["events"],
                    "events_by_kind": exp["events_by_kind"],
                    "values": [exp["values"][f] for f in fields],
                })
            print(f"seed {seed} {workload}: {len(checker.expected)} points",
                  file=sys.stderr, flush=True)
    header = {
        "format": 1,
        "fields": fields,
        "seeds": reference_seeds(),
        "workload_hashes": {w: specs.workload_hash(w) for w in specs.WORKLOADS},
    }
    with open(run.REFERENCE, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"wrote {len(lines)} reference points to {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
