"""Compare two result sets recorded with ``run.py --record``.

Usage (from the repository root)::

    python3 simbench/compare.py base.jsonl change.jsonl

Each file holds one JSON line per run.  Runs are grouped by workload
and trace mode; for each metric the medians of the two sets are compared
and, for end-to-end metrics, judged against the bound in
``BENCHMARK.json``.  Two sets that measured different work (their
``workload_hash`` differs) are refused: exit 2, no comparison.  Exits 1
when a metric is worse than its bound, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """``{(workload, trace): [record, ...]}``."""
    groups: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def one_value(records: list, key):
    """The value ``key`` gives every record, or None when they disagree."""
    seen = {json.dumps(key(r), sort_keys=True) for r in records}
    return key(records[0]) if len(seen) == 1 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    base, change = load(args.base), load(args.change)
    common = sorted(set(base) & set(change))
    if not common:
        print("error: the two sets share no (workload, trace) group", file=sys.stderr)
        return 2
    for group in common:
        hashes = [one_value(recs[group], lambda r: r["provenance"]["workload_hash"])
                  for recs in (base, change)]
        if None in hashes or hashes[0] != hashes[1]:
            print(f"error: refusing to compare {group[0]}: workload hash "
                  f"{hashes[0]} != {hashes[1]} (the sets measured different work)",
                  file=sys.stderr)
            return 2
    regressed = False
    for group in common:
        a, b = base[group], change[group]
        hosts = [one_value(recs, lambda r: r["provenance"]["host"])
                 for recs in (a, b)]
        if None in hosts or hosts[0] != hosts[1]:
            print(f"warning: {group[0]}: the sets ran on different hosts; host "
                  "times are not comparable", file=sys.stderr)
        print(f"{group[0]} (trace {group[1]}): {len(a)} vs {len(b)} runs, "
              f"failed {sum(r['failed'] for r in a)} vs {sum(r['failed'] for r in b)}")
        for name in a[0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            unit = a[0]["metrics"][name]["unit"]
            line = (f"  {name:30s} {ma:14.6g} -> {mb:14.6g} {unit:10s} "
                    f"spread {spread(va):.3f}/{spread(vb):.3f}")
            if name in bounds and ma:
                lower = bounds[name]["better"] == "lower"
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                bound = bounds[name]["bound"]
                b_wins = max(vb) < min(va) if lower else min(vb) > max(va)
                if max(spread(va), spread(vb)) > bound and not b_wins:
                    verdict = "unresolved (spread above bound)"
                elif worse > bound:
                    verdict = f"REGRESSION ({worse:+.1%} > {bound:.0%})"
                    regressed = True
                else:
                    verdict = f"ok ({worse:+.1%} worse, bound {bound:.0%})"
                line += f"  {verdict}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
