"""Check an OpenMetrics file's histograms and exemplars.

Every histogram series' ``_count`` must equal its ``+Inf`` bucket.  With
``--exemplars FAMILY`` the family must carry exemplars, each labeled
with a ``trace_id``; without it the file must carry none.

    python .github/scripts/check_om_histograms.py metrics.om.txt
    python .github/scripts/check_om_histograms.py attribute.om.txt \\
        --exemplars span_access_latency_ns
"""

from __future__ import annotations

import argparse

from repro.obs.openmetrics import parse_openmetrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("path")
    ap.add_argument("--exemplars", metavar="FAMILY")
    args = ap.parse_args()
    exemplars: dict = {}
    with open(args.path) as fh:
        families = parse_openmetrics(fh.read(), exemplars=exemplars)
    series = 0
    for name, fam in families.items():
        if fam["type"] != "histogram":
            continue
        inf = {
            tuple(sorted((k, v) for k, v in labels.items() if k != "le")): v
            for labels, v in fam["samples"].get(name + "_bucket", [])
            if labels["le"] == "+Inf"
        }
        for labels, count in fam["samples"].get(name + "_count", []):
            assert inf[tuple(sorted(labels.items()))] == count, (name, labels)
            series += 1
    assert series > 0, "no histogram series"
    if args.exemplars:
        found = exemplars.get(args.exemplars, [])
        assert found, f"no {args.exemplars} exemplars: {exemplars}"
        assert all(e["exemplar"]["labels"].get("trace_id") for e in found)
        print(f"{args.path}: {series} histogram series, {len(found)} "
              f"{args.exemplars} exemplars OK")
    else:
        assert not exemplars, exemplars
        print(f"{args.path}: {series} histogram series OK")


if __name__ == "__main__":
    main()
