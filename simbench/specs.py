"""The benchmark's workloads: fixed lists of simulation points.

Each workload is a list of :class:`repro.experiments.runner.RunSpec`
points that differ only in their seed from run to run.  The seed is the
benchmark's ``--seed`` argument, passed through as ``RunSpec.seed``.

The point lists, the scale and the processor count are the *workload
definition*; :func:`workload_hash` digests them so two result sets are
only compared when they measured the same work.
"""

from __future__ import annotations

import hashlib
import json

#: Scale of every point.  At 0.25 one ``paper_slice`` pass is ~0.57M
#: events and ~5 s of host time on a 2-CPU Xeon, so a run holds several
#: passes and reports their median.
SCALE = 0.25
N_PROCESSORS = 16
DEFAULT_SEED = 1997
#: Seed kept out of tuning: a gain claimed on DEFAULT_SEED is re-checked
#: here.  The committed reference covers both, plus REFERENCE_RANGE.
HELD_OUT_SEED = 4099
REFERENCE_RANGE = range(0, 32)

LOW_MP = 0.0625
HIGH_MP = 0.875


def _grid(apps, ppns, mps):
    return [
        {"workload": app, "procs_per_node": ppn, "memory_pressure": mp}
        for app in apps for ppn in ppns for mp in mps
    ]


#: name -> (points, whether observers attach).  Why each workload was
#: chosen is recorded in ``BENCHMARK.json``.
WORKLOADS = {
    "paper_slice": (
        _grid(("barnes", "ocean_contig", "lu_contig"), (1, 4), (LOW_MP, HIGH_MP)),
        False,
    ),
    "high_pressure": (_grid(("radix", "fft"), (1, 4), (HIGH_MP,)), False),
    "observed": (_grid(("ocean_contig",), (4,), (LOW_MP,)), True),
}


def point_id(point: dict) -> str:
    """A short stable name such as ``barnes/ppn4/mp0.875``."""
    return (f"{point['workload']}/ppn{point['procs_per_node']}"
            f"/mp{point['memory_pressure']:g}")


def specs(workload: str, seed: int) -> list:
    """``(point_id, RunSpec)`` for every point of ``workload`` at ``seed``."""
    from repro.experiments.runner import RunSpec

    points, _observed = WORKLOADS[workload]
    return [
        (point_id(p), RunSpec(scale=SCALE, n_processors=N_PROCESSORS,
                              seed=seed, **p))
        for p in points
    ]


def is_observed(workload: str) -> bool:
    return WORKLOADS[workload][1]


def workload_hash(workload: str) -> str:
    """Digest of everything that defines ``workload``'s work except the seed."""
    points, observed = WORKLOADS[workload]
    payload = json.dumps(
        {"workload": workload, "points": points, "observed": observed,
         "scale": SCALE, "n_processors": N_PROCESSORS},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
