"""Run benchmark suites and write ``BENCH_<timestamp>.json`` files.

Schema (``BENCH_SCHEMA = 1``)::

    {
      "schema": 1,
      "timestamp": "2026-01-01T00:00:00+00:00",
      "git_rev": "abc123" | null,
      "git_dirty": false | null,     # uncommitted changes at git_rev
      "repro_version": "x.y",
      "cache_version": 8,
      "quick": false,
      "host": {"platform": ..., "python": ..., "cpus": ...},
      "suites": {
        "<name>": {
          "wall_s": <min over repeats>,
          "walls_s": [...],
          "repeats": 3,
          "work": 200000,
          "unit": "reads",
          "throughput": <work / wall_s>,
          "spec_key": "..."        # suites driven by a RunSpec
        }, ...
      },
      "metrics": {...}             # snapshot from the instrumented suite
    }

The per-suite wall time is the *minimum* over repeats — the standard
noise filter for wall-clock gates (the minimum is the run least
disturbed by the machine's other tenants).
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.suites import SUITES, Suite, suite_names

BENCH_SCHEMA = 1


def _provenance() -> dict:
    from repro import __version__
    from repro.experiments.runner import CACHE_VERSION
    from repro.obs.manifest import git_dirty, git_revision

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_revision(),
        "git_dirty": git_dirty(),
        "repro_version": __version__,
        "cache_version": CACHE_VERSION,
    }


def _host() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def run_suite(suite: Suite, quick: bool = False, jobs: int = 1,
              repeats: int = 3) -> dict:
    """Time one suite ``repeats`` times; report the minimum wall time."""
    walls: list[float] = []
    info: dict = {}
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        info = suite.run(quick, jobs)
        walls.append(time.perf_counter() - t0)
    wall = min(walls)
    entry = {
        "description": suite.description,
        "wall_s": wall,
        "walls_s": walls,
        "repeats": len(walls),
        "work": info["work"],
        "unit": info["unit"],
        "throughput": info["work"] / wall if wall > 0 else 0.0,
    }
    if "spec_key" in info:
        entry["spec_key"] = info["spec_key"]
    if "snapshot" in info:
        entry["_snapshot"] = info["snapshot"]
    return entry


def run_bench(
    quick: bool = False,
    jobs: int = 1,
    repeats: int = 3,
    only: Optional[Sequence[str]] = None,
    echo=None,
) -> dict:
    """Run the suites and assemble a schema-versioned BENCH payload.

    ``only`` restricts to the named suites; ``echo`` (a callable taking
    one string) receives a progress line per suite as it completes.
    """
    wanted = set(only) if only else None
    if wanted is not None:
        unknown = wanted - set(suite_names())
        if unknown:
            raise ValueError(
                f"unknown suite(s) {sorted(unknown)}; "
                f"available: {suite_names()}"
            )
    payload: dict = {
        "schema": BENCH_SCHEMA,
        **_provenance(),
        "quick": quick,
        "host": _host(),
        "suites": {},
    }
    for suite in SUITES:
        if wanted is not None and suite.name not in wanted:
            continue
        entry = run_suite(suite, quick=quick, jobs=jobs, repeats=repeats)
        snapshot = entry.pop("_snapshot", None)
        if snapshot is not None:
            payload["metrics"] = snapshot
        payload["suites"][suite.name] = entry
        if echo is not None:
            echo(
                f"  {suite.name:<26} {entry['wall_s']:8.3f}s  "
                f"{entry['throughput']:12.0f} {entry['unit']}/s"
            )
    return payload


#: Default directory for ``BENCH_<timestamp>.json`` outputs.  The old
#: behavior (the current working directory) littered repo roots with
#: stray BENCH files that only ``.gitignore`` kept out of commits.
DEFAULT_BENCH_DIR = "benchmarks"


def write_bench(payload: dict, out: Optional[Path] = None,
                out_dir: Optional[Path] = None) -> Path:
    """Write ``payload`` as ``BENCH_<timestamp>.json`` (UTC, second
    resolution) under ``out_dir`` (default ``benchmarks/``).

    An explicit ``out`` path wins over ``out_dir`` and is used verbatim.
    """
    if out is None:
        stamp = payload["timestamp"].replace(":", "").replace("-", "")
        stamp = stamp.split("+")[0]
        directory = Path(out_dir) if out_dir is not None \
            else Path(DEFAULT_BENCH_DIR)
        directory.mkdir(parents=True, exist_ok=True)
        out = directory / f"BENCH_{stamp}.json"
    out = Path(out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out
