"""Compare two BENCH files and gate on wall-time regressions.

``compare_benches(old, new, threshold_pct)`` classifies every suite:

* ``regression``  — new wall time is more than ``threshold_pct`` slower;
* ``improvement`` — more than ``threshold_pct`` faster;
* ``ok``          — within the threshold either way;
* ``missing``     — present in the old file but not the new run;
* ``new``         — present only in the new run (never gates).

A missing suite gates alongside regressions: a suite silently dropping
out of the bench must fail CI, not slip through as "nothing got slower".

Raw wall times are only comparable when both runs did the same work, so
a ``quick`` payload is never compared with a full one, nor a suite whose
``work`` or ``spec_key`` (the simulated configuration) differs.  Each
field is checked only when both payloads record it: the rolling-median
baseline of ``coma-sim history trend`` carries none of them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.bench.harness import BENCH_SCHEMA


class BenchFileError(Exception):
    """A BENCH file is unreadable, malformed, or the wrong schema."""


def load_bench(path) -> dict:
    """Load a BENCH payload — or the ``baseline`` a ``coma-sim history
    trend --format json`` report embeds, so the CI gate can compare
    directly against the rolling median of archived runs."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise BenchFileError(f"cannot read {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise BenchFileError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(payload, dict) and "schema" not in payload \
            and isinstance(payload.get("baseline"), dict) \
            and "suites" in payload["baseline"]:
        payload = payload["baseline"]  # a history-trend report
    if not isinstance(payload, dict) or "suites" not in payload:
        raise BenchFileError(f"{path} is not a BENCH file (no 'suites' key)")
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise BenchFileError(
            f"{path} has schema {schema!r}; this tool reads {BENCH_SCHEMA}"
        )
    for name, entry in payload["suites"].items():
        if not isinstance(entry, dict) or "wall_s" not in entry:
            raise BenchFileError(f"{path}: suite {name!r} has no wall_s")
    return payload


def rolling_baseline(archive, last: int = 5,
                     quick: Optional[bool] = None) -> Optional[dict]:
    """A synthetic BENCH payload whose per-suite ``wall_s`` is the
    rolling median over the last ``last`` archived bench runs.

    This is what ``coma-sim bench --compare`` (bare, no path) gates
    against: a median of recent archived runs is far less noisy than any
    single frozen baseline file.  Returns None when the archive holds no
    (matching) bench rows — callers fall back to the committed
    ``benchmarks/BENCH_baseline.json``.
    """
    trend = archive.trend(last=last, quick=quick)
    if not trend["benches"]:
        return None
    return trend["baseline"]


def compare_benches(old: dict, new: dict,
                    threshold_pct: float = 10.0) -> list[dict]:
    """Per-suite comparison rows, sorted by suite name.

    ``change_pct`` is the wall-time change relative to old (positive =
    slower).  A suite regresses when ``change_pct > threshold_pct``
    strictly — a change of exactly the threshold still passes.  Raises
    :class:`BenchFileError` when the payloads did different work.
    """
    rows: list[dict] = []
    old_suites, new_suites = old["suites"], new["suites"]
    _check_comparable(old, new, "")
    for name in sorted(set(old_suites) & set(new_suites)):
        _check_comparable(old_suites[name], new_suites[name], f"suite {name!r}: ")
    for name in sorted(set(old_suites) | set(new_suites)):
        o, n = old_suites.get(name), new_suites.get(name)
        if o is None:
            rows.append({"suite": name, "status": "new",
                         "new_wall_s": n["wall_s"]})
            continue
        if n is None:
            rows.append({"suite": name, "status": "missing",
                         "old_wall_s": o["wall_s"]})
            continue
        ow, nw = float(o["wall_s"]), float(n["wall_s"])
        change = (nw - ow) / ow * 100.0 if ow > 0 else 0.0
        # Classify on the wall-time ratio, not the derived percentage:
        # (1.1-1.0)/1.0*100 rounds to 10.000000000000009, which would
        # turn "exactly the threshold" into a spurious regression.
        if ow > 0 and nw > ow * (1.0 + threshold_pct / 100.0):
            status = "regression"
        elif ow > 0 and nw < ow * (1.0 - threshold_pct / 100.0):
            status = "improvement"
        else:
            status = "ok"
        rows.append({
            "suite": name, "status": status,
            "old_wall_s": ow, "new_wall_s": nw, "change_pct": change,
        })
    return rows


def _check_comparable(old: dict, new: dict, where: str) -> None:
    """Raise :class:`BenchFileError` when ``old`` and ``new`` both record
    ``quick``, ``work`` or ``spec_key`` and disagree on it."""
    for field in ("quick", "work", "spec_key"):
        if field in old and field in new and old[field] != new[field]:
            raise BenchFileError(
                f"{where}cannot compare runs with different {field!r} "
                f"({old[field]!r} vs {new[field]!r})"
            )


def has_regression(rows: list[dict]) -> bool:
    """True when any suite regressed or went missing (both gate)."""
    return any(r["status"] in ("regression", "missing") for r in rows)


def format_comparison(rows: list[dict], threshold_pct: float) -> str:
    lines = [
        f"bench comparison (threshold {threshold_pct:g}% on wall time):",
        f"  {'suite':<26} {'old':>9} {'new':>9} {'change':>8}  status",
    ]
    for r in rows:
        old_s = f"{r['old_wall_s']:.3f}s" if "old_wall_s" in r else "-"
        new_s = f"{r['new_wall_s']:.3f}s" if "new_wall_s" in r else "-"
        change = f"{r['change_pct']:+.1f}%" if "change_pct" in r else "-"
        lines.append(
            f"  {r['suite']:<26} {old_s:>9} {new_s:>9} {change:>8}  "
            f"{r['status']}"
        )
    gated = [r["suite"] for r in rows if r["status"] in ("regression", "missing")]
    lines.append(
        f"  => {'FAIL: ' + ', '.join(gated) if gated else 'PASS'}"
    )
    return "\n".join(lines)
