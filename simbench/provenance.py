"""Where a benchmark result came from: host, code revision, work.

Results are comparable only between runs of the same work on the same
kind of host; ``compare.py`` refuses to compare result sets whose
``workload_hash`` differs and warns when the host fingerprints differ.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import specs

ROOT = Path(__file__).resolve().parent.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def git_state() -> dict:
    """Revision and dirty flag of the checkout; unknown outside git.

    Only a ``.git`` directly in the checkout is consulted, so a checkout
    unpacked inside some other repository never reports that one.
    """
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                              capture_output=True, text=True, timeout=10)

    try:
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}
    if rev.returncode != 0:
        return {"rev": None, "dirty": None}
    return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def provenance(workload: str, seed: int, reference_checked: bool) -> dict:
    return {
        "host": host(),
        "git": git_state(),
        "workload": workload,
        "workload_hash": specs.workload_hash(workload),
        "seed": seed,
        "reference_checked": reference_checked,
    }
