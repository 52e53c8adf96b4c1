"""Observer outputs stay byte-identical: attribution JSON, OpenMetrics
with exemplars, the ``trace --spans`` stream and the bounds report.

The committed fingerprints (sha256 and length of every output) live in
``tests/data/observer_fingerprints.json``.  Regenerate them only for an
intentional output change::

    PYTHONPATH=src python tests/data/regen_observer_fingerprints.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def _load_regen():
    path = DATA / "regen_observer_fingerprints.py"
    spec = importlib.util.spec_from_file_location("regen_observer_fp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_regen()


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((DATA / "observer_fingerprints.json").read_text())


def test_every_case_committed(committed):
    assert sorted(committed) == sorted(regen.CASES)


@pytest.mark.parametrize("case", sorted(regen.CASES))
def test_outputs_match_committed_fingerprints(case, committed):
    got = {name: regen.fingerprint(text)
           for name, text in regen.outputs(regen.CASES[case]).items()}
    assert sorted(got) == sorted(committed[case])
    for name, want in committed[case].items():
        assert got[name] == want, (
            f"{case}: {name} drifted from the committed fingerprint — if "
            "the change is intentional, regenerate the fingerprints")
