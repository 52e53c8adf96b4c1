"""Run manifests, provenance headers and cache hit/miss accounting."""

from __future__ import annotations

import json

import pytest

from repro import __version__
from repro.experiments.runner import (
    CACHE_VERSION,
    RunSpec,
    cache_stats,
    clear_memory_cache,
    format_cache_summary,
    load_manifest,
    reset_cache_stats,
    run_spec,
)
from repro.obs.manifest import (
    MANIFEST_SUFFIX,
    RunManifest,
    git_dirty,
    git_revision,
    manifest_path,
    provenance_header,
)

SPEC = RunSpec(workload="synth_private", scale=0.1, n_processors=4)


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """A fresh disk cache (tests default to REPRO_NO_DISK_CACHE=1)."""
    monkeypatch.delenv("REPRO_NO_DISK_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    reset_cache_stats()
    yield tmp_path
    clear_memory_cache()
    reset_cache_stats()


class TestRunManifest:
    def test_round_trip(self, tmp_path):
        m = RunManifest(
            key="abc123", spec={"workload": "fft"}, cache_version=CACHE_VERSION,
            repro_version=__version__, seed=1997, git_rev="deadbeef",
            wall_time_s=1.25, cache="miss", timestamp="2026-01-01T00:00:00+00:00",
        )
        path = manifest_path(tmp_path, "abc123")
        m.write(path)
        assert path.name == f"abc123{MANIFEST_SUFFIX}"
        assert RunManifest.load(path) == m

    def test_json_is_sorted(self):
        m = RunManifest(key="k", spec={}, cache_version=1,
                        repro_version="1.0", seed=1)
        keys = list(json.loads(m.to_json()))
        assert keys == sorted(keys)

    def test_git_revision_in_repo(self):
        rev = git_revision()
        # The test tree is a git checkout; elsewhere None is acceptable.
        assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)

    def test_git_dirty_in_repo(self):
        dirty = git_dirty()
        # The test tree is a git checkout; elsewhere None is acceptable.
        assert dirty is None or isinstance(dirty, bool)
        assert (dirty is None) == (git_revision() is None)

    def test_git_dirty_tracks_the_worktree(self, tmp_path):
        import subprocess

        if git_revision(tmp_path) is not None:
            pytest.skip("tmp_path lies inside a git checkout")
        assert git_dirty(tmp_path) is None
        subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
        assert git_dirty(tmp_path) is False
        (tmp_path / "new.txt").write_text("x\n")
        assert git_dirty(tmp_path) is True


class TestProvenanceHeader:
    def test_contains_versions(self):
        h = provenance_header(timestamp="2026-01-01T00:00:00+00:00")
        assert h.startswith("# provenance: ")
        assert f"repro={__version__}" in h
        assert f"cache_version={CACHE_VERSION}" in h
        assert "timestamp=2026-01-01T00:00:00+00:00" in h
        assert h.endswith("\n")

    def test_extra_fields_and_comment_style(self):
        h = provenance_header(extra={"scale": 0.5}, comment="// ")
        assert h.startswith("// provenance: ") and "scale=0.5" in h


class TestCacheAccounting:
    def test_miss_then_memory_then_disk(self, disk_cache):
        run_spec(SPEC)
        assert cache_stats() == {"memory_hits": 0, "disk_hits": 0, "misses": 1}
        run_spec(SPEC)
        assert cache_stats()["memory_hits"] == 1
        clear_memory_cache()
        run_spec(SPEC)
        assert cache_stats() == {"memory_hits": 1, "disk_hits": 1, "misses": 1}

    def test_no_cache_counts_as_miss(self, disk_cache):
        run_spec(SPEC, use_cache=False)
        run_spec(SPEC, use_cache=False)
        assert cache_stats()["misses"] == 2

    def test_summary_line(self, disk_cache):
        run_spec(SPEC)
        run_spec(SPEC)
        s = format_cache_summary()
        assert "2 runs" in s and "1 memory hits" in s and "1 simulated" in s

    def test_manifest_written_on_miss(self, disk_cache):
        run_spec(SPEC)
        m = load_manifest(SPEC)
        assert m is not None
        assert m.key == SPEC.key()
        assert m.cache == "miss"
        assert m.cache_version == CACHE_VERSION
        assert m.seed == SPEC.seed
        assert m.spec["workload"] == "synth_private"
        assert m.wall_time_s is not None and m.wall_time_s > 0
        assert m.timestamp is not None

    def test_manifest_backfilled_on_legacy_disk_hit(self, disk_cache):
        run_spec(SPEC)
        manifest_path(disk_cache, SPEC.key()).unlink()  # pre-manifest entry
        clear_memory_cache()
        run_spec(SPEC)
        m = load_manifest(SPEC)
        assert m is not None and m.cache == "hit" and m.wall_time_s is None

    def test_load_manifest_accepts_raw_key(self, disk_cache):
        run_spec(SPEC)
        assert load_manifest(SPEC.key()).key == SPEC.key()
        assert load_manifest("not-a-key") is None
