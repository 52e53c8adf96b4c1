"""Bench harness, BENCH-file schema, and regression-gate tests."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchFileError,
    compare_benches,
    format_comparison,
    has_regression,
    load_bench,
    run_bench,
    suite_names,
    write_bench,
)
from repro.bench.harness import run_suite
from repro.bench.suites import SUITES, get_suite


def make_bench(suites: dict) -> dict:
    return {"schema": BENCH_SCHEMA, "timestamp": "t", "suites": suites}


def entry(wall_s: float) -> dict:
    return {"wall_s": wall_s}


class TestSuites:
    def test_every_suite_reports_work(self):
        for suite in SUITES:
            if suite.name in ("event_loop", "event_loop_instrumented", "sweep"):
                continue  # covered below / via harness test
            info = suite.run(True, 1)
            assert info["work"] > 0 and info["unit"]

    def test_event_loop_suite_carries_spec_key(self):
        info = get_suite("event_loop").run(True, 1)
        assert info["work"] > 1000
        assert len(info["spec_key"]) == 24

    def test_instrumented_suite_snapshot(self):
        info = get_suite("event_loop_instrumented").run(True, 1)
        assert "sim_events_processed" in info["snapshot"]

    def test_get_suite_unknown(self):
        assert get_suite("nope") is None


class TestHarness:
    def test_run_suite_keeps_min_wall(self):
        result = run_suite(get_suite("l1_hit"), quick=True, repeats=2)
        assert result["repeats"] == 2
        assert result["wall_s"] == min(result["walls_s"])
        assert result["throughput"] > 0

    def test_run_bench_payload_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = run_bench(quick=True, repeats=1,
                            only=["l1_hit", "event_loop_instrumented"])
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["cache_version"] >= 8
        assert payload["git_dirty"] is None or isinstance(payload["git_dirty"], bool)
        assert (payload["git_dirty"] is None) == (payload["git_rev"] is None)
        assert set(payload["suites"]) == {"l1_hit", "event_loop_instrumented"}
        assert "metrics" in payload  # snapshot from the instrumented suite
        path = write_bench(payload)
        assert path.name.startswith("BENCH_") and path.suffix == ".json"
        assert load_bench(path)["suites"]["l1_hit"]["wall_s"] > 0

    def test_run_bench_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            run_bench(quick=True, only=["warp_drive"])

    def test_suite_names_stable(self):
        assert "event_loop" in suite_names()
        assert "sweep" in suite_names()


class TestLoadBench:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchFileError, match="cannot read"):
            load_bench(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        with pytest.raises(BenchFileError, match="not valid JSON"):
            load_bench(f)

    def test_not_a_bench_file(self, tmp_path):
        f = tmp_path / "other.json"
        f.write_text(json.dumps({"hello": 1}))
        with pytest.raises(BenchFileError, match="no 'suites'"):
            load_bench(f)

    def test_wrong_schema(self, tmp_path):
        f = tmp_path / "old.json"
        f.write_text(json.dumps({"schema": 99, "suites": {}}))
        with pytest.raises(BenchFileError, match="schema 99"):
            load_bench(f)

    def test_suite_without_wall(self, tmp_path):
        f = tmp_path / "torn.json"
        f.write_text(json.dumps(
            {"schema": BENCH_SCHEMA, "suites": {"x": {}}}))
        with pytest.raises(BenchFileError, match="no wall_s"):
            load_bench(f)


class TestCompare:
    def test_regression_detected(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(1.2)}),
            threshold_pct=10,
        )
        assert rows[0]["status"] == "regression"
        assert rows[0]["change_pct"] == pytest.approx(20.0)
        assert has_regression(rows)

    def test_improvement_detected(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(0.5)}),
            threshold_pct=10,
        )
        assert rows[0]["status"] == "improvement"
        assert not has_regression(rows)

    def test_within_threshold_ok(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(1.05)}),
            threshold_pct=10,
        )
        assert rows[0]["status"] == "ok"

    def test_exactly_threshold_passes(self):
        # Regression requires strictly more than the threshold.
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(1.1)}),
            threshold_pct=10,
        )
        assert rows[0]["status"] == "ok"
        rows = compare_benches(
            make_bench({"a": entry(1.0)}),
            make_bench({"a": entry(1.1000001)}),
            threshold_pct=10,
        )
        assert rows[0]["status"] == "regression"

    def test_zero_threshold_gates_any_slowdown(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(1.001)}),
            threshold_pct=0,
        )
        assert rows[0]["status"] == "regression"

    def test_missing_suite_gates(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0), "b": entry(1.0)}),
            make_bench({"a": entry(1.0)}),
        )
        statuses = {r["suite"]: r["status"] for r in rows}
        assert statuses == {"a": "ok", "b": "missing"}
        assert has_regression(rows)

    def test_new_suite_never_gates(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}),
            make_bench({"a": entry(1.0), "c": entry(9.0)}),
        )
        statuses = {r["suite"]: r["status"] for r in rows}
        assert statuses == {"a": "ok", "c": "new"}
        assert not has_regression(rows)

    def test_quick_mismatch_refused(self):
        old = make_bench({"a": entry(1.0)}) | {"quick": True}
        new = make_bench({"a": entry(1.0)}) | {"quick": False}
        with pytest.raises(BenchFileError, match="'quick'"):
            compare_benches(old, new)

    def test_work_mismatch_refused(self):
        old = make_bench({"a": entry(1.0) | {"work": 100}})
        new = make_bench({"a": entry(1.0) | {"work": 200}})
        with pytest.raises(BenchFileError, match="suite 'a'.*'work'"):
            compare_benches(old, new)

    def test_spec_key_mismatch_refused(self):
        old = make_bench({"a": entry(1.0) | {"spec_key": "k1"}})
        new = make_bench({"a": entry(1.0) | {"spec_key": "k2"}})
        with pytest.raises(BenchFileError, match="suite 'a'.*'spec_key'") as err:
            compare_benches(old, new)
        assert "\n" not in str(err.value)

    def test_field_checked_only_when_both_record_it(self):
        # The rolling-median baseline records neither quick, work nor
        # spec_key.
        baseline = make_bench({"a": entry(1.0)})
        new = make_bench(
            {"a": entry(1.0) | {"work": 200, "spec_key": "k2"}}
        ) | {"quick": True}
        rows = compare_benches(baseline, new)
        assert rows[0]["status"] == "ok"

    def test_format_mentions_verdict(self):
        rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(2.0)}),
        )
        text = format_comparison(rows, 10.0)
        assert "FAIL: a" in text and "+100.0%" in text
        ok_rows = compare_benches(
            make_bench({"a": entry(1.0)}), make_bench({"a": entry(1.0)}),
        )
        assert "PASS" in format_comparison(ok_rows, 10.0)


class TestCli:
    def test_bench_quick_writes_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_x.json"
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--out", str(out)])
        assert rc == 0
        assert load_bench(out)["quick"] is True
        assert "wrote" in capsys.readouterr().out

    def test_bench_compare_gate(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(make_bench({"a": entry(1.0)})))
        new.write_text(json.dumps(make_bench({"a": entry(2.0)})))
        rc = main(["bench", "--compare", str(old), "--new", str(new),
                   "--threshold", "10"])
        assert rc == 1
        assert "regression" in capsys.readouterr().out
        # Generous threshold: the same 2x slowdown passes at 150%.
        assert main(["bench", "--compare", str(old), "--new", str(new),
                     "--threshold", "150"]) == 0

    def test_bench_compare_malformed_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(make_bench({"a": entry(1.0)})))
        rc = main(["bench", "--compare", str(bad), "--new", str(ok)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bench_compare_mismatch_is_one_line(self, tmp_path, capsys):
        from repro.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(make_bench({"a": entry(1.0)}) | {"quick": True}))
        new.write_text(json.dumps(make_bench({"a": entry(1.0)}) | {"quick": False}))
        assert main(["bench", "--compare", str(old), "--new", str(new)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'quick'" in err

    def test_bench_new_requires_compare(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "n.json"
        f.write_text(json.dumps(make_bench({})))
        assert main(["bench", "--new", str(f)]) == 2

    def test_bench_run_then_compare_self(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "base.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--suites", "l1_hit", "--out", str(out)]) == 0
        # Re-run against itself with a generous threshold: no regression.
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--out", str(tmp_path / "n.json"),
                   "--compare", str(out), "--threshold", "400"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

class TestOutDir:
    def test_default_out_dir_is_benchmarks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = make_bench({"a": entry(1.0)})
        payload["timestamp"] = "2026-01-01T00:00:00+00:00"
        path = write_bench(payload)
        assert path.parent == tmp_path / "benchmarks" \
            or path.parent.name == "benchmarks"
        assert path.name == "BENCH_20260101T000000.json"

    def test_out_dir_flag(self, tmp_path):
        payload = make_bench({"a": entry(1.0)})
        payload["timestamp"] = "2026-01-01T00:00:00+00:00"
        path = write_bench(payload, out_dir=tmp_path / "elsewhere")
        assert path.parent == tmp_path / "elsewhere"

    def test_explicit_out_wins(self, tmp_path):
        payload = make_bench({"a": entry(1.0)})
        path = write_bench(payload, out=tmp_path / "here.json",
                           out_dir=tmp_path / "ignored")
        assert path == tmp_path / "here.json"
        assert not (tmp_path / "ignored").exists()

    def test_cli_out_dir(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--out-dir", str(tmp_path / "d")])
        assert rc == 0
        files = list((tmp_path / "d").glob("BENCH_*.json"))
        assert len(files) == 1


class TestArchiveCompare:
    """Bare ``--compare``: gate against the archive's rolling median."""

    def archive(self, tmp_path):
        from repro.obs.history import HistoryArchive

        return HistoryArchive(tmp_path / "hist.sqlite")

    def test_bare_compare_uses_rolling_median(self, tmp_path, capsys):
        from repro.cli import main

        archive = self.archive(tmp_path)
        # Seed the archive with a very generous baseline.
        archive.record_bench({"schema": BENCH_SCHEMA, "timestamp": "t0",
                              "quick": True,
                              "suites": {"l1_hit": {"wall_s": 1e9}}})
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit",
                   "--out", str(tmp_path / "n.json"),
                   "--no-record", "--compare",
                   "--archive", str(archive.path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "rolling median" in captured.err
        assert "improvement" in captured.out or "ok" in captured.out

    def test_bare_compare_falls_back_to_baseline_file(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").mkdir()
        baseline = make_bench({"l1_hit": entry(1e9)})
        (tmp_path / "benchmarks" / "BENCH_baseline.json").write_text(
            json.dumps(baseline))
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit",
                   "--out", str(tmp_path / "n.json"), "--no-record",
                   "--compare", "--archive", str(tmp_path / "empty.sqlite")])
        assert rc == 0
        assert "fallback" in capsys.readouterr().err

    def test_bare_compare_without_any_baseline_errors(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--no-record", "--compare",
                   "--archive", str(tmp_path / "empty.sqlite")])
        assert rc == 2
        assert "no archived bench runs" in capsys.readouterr().err

    def test_record_flag_archives_the_payload(self, tmp_path, capsys):
        from repro.cli import main

        archive = self.archive(tmp_path)
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--out", str(tmp_path / "b.json"),
                   "--record", "--archive", str(archive.path)])
        assert rc == 0
        assert archive.bench_count() == 1
        assert "bench inserted" in capsys.readouterr().err
        assert archive.list_benches()[0]["quick"] is True

    def test_no_record_by_default_under_no_history_env(
            self, tmp_path, capsys):
        from repro.cli import main

        # conftest sets REPRO_NO_HISTORY=1: auto-record must stay off.
        rc = main(["bench", "--quick", "--repeats", "1",
                   "--suites", "l1_hit", "--out", str(tmp_path / "b.json"),
                   "--archive", str(tmp_path / "h.sqlite")])
        assert rc == 0
        assert not (tmp_path / "h.sqlite").exists()
