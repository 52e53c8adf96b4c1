"""CLI tests: parser wiring and command smoke runs."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fft"])
        assert args.workload == "fft"
        assert args.machine == "coma"
        assert args.procs_per_node == 1

    def test_run_flags(self):
        args = build_parser().parse_args(
            [
                "run", "radix",
                "--procs-per-node", "4",
                "--memory-pressure", "0.8125",
                "--am-assoc", "8",
                "--non-inclusive",
                "--dram-bandwidth", "2",
            ]
        )
        assert args.procs_per_node == 4
        assert args.am_assoc == 8
        assert args.non_inclusive is True

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_figure_jobs_and_workloads(self):
        args = build_parser().parse_args(
            ["figure", "2", "--jobs", "4", "--workloads", "fft", "radix"]
        )
        assert args.jobs == 4
        assert args.workloads == ["fft", "radix"]

    def test_jobs_defaults_to_serial(self):
        assert build_parser().parse_args(["figure", "3"]).jobs == 1
        assert build_parser().parse_args(["table", "1"]).jobs == 1
        assert build_parser().parse_args(["export", "figure2"]).jobs == 1

    def test_jobs_short_flag(self):
        args = build_parser().parse_args(["export", "figure5", "-j", "-1"])
        assert args.jobs == -1

    def test_figure_workloads_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "2", "--workloads", "doom"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def _subcommand_paths(parser, prefix=()):
    """Every subcommand path under ``parser``, found by walking its
    subparser actions (nested ones included)."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _subcommand_paths(sub, prefix + (name,))


class TestHelp:
    def test_every_help_exits_zero(self, capsys):
        paths = [()] + list(_subcommand_paths(build_parser()))
        assert len(paths) > 20
        for path in paths:
            with pytest.raises(SystemExit) as exc:
                main([*path, "--help"])
            assert exc.value.code == 0, path
            assert "usage:" in capsys.readouterr().out


class TestInvalidSpecs:
    @pytest.mark.parametrize("argv, message", [
        (["run", "fft", "--memory-pressure", "1.5"],
         "error: memory_pressure must be in (0, 1]"),
        (["run", "fft", "--scale", "0"], "error: scale must be positive"),
        (["run", "fft", "--am-assoc", "0"], "error: am_assoc must be >= 1, got 0"),
    ])
    def test_one_line_error_and_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--no-cache"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == message + "\n"

    @pytest.mark.parametrize("argv, option, minimum, value", [
        (["verify"], "--depth", 1, "0"),
        (["verify"], "--depth", 1, "-1"),
        (["sanitize", "fft"], "--pingpong", 1, "-1"),
        (["sanitize", "fft"], "--window", 1, "0"),
        (["profile", "synth_private"], "--every", 1, "0"),
        (["profile", "synth_private"], "--every", 1, "-5"),
        (["explain", "fft"], "--slowest", 0, "-1"),
        (["attribute", "fft"], "--top-spans", 0, "-1"),
        (["bounds", "fft"], "--max-witnesses", 0, "-1"),
    ])
    def test_bad_count_rejected(self, argv, option, minimum, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: argument {option}: must be >= {minimum}, got {value}\n"
        )

    def test_zero_count_means_off(self):
        args = build_parser().parse_args(["explain", "fft", "--slowest", "0"])
        assert args.slowest == 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "synth_uniform" in out

    def test_thresholds(self, capsys):
        assert main(["thresholds"]) == 0
        assert "76" in capsys.readouterr().out

    def test_run_smoke(self, capsys):
        rc = main(["run", "synth_private", "--scale", "0.25", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RNMr" in out

    def test_run_numa(self, capsys):
        rc = main(
            ["run", "synth_private", "--machine", "numa", "--scale", "0.25",
             "--no-cache"]
        )
        assert rc == 0

    def test_bad_figure_number(self, capsys):
        assert main(["figure", "9"]) == 2

    def test_figure_parallel_smoke(self, capsys):
        from repro.experiments.runner import reset_cache_stats

        reset_cache_stats()
        rc = main(
            ["figure", "2", "--scale", "0.25",
             "--workloads", "synth_private", "--jobs", "2"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "Figure 2" in captured.out and "synth_private" in captured.out
        assert "cache: 3 runs" in captured.err

    def test_bad_table_number(self):
        assert main(["table", "2"]) == 2

    def test_protocol(self, capsys):
        assert main(["protocol"]) == 0
        out = capsys.readouterr().out
        assert "transition table" in out and "read_excl" in out

    def test_verify(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "protocol OK" in out
        assert "machine crosscheck OK" in out

    def test_verify_no_crosscheck(self, capsys):
        assert main(["verify", "--nodes", "2", "--no-crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "protocol OK" in out
        assert "crosscheck" not in out

    def test_verify_parser_bounds(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--nodes", "9"])

    def test_lint_clean_tree(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_bad_file(self, tmp_path, capsys):
        (tmp_path / "coma").mkdir()
        bad = tmp_path / "coma" / "mod.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "mod.py:2" in out

    def test_lint_rule_filter(self, tmp_path, capsys):
        (tmp_path / "coma").mkdir()
        bad = tmp_path / "coma" / "mod.py"
        bad.write_text("import time\nt = time.time()\ndef f(x=[]):\n    pass\n")
        assert main(["lint", str(tmp_path), "--rules", "MUT001"]) == 1
        out = capsys.readouterr().out
        assert "MUT001" in out and "DET001" not in out

    def test_profile_smoke(self, capsys):
        rc = main(
            ["profile", "synth_private", "--scale", "0.25", "--every", "1000"]
        )
        assert rc == 0
        assert "replication degree" in capsys.readouterr().out

    def test_export_table1_csv(self, capsys):
        assert main(["export", "table1", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("app,")
        assert "barnes" in out

    def test_export_table1_json_unsupported(self, capsys):
        assert main(["export", "table1", "--format", "json"]) == 2

    def test_export_parser_choices(self):
        args = build_parser().parse_args(["export", "figure3", "--format", "json"])
        assert args.artifact == "figure3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "figure9"])

    def test_export_csv_provenance(self, capsys):
        rc = main(["export", "table1", "--scale", "0.5", "--provenance"])
        assert rc == 0
        out = capsys.readouterr().out
        first, second = out.splitlines()[:2]
        assert first.startswith("# provenance: repro=")
        assert "cache_version=" in first
        assert second.startswith("app,")


class TestTraceCommands:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "fft"])
        assert args.machine == "coma" and args.flight == 4096
        assert args.jsonl is None and args.chrome is None

    def test_trace_rejects_numa(self):
        # Only the COMA machines are instrumented for tracing.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fft", "--machine", "numa"])

    def test_trace_writes_both_formats(self, tmp_path, capsys):
        import json

        from repro.obs.chrometrace import validate_trace_events
        from repro.obs.jsonl import read_trace

        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(["trace", "synth_private", "--scale", "0.25",
                   "--jsonl", str(jsonl), "--chrome", str(chrome)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace events" in out and "perfetto" in out.lower()
        assert len(read_trace(jsonl)) > 0
        assert validate_trace_events(json.loads(chrome.read_text())) == []

    def test_trace_default_jsonl_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["trace", "synth_private", "--scale", "0.25"])
        assert rc == 0
        assert (tmp_path / "synth_private.trace.jsonl").exists()

    def test_explain_lists_busiest_lines(self, capsys):
        rc = main(["explain", "synth_private", "--scale", "0.25", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "busiest lines" in out and "--line" in out

    def test_explain_narrates_line(self, capsys):
        rc = main(["explain", "synth_migratory", "--scale", "0.05",
                   "--line", "0x80"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "line 0x80" in out
        assert "owner=" in out and "final:" in out

    def test_explain_unknown_line_suggests(self, capsys):
        rc = main(["explain", "synth_private", "--scale", "0.25",
                   "--line", "0xffffff"])
        assert rc == 0
        assert "no trace events" in capsys.readouterr().out


class TestBoundsCommand:
    def test_table_renders(self, capsys):
        rc = main(["bounds", "synth_private", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "remote" in out and "unbounded" in out

    def test_check_passes_clean(self, capsys):
        rc = main(["bounds", "synth_migratory", "--scale", "0.1",
                   "--check"])
        assert rc == 0
        assert "bounds OK" in capsys.readouterr().out

    def test_check_numa_flavour(self, capsys):
        rc = main(["bounds", "synth_migratory", "--machine", "numa",
                   "--scale", "0.1", "--check"])
        assert rc == 0
        assert "machine=numa" in capsys.readouterr().out

    def test_json_report_with_certification(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "bounds.json"
        rc = main(["bounds", "synth_private", "--scale", "0.1", "--check",
                   "--format", "json", "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["tool"] == "coma-sim bounds"
        assert payload["bounds"]
        assert payload["certification"]["violations"] == {
            "B101": 0, "B102": 0, "B103": 0}


class TestCoverageCommand:
    def test_table_with_micro(self, capsys):
        rc = main(["coverage", "--workloads", "synth_migratory",
                   "--scale", "0.05", "--micro"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "S:remote_read" in out and "GAP" in out

    def test_min_pct_gate_fails(self, capsys):
        rc = main(["coverage", "--workloads", "synth_private",
                   "--memory-pressure", "0.5", "--scale", "0.05",
                   "--min-pct", "99"])
        assert rc == 1
        assert "coverage FAILED" in capsys.readouterr().err

    def test_json_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "coverage.json"
        rc = main(["coverage", "--workloads", "synth_migratory",
                   "--scale", "0.05", "--micro", "--format", "json",
                   "--out", str(out_path), "--min-pct", "80"])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["provenance"]["tool"] == "coma-sim coverage"
        assert payload["dead"] == []
        assert "S:remote_read" in [g["cell"] for g in payload["gaps"]]
        assert payload["total_pct"] >= 80


class TestAttributeBounds:
    def test_attribute_reports_bounds_section(self, capsys):
        rc = main(["attribute", "synth_private", "--scale", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static bounds:" in out and "B101=0" in out
