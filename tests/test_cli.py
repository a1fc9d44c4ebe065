"""The command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "library scl90" in out
        assert "HEADER_X2" in out
        assert "device svt" in out


class TestLiberty:
    def test_dump_and_reload(self, tmp_path, capsys):
        path = tmp_path / "lib.lib"
        assert main(["liberty", "--out", str(path)]) == 0
        assert main(["--liberty", str(path), "info"]) == 0
        assert "38 cells" in capsys.readouterr().out


class TestNetlist:
    def test_builtin_to_file(self, tmp_path):
        path = tmp_path / "c.v"
        assert main(["netlist", "counter16", "--out", str(path)]) == 0
        assert "module counter16" in path.read_text()

    def test_verilog_file_as_design(self, tmp_path, capsys):
        path = tmp_path / "c.v"
        main(["netlist", "lfsr16", "--out", str(path)])
        assert main(["sta", str(path)]) == 0
        assert "Fmax" in capsys.readouterr().out

    def test_unknown_file(self, capsys):
        assert main(["netlist", "nonexistent.v"]) == 1
        assert "error" in capsys.readouterr().err


class TestDesigns:
    def test_list(self, capsys):
        assert main(["designs", "list"]) == 0
        out = capsys.readouterr().out
        assert "multiplier" in out
        assert "mult16" in out

    def test_show_family(self, capsys):
        assert main(["designs", "show", "multiplier"]) == 0
        out = capsys.readouterr().out
        assert "param" in out
        assert "1 .. 128" in out
        assert "multiplier(n=16, registered=True)" in out

    def test_elaborate_spec(self, tmp_path, capsys):
        path = tmp_path / "m.v"
        assert main(["designs", "elaborate", "multiplier(n=4)",
                     "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mult4" in out
        assert "module mult4" in path.read_text()

    def test_sweep_family(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        assert main(["designs", "sweep", "multiplier",
                     "--param", "n=4,8", "--freqs", "100kHz,1MHz",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "multiplier(n=4, registered=True)" in out
        assert "saving" in out
        import json

        results = json.loads(json_path.read_text())
        assert len(results) == 2
        assert len(results[0]["rows"]) == 2

    def test_target_required(self, capsys):
        assert main(["designs", "show"]) == 1
        assert "needs a target" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        assert main(["designs", "show", "nonesuch"]) == 1
        assert "nonesuch" in capsys.readouterr().err

    def test_bad_param_value(self, capsys):
        assert main(["designs", "sweep", "multiplier",
                     "--param", "n=0"]) == 1
        assert "multiplier.n" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ("x", "4.5"))
    def test_param_type_error(self, value, capsys):
        """A value of the wrong type is an ``error:`` line naming the
        parameter and its type, not a traceback."""
        assert main(["designs", "sweep", "multiplier",
                     "--param", "n={}".format(value)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--param n" in err and "int" in err


class TestScpg:
    def test_transform_outputs(self, tmp_path, capsys):
        upf = tmp_path / "out.upf"
        vlog = tmp_path / "out.v"
        code = main(["scpg", "mult16", "--upf", str(upf),
                     "--verilog", str(vlog)])
        assert code == 0
        out = capsys.readouterr().out
        assert "HEADER_X2" in out
        assert "area overhead" in out
        assert "create_power_switch" in upf.read_text()
        assert "mult16_comb" in vlog.read_text()

    def test_forced_header_size(self, capsys):
        assert main(["scpg", "counter16", "--header-size", "1"]) == 0
        assert "HEADER_X1" in capsys.readouterr().out

    def test_missing_clock_is_error(self, tmp_path, capsys):
        # An unclocked design: write one by hand.
        src = tmp_path / "comb.v"
        src.write_text(
            "module comb (a, y);\n  input a; output y;\n"
            "  INV_X1 g (.A(a), .Y(y));\nendmodule\n")
        assert main(["scpg", str(src)]) == 1
        assert "clock" in capsys.readouterr().err


class TestReports:
    def test_sta_report(self, capsys):
        assert main(["sta", "counter16"]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "Fmax (SCPG, 50% duty)" in out

    def test_sta_at_voltage(self, capsys):
        main(["sta", "counter16"])
        nominal = capsys.readouterr().out
        main(["sta", "counter16", "--vdd", "0.4"])
        low = capsys.readouterr().out
        assert nominal != low

    @pytest.mark.parametrize("argv", (
        ["power", "mult16", "--vdd", "0"],
        ["power", "mult16", "--vdd", "-1"],
        ["sta", "mult16", "--vdd", "-0.5"],
        ["compare", "mult16", "--vdd", "0"],
    ))
    def test_nonpositive_vdd_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "error:" in err and "--vdd" in err

    def test_power_report(self, capsys):
        assert main(["power", "counter16", "--freq", "5MHz"]) == 0
        out = capsys.readouterr().out
        assert "Leakage by cell group" in out
        assert "Total average power" in out


class TestTable:
    def test_table1_fast(self, capsys):
        assert main(["table", "1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "14.30" in out

    def test_table_to_file(self, tmp_path):
        path = tmp_path / "t1.txt"
        assert main(["table", "1", "--fast", "--out", str(path)]) == 0
        assert "Saving" in path.read_text()

    def test_table_honours_liberty(self, capsys, tmp_path):
        """The case study is built on the session's library, so a
        missing ``--liberty`` file fails instead of printing scl90
        numbers."""
        missing = tmp_path / "missing.lib"
        assert main(["--liberty", str(missing), "table", "1",
                     "--fast"]) == 1
        captured = capsys.readouterr()
        assert "TABLE I" not in captured.out
        assert captured.err.startswith("error:")


class TestSubvtCommand:
    def test_subvt_sweep(self, capsys):
        assert main(["subvt", "counter16"]) == 0
        out = capsys.readouterr().out
        assert "minimum-energy point" in out
        assert "Fmax" in out


class TestObservabilityFlags:
    def test_stats_json_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "stats.json"
        assert main(["--stats-json", str(path), "subvt",
                     "counter16"]) == 0
        capsys.readouterr()
        stats = json.loads(path.read_text())
        assert stats["points"] > 0
        assert stats["crashes"] == 0
        assert "stages" in stats

    def test_journal_written(self, tmp_path, capsys):
        from repro.runner import read_journal

        path = tmp_path / "run.jsonl"
        assert main(["--journal", str(path), "subvt", "counter16"]) == 0
        capsys.readouterr()
        events = [e["event"] for e in read_journal(path)]
        assert "run_start" in events
        assert "point_finished" in events

    def test_flags_leave_stdout_untouched(self, tmp_path, capsys):
        assert main(["subvt", "counter16"]) == 0
        plain = capsys.readouterr().out
        assert main(["--journal", str(tmp_path / "j.jsonl"),
                     "--stats-json", str(tmp_path / "s.json"),
                     "subvt", "counter16"]) == 0
        assert capsys.readouterr().out == plain
        assert main(["--no-artifact-cache", "subvt", "counter16"]) == 0
        assert capsys.readouterr().out == plain

    def test_artifact_cache_keeps_reports_identical(self, capsys):
        for command in (["sta", "counter16"],
                        ["power", "counter16", "--freq", "1MHz"]):
            assert main(command) == 0
            cached = capsys.readouterr().out
            assert main(["--no-artifact-cache"] + command) == 0
            assert capsys.readouterr().out == cached

    def test_trace_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["--trace", str(path), "subvt", "counter16"]) == 0
        capsys.readouterr()
        spans = [json.loads(l) for l in path.read_text().splitlines()]
        names = {s["name"] for s in spans}
        assert {"grid", "stage"} <= names
        assert "batch" in names or "point" in names
        assert all(s["event"] == "span" for s in spans)

    def test_metrics_written(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        assert main(["--metrics", str(path), "subvt", "counter16"]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert "# TYPE repro_points_total counter" in text
        assert "repro_point_seconds_count" in text

    def test_trace_and_metrics_leave_stdout_untouched(self, tmp_path,
                                                      capsys):
        assert main(["subvt", "counter16"]) == 0
        plain = capsys.readouterr().out
        assert main(["--trace", str(tmp_path / "t.jsonl"),
                     "--metrics", str(tmp_path / "m.prom"),
                     "subvt", "counter16"]) == 0
        assert capsys.readouterr().out == plain


class TestReportCommand:
    def test_report_over_real_sweep_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        assert main(["--no-cache", "--journal", str(journal),
                     "subvt", "counter16"]) == 0
        capsys.readouterr()
        assert main(["report", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "journal report:" in out
        assert "per-grid breakdown" in out
        assert "stage timings" in out
        assert "result cache" in out

    def test_report_straggler_k_and_out(self, tmp_path, capsys):
        import json

        events = [{"t": 0.0, "event": "run_start", "label": "g",
                   "points": 100, "cached": 0, "pending": 100,
                   "workers": 1, "cache": False}]
        events += [{"t": 0.0, "event": "point_finished", "index": i,
                    "status": "ok", "attempts": 0, "timeouts": 0,
                    "elapsed": 0.5 if i == 99 else 0.01}
                   for i in range(100)]
        events.append({"t": 0.0, "event": "run_finish", "label": "g",
                       "stats": {}})
        journal = tmp_path / "synthetic.jsonl"
        journal.write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        out_path = tmp_path / "report.txt"
        assert main(["report", str(journal), "--straggler-k", "3",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert "[straggler]" in out_path.read_text()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_table_number(self):
        with pytest.raises(SystemExit):
            main(["table", "3"])
