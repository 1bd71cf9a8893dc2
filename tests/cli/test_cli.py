"""CLI entry points (one-shot, scripts, kit, loading)."""

import json

import pytest

from repro.cli import main


class TestOneShot:
    def test_command(self, capsys):
        assert main(["-c", "SELECT VALUE v + 1 FROM [1, 2] AS v"]) == 0
        out = capsys.readouterr().out
        assert "2" in out and "3" in out

    def test_error_returns_nonzero(self, capsys):
        assert main(["-c", "SELECT FROM"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unbound_name_error(self, capsys):
        assert main(["-c", "nope"]) == 1

    def test_core_flag(self, capsys):
        assert (
            main(["--core", "-c", "COALESCE(MISSING, 2) IS MISSING"]) == 0
        )
        assert "true" in capsys.readouterr().out

    def test_strict_flag(self, capsys):
        assert main(["--strict", "-c", "1 + 'a'"]) == 1

    def test_power_with_no_real_result(self, capsys):
        assert main(["-c", "SELECT VALUE POWER(-1, 0.5)"]) == 0
        assert main(["--strict", "-c", "SELECT VALUE POWER(-1, 0.5)"]) == 1
        assert "POWER" in capsys.readouterr().err


class TestScriptsAndLoading:
    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "q.sqlpp"
        script.write_text("SELECT VALUE 1; SELECT VALUE 'two';")
        assert main([str(script)]) == 0
        out = capsys.readouterr().out
        assert "1" in out and "'two'" in out

    def test_load_json(self, tmp_path, capsys):
        data = tmp_path / "emp.json"
        data.write_text(json.dumps([{"name": "bob"}]))
        code = main(
            [
                "--load",
                f"emp={data}",
                "-c",
                "SELECT VALUE e.name FROM emp AS e",
            ]
        )
        assert code == 0
        assert "bob" in capsys.readouterr().out

    def test_bad_load_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["--load", "nopath", "-c", "1"])


class TestKit:
    def test_compat_kit_passes(self, capsys):
        assert main(["--compat-kit"]) == 0
        out = capsys.readouterr().out
        assert "cases passed" in out
        assert "FAIL" not in out


class TestKitJson:
    def test_json_report(self, capsys):
        import json

        assert main(["--compat-kit", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] == report["total"] > 50
        assert {"compat", "core"} >= {case["mode"] for case in report["cases"]}


class TestObservabilityFlags:
    def test_explain_analyze_statement(self, capsys):
        assert (
            main(["-c", "EXPLAIN ANALYZE SELECT VALUE v FROM [1, 2, 3] AS v WHERE v > 1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "calls=" in out and "rows_out=" in out
        assert "phases:" in out
        assert "rows returned: 2" in out

    def test_plain_explain_does_not_execute(self, capsys):
        assert main(["-c", "EXPLAIN SELECT VALUE v FROM [1, 2] AS v"]) == 0
        out = capsys.readouterr().out
        assert "calls=" not in out

    def test_stats_flag_prints_phases(self, capsys):
        assert main(["--stats", "-c", "SELECT VALUE 1"]) == 0
        captured = capsys.readouterr()
        assert "-- parse:" in captured.err
        assert "-- total:" in captured.err

    def test_max_rows_reports_partial_progress(self, capsys):
        code = main(
            [
                "--max-rows",
                "10",
                "-c",
                "SELECT a, b FROM [1,2,3,4,5] AS a, [1,2,3,4,5] AS b",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "resource limit" in err
        assert "stopped after" in err and "max_rows" in err

    def test_timeout_flag(self, capsys):
        code = main(
            [
                "--timeout",
                "0.05",
                "-c",
                "SELECT a, b FROM RANGE(0, 3000) AS a, RANGE(0, 3000) AS b",
            ]
        )
        assert code == 1
        assert "timeout" in capsys.readouterr().err

    def test_slow_log_flag(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "slow.jsonl"
        assert main(["--slow-log", str(path), "-c", "SELECT VALUE 1"]) == 0
        record = json_module.loads(path.read_text().splitlines()[0])
        assert record["status"] == "ok"


class TestObservabilityFlags:
    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(
            [
                "--trace-out",
                str(path),
                "-c",
                "SELECT VALUE v + 1 FROM [1, 2] AS v",
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events, "trace file has no events"
        names = {event["name"] for event in events}
        assert {"query", "parse", "execute"} <= names
        for event in events:
            assert event["ph"] == "X"
            assert "ts" in event and "dur" in event

    def test_trace_out_spans_whole_script(self, tmp_path, capsys):
        script = tmp_path / "q.sqlpp"
        script.write_text("SELECT VALUE 1; SELECT VALUE 2;")
        path = tmp_path / "trace.json"
        assert main(["--trace-out", str(path), str(script)]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        assert sum(event["name"] == "query" for event in events) == 2

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        path = tmp_path / "metrics.txt"
        code = main(
            ["--metrics-out", str(path), "-c", "SELECT VALUE 1"]
        )
        assert code == 0
        text = path.read_text()
        assert "repro_queries_total 1" in text
        assert "# TYPE repro_query_seconds histogram" in text
        assert text.endswith("\n")

    def test_outputs_written_even_when_query_fails(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.txt"
        code = main(
            [
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
                "-c",
                "SELECT VALUE x.v FROM unbound_name AS x",
            ]
        )
        assert code == 1
        assert trace.exists()
        assert "repro_queries_failed_total 1" in metrics.read_text()


class TestQueryStoreCLI:
    def test_store_flag_then_report_verb(self, tmp_path, capsys):
        path = str(tmp_path / "store.jsonl")
        assert main(["--store", path, "-c", "SELECT VALUE v FROM [1, 2] AS v"]) == 0
        capsys.readouterr()
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("query store: 1 fingerprint(s)")
        assert "calls=1" in out

    def test_report_json(self, tmp_path, capsys):
        path = str(tmp_path / "store.jsonl")
        assert main(["--store", path, "-c", "SELECT VALUE 1"]) == 0
        capsys.readouterr()
        assert main(["report", path, "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["fingerprints"] == 1
        assert snapshot["entries"][0]["executions"] == 1

    def test_report_tolerates_corrupt_lines(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        path.write_text('{"fp": "abc", "q": "SELECT 1", "plan": null, '
                        '"status": "ok", "total_s": 0.1, "rows": 1}\n'
                        "garbage\n")
        assert main(["report", str(path)]) == 0
        assert "1 fingerprint(s)" in capsys.readouterr().out

    def test_topqueries_dot_command(self, capsys):
        from repro import Database
        from repro.cli import _dot_command

        db = Database()
        db.execute("SELECT VALUE 1")
        assert _dot_command(db, ".topqueries 5")
        out = capsys.readouterr().out
        assert "query store:" in out

    def test_topqueries_disabled_store(self, capsys):
        from repro import Database
        from repro.cli import _dot_command

        db = Database(query_store=False)
        assert _dot_command(db, ".topqueries")
        assert "disabled" in capsys.readouterr().out

    def test_topqueries_bad_argument(self, capsys):
        from repro import Database
        from repro.cli import _dot_command

        db = Database()
        assert _dot_command(db, ".topqueries nope")
        assert "usage: .topqueries" in capsys.readouterr().out
