"""Tests for the interactive shell (repro.cli)."""

import pytest

from repro.cli import main, run_shell
from repro.core.database import TseDatabase
from repro.workloads.university import build_figure3_database, populate_students


@pytest.fixture()
def session():
    db, view = build_figure3_database()
    populate_students(db, 3)
    output = []
    return db, output, lambda lines: run_shell(db, "VS1", lines, emit=output.append)


class TestMetaCommands:
    def test_views_lists_and_marks_current(self, session):
        db, output, shell = session
        shell([".views"])
        assert any("VS1.v1" in line and "*" in line for line in output)

    def test_show_and_classes(self, session):
        db, output, shell = session
        shell([".show", ".classes"])
        text = "\n".join(output)
        assert "VS1.v1" in text
        assert "Student(" in text

    def test_extent(self, session):
        db, output, shell = session
        shell([".extent TA"])
        assert any("oid:" in line for line in output)

    def test_use_switches_views(self, session):
        db, output, shell = session
        db.create_view("alt", ["Person"], closure="ignore")
        state = shell([".use alt", ".show"])
        assert state["view"] == "alt"
        assert any("alt.v1" in line for line in output)

    def test_use_unknown_view_is_error(self, session):
        db, output, shell = session
        state = shell([".use nope"])
        assert state["errors"] == 1

    def test_quit_stops_processing(self, session):
        db, output, shell = session
        state = shell([".quit", "create Student [name = \"never\"]"])
        assert state["executed"] == 0

    def test_help_and_unknown_meta(self, session):
        db, output, shell = session
        shell([".help", ".bogus"])
        text = "\n".join(output)
        assert ".views" in text
        assert "unknown meta-command" in text

    def test_save_writes_file(self, session, tmp_path):
        db, output, shell = session
        target = tmp_path / "dump.json"
        shell([f".save {target}"])
        assert target.exists()
        loaded = TseDatabase.load(target)
        assert "VS1" in loaded.view_names()

    def test_history(self, session):
        db, output, shell = session
        shell(["add_attribute x : int to Student", ".history"])
        assert any("add_attribute x to Student" in line for line in output)


class TestBatchCommands:
    def test_batch_commit_and_abort_through_a_renamed_property(self, session):
        """``.batch`` collects updates and commits them as one atomic batch
        in view vocabulary: the renamed property resolves in assignments
        and in ``where``, and ``where`` sees the pre-batch state."""
        db, output, shell = session
        db.view("VS1").rename_property("Student", "name", "fullname")
        state = shell([
            ".batch begin",
            'create Student [fullname = "Zed"]',
            'set Student where fullname == "Zed" [fullname = "unseen"]',
            'set Student where fullname == "s2" [fullname = "renamed"]',
            ".batch status",
            ".batch commit",
            ".batch status",
        ])
        assert state["errors"] == 0
        assert "batch in progress: 3 update(s) pending" in output
        assert "batch committed: 3 update(s) applied atomically" in output
        assert output[-1] == "no batch in progress"
        names = sorted(h["fullname"] for h in db.view("VS1")["Student"].extent())
        assert names == ["Zed", "grad1", "renamed", "ta0"]

        output.clear()
        state = shell([".batch begin", "delete from Student", ".batch abort"])
        assert output[-1] == "batch aborted (1 pending update(s) discarded)"
        assert db.view("VS1")["Student"].count() == 4


class TestStatsMetricsTraceCommands:
    def test_stats_lists_nested_groups(self, session):
        db, output, shell = session
        shell([".stats"])
        text = "\n".join(output)
        assert "objects: 3" in text
        assert "pages:" in text
        assert "page_reads:" in text
        assert "transactions:" in text

    def test_stats_reset(self, session):
        db, output, shell = session
        shell(["add_attribute register : str to Student", ".stats reset", ".stats"])
        assert "stats reset" in output
        assert db.stats()["schema_changes_applied"] == 0
        assert any("schema_changes_applied: 0" in line for line in output)

    def test_metrics_json(self, session):
        import json

        db, output, shell = session
        shell([".metrics"])
        # everything after the echo is one JSON document matching db.stats()
        parsed = json.loads("\n".join(output))
        assert parsed["objects"] == 3
        assert parsed["pipeline"]["tracing_enabled"] is False

    def test_metrics_prometheus(self, session):
        db, output, shell = session
        shell([".metrics --prom"])
        text = "\n".join(output)
        assert "# TYPE tse_objects gauge" in text
        assert "tse_objects 3" in text
        assert "tse_schema_changes_applied_total 0" in text

    def test_trace_golden_session(self, session):
        db, output, shell = session
        shell(
            [
                ".trace",
                ".trace show",
                ".trace on",
                "add_attribute register : str to Student",
                ".trace show 1",
                ".trace off",
                ".trace",
            ]
        )
        text = "\n".join(output)
        assert "tracing is off (0 trace(s) buffered)" in output
        assert "no traces recorded (enable with .trace on)" in output
        assert "tracing enabled" in output
        # the rendered span tree: nested stages under the root
        assert "schema_change" in text and "operation=add_attribute" in text
        for stage in ("translate", "classify", "view_generate"):
            assert stage in text
        assert "tracing disabled" in output
        assert any("tracing is off (1 trace(s) buffered)" in line for line in output)

    def test_trace_usage_errors(self, session):
        db, output, shell = session
        shell([".trace bogus", ".trace show nan"])
        assert output.count("usage: .trace show [n]") == 1
        assert output.count("usage: .trace on|off|show [n]|export <file>") == 1


class TestLanguagePassthrough:
    def test_full_session(self, session):
        db, output, shell = session
        state = shell(
            [
                "# a comment line",
                "",
                'create Student [name = "Shelly", age = 30]',
                "add_attribute register : str to Student",
                'set Student where name == "Shelly" [register = "full"]',
            ]
        )
        assert state["executed"] == 3
        assert state["errors"] == 0
        view = db.view("VS1")
        from repro.algebra.expressions import Compare

        shelly = view["Student"].select_where(Compare("name", "==", "Shelly"))[0]
        assert shelly["register"] == "full"

    def test_errors_are_reported_not_fatal(self, session):
        db, output, shell = session
        state = shell(
            [
                "add_attribute major to Student",  # duplicate: rejected
                'create Student [name = "still works"]',
            ]
        )
        assert state["errors"] == 1
        assert state["executed"] == 1
        assert any("error:" in line for line in output)


class TestMain:
    def test_main_without_database_bootstraps(self, monkeypatch, capsys):
        monkeypatch.setattr("builtins.input", lambda prompt="": ".quit")
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "TSE shell" in out

    def test_main_loads_database(self, tmp_path, monkeypatch, capsys):
        db, view = build_figure3_database()
        path = tmp_path / "db.json"
        db.save(path)
        answers = iter([".classes", ".quit"])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        assert main([str(path), "--view", "VS1"]) == 0
        out = capsys.readouterr().out
        assert "Student(" in out


class TestObservabilityCommands:
    def test_explain_renders_the_dry_run(self, session):
        db, output, shell = session
        before = db.view("VS1").version
        shell([".explain add_attribute mentor : str to Student"])
        text = "\n".join(output)
        assert "EXPLAIN add_attribute" in text
        assert "script:" in text
        assert "defineVC" in text
        assert "predicted rechecks:" in text
        assert "timings:" in text
        # a dry run: the view did not advance
        assert db.view("VS1").version == before

    def test_explain_usage_and_non_schema_statement(self, session):
        db, output, shell = session
        shell([".explain", '.explain create Student [name = "x"]'])
        text = "\n".join(output)
        assert "usage: .explain" in text
        assert "takes a schema-change statement" in text

    def test_explain_rejects_composite_ops(self, session):
        db, output, shell = session
        shell([".explain delete_class_2 TA"])
        assert any("composite operation" in line for line in output)

    def test_top_renders_all_sections(self, session):
        db, output, shell = session
        shell([".trace on", ".sessions on",
               "add_attribute mentor : str to Student"])
        with db.sessions().reader() as reader:
            reader.count("VS1", "Student")
        shell([".top"])
        text = "\n".join(output)
        for section in ("== ops ==", "== schema-change latency (by op) ==",
                        "== hottest spans ==", "== sessions ==",
                        "== flight recorder =="):
            assert section in text, f"missing {section}"
        assert "add_attribute" in text
        assert "reads{session=r1}: 1" in text

    def test_flight_show_lists_recent_records(self, session):
        db, output, shell = session
        shell(["add_attribute mentor : str to Student", ".flight show 5"])
        text = "\n".join(output)
        assert "schema_change_applied" in text

    def test_flight_dump_writes_a_dossier(self, session, tmp_path):
        db, output, shell = session
        shell([f".flight dir {tmp_path}", ".flight dump testing"])
        assert any("dossier directory set" in line for line in output)
        dossiers = list(tmp_path.glob("dossier-testing-*.json"))
        assert len(dossiers) == 1
        assert any(str(dossiers[0]) in line for line in output)

    def test_flight_log_mirrors_records(self, session, tmp_path):
        db, output, shell = session
        log = tmp_path / "flight.jsonl"
        shell([f".flight log {log}", "add_attribute mentor : str to Student"])
        db.obs.flight.disable_file()
        assert log.exists()
        assert "schema_change_applied" in log.read_text()

    def test_trace_export_writes_chrome_trace(self, session, tmp_path):
        db, output, shell = session
        import json as _json

        target = tmp_path / "trace.json"
        shell([".trace on", "add_attribute mentor : str to Student",
               f".trace export {target}"])
        assert any("trace event(s)" in line for line in output)
        trace = _json.loads(target.read_text())
        assert trace["traceEvents"]
        assert all(e["ph"] == "X" for e in trace["traceEvents"])
