"""Tests for the benches' shared support: report formatting and the
scaled surveillance workload."""

from support import Report, format_table, surveillance_workload


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "n"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].startswith("alpha")

    def test_format_table_floats(self):
        text = format_table(["x"], [[3.14159]])
        assert "3.142" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_report_emit_writes_file(self, tmp_path, capsys):
        report = Report("unit-test-report", directory=tmp_path)
        report.table(["k"], [["v"]], title="t")
        report.add("extra section")
        text = report.emit()
        assert "== unit-test-report ==" in text
        assert "extra section" in text
        printed = capsys.readouterr().out
        assert "unit-test-report" in printed
        written = (tmp_path / "unit-test-report.txt").read_text(encoding="utf-8")
        assert written.strip() == text.strip()

    def test_default_directory_is_beside_the_benches(self):
        assert Report("r").directory.parts[-2:] == ("benchmarks", "reports")


class TestSurveillanceWorkload:
    def test_adds_sensors_rooms_and_managers_to_the_scenario(self):
        scenario = surveillance_workload(12, rooms=4, contacts=3)
        assert len(scenario.sensors) == 4 + 12
        scenario.run(1)
        env = scenario.environment
        assert len(env.instantaneous("sensors", 1)) == 4 + 12
        assert len(env.instantaneous("contacts", 1)) == 4 + 3
        assert len(env.instantaneous("surveillance", 1)) == 4 + 4

    def test_hot_fraction_drives_alerts(self):
        cold = surveillance_workload(10, rooms=5, hot_fraction=0.0)
        cold.run(5)
        assert len(cold.outbox) == 0
        hot = surveillance_workload(10, rooms=5, hot_fraction=1.0)
        hot.run(5)
        assert len(hot.outbox) > 0
