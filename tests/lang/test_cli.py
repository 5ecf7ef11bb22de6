"""Tests for the Serena shell (repro.cli) and DDL data statements."""

import io

import pytest

from repro.cli import SerenaShell, split_statements
from repro.devices.prototypes import STANDARD_PROTOTYPES
from repro.pems.pems import PEMS


@pytest.fixture
def shell():
    out = io.StringIO()
    pems = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        pems.environment.declare_prototype(prototype)
    return SerenaShell(pems, out), out


def output_of(pair):
    shell, out = pair
    return out.getvalue()


class TestSplitStatements:
    def test_dot_commands_are_lines(self):
        assert split_statements(".tick 3\n.show contacts\n") == [
            ".tick 3",
            ".show contacts",
        ]

    def test_multiline_statement_until_semicolon(self):
        text = "SELECT *\nFROM contacts;\n.tick"
        assert split_statements(text) == ["SELECT *\nFROM contacts;", ".tick"]

    def test_semicolon_inside_string_ignored(self):
        text = "INSERT INTO t VALUES ('a;b');"
        assert split_statements(text) == [text]

    def test_comments_stripped(self):
        assert split_statements("-- hello\n.tick -- trailing\n") == [".tick"]

    def test_multiple_statements_one_line(self):
        assert split_statements("SELECT a FROM t; SELECT b FROM t;") == [
            "SELECT a FROM t;",
            "SELECT b FROM t;",
        ]

    def test_unterminated_tail_kept(self):
        assert split_statements("SELECT * FROM t") == ["SELECT * FROM t"]


class TestShellStatements:
    def test_ddl_and_insert_and_select(self, shell):
        sh, out = shell
        sh.execute(
            "EXTENDED RELATION people ( name STRING, age INTEGER );"
        )
        sh.execute("INSERT INTO people VALUES ('Ada', 36), ('Alan', 41);")
        sh.execute("SELECT name FROM people WHERE age > 40;")
        text = out.getvalue()
        assert "ok:" in text
        assert "Alan" in text
        assert "Ada" not in text.split("| name")[-1]

    def test_delete_from(self, shell):
        sh, out = shell
        sh.execute("EXTENDED RELATION people ( name STRING );")
        sh.execute("INSERT INTO people VALUES ('Ada');")
        sh.pems.tick()
        sh.execute("DELETE FROM people VALUES ('Ada');")
        sh.execute("SELECT * FROM people;")
        assert "Ada" not in out.getvalue().rsplit("people", 1)[-1]

    def test_register_and_result(self, shell):
        sh, out = shell
        sh.execute("EXTENDED RELATION people ( name STRING );")
        sh.execute("REGISTER watch AS SELECT * FROM people;")
        sh.execute(".tick 2")
        sh.execute(".result watch")
        sh.execute(".queries")
        text = out.getvalue()
        assert "registered continuous query 'watch'" in text
        assert "watch: people" in text or "watch: project" in text

    def test_register_usage_error(self, shell):
        sh, out = shell
        sh.execute("REGISTER broken SELECT * FROM x;")
        assert "usage: REGISTER" in out.getvalue()

    def test_errors_are_reported_not_raised(self, shell):
        sh, out = shell
        sh.execute("SELECT * FROM ghost;")
        assert "error:" in out.getvalue()

    def test_unrecognized_statement(self, shell):
        sh, out = shell
        sh.execute("FROBNICATE;")
        assert "unrecognized statement" in out.getvalue()

    def test_unknown_command(self, shell):
        sh, out = shell
        sh.execute(".frobnicate")
        assert "unknown command" in out.getvalue()


class TestDotCommands:
    def test_catalog(self, shell):
        sh, out = shell
        sh.execute(".catalog")
        assert "-- Prototypes --" in out.getvalue()

    def test_show(self, shell):
        sh, out = shell
        sh.execute("EXTENDED RELATION people ( name STRING );")
        sh.execute("INSERT INTO people VALUES ('Ada');")
        sh.execute(".show people")
        assert "Ada" in out.getvalue()

    def test_tick(self, shell):
        sh, out = shell
        sh.execute(".tick 5")
        assert "now at instant 5" in out.getvalue()
        assert sh.pems.clock.now == 5

    def test_explain(self, shell):
        sh, out = shell
        sh.execute("EXTENDED RELATION people ( name STRING );")
        sh.execute(".explain SELECT name FROM people")
        assert "scan(people)" in out.getvalue()

    def test_sal(self, shell):
        sh, out = shell
        sh.execute("EXTENDED RELATION people ( name STRING );")
        sh.execute("INSERT INTO people VALUES ('Ada');")
        sh.execute(".sal select[name = 'Ada'](people)")
        assert "Ada" in out.getvalue()

    def test_demo_temperature(self, shell):
        sh, out = shell
        sh.execute(".demo temperature")
        sh.execute(".tick 2")
        sh.execute(".show sensors")
        text = out.getvalue()
        assert "loaded the temperature scenario" in text
        assert "sensor06" in text

    def test_demo_defaults_to_the_shared_engine(self, shell):
        sh, out = shell
        sh.execute(".demo rss")
        assert "(engine=shared)" in out.getvalue()
        assert sh.pems.queries.engine == "shared"

    @pytest.mark.parametrize(
        "engine",
        ["quantum", "incremental", "federated-threads", "federated", "federated-processes"],
    )
    def test_demo_rejects_unknown_engines(self, shell, engine):
        sh, out = shell
        before = sh.pems
        sh.execute(f".demo temperature {engine}")
        text = out.getvalue()
        assert f"error: unknown execution engine {engine!r}" in text
        assert "(expected one of naive, shared)" in text
        assert sh.pems is before  # nothing was loaded

    def test_demo_usage(self, shell):
        sh, out = shell
        sh.execute(".demo spaceship")
        assert (
            "usage: .demo temperature|substitution|rss|city [naive|shared]"
            in out.getvalue()
        )

    def test_quit_stops(self, shell):
        sh, out = shell
        assert sh.running
        sh.execute(".quit")
        assert not sh.running

    def test_run_script_stops_at_quit(self, shell):
        sh, out = shell
        sh.run_script(".tick 1\n.quit\n.tick 5\n")
        assert sh.pems.clock.now == 1

    def test_help(self, shell):
        sh, out = shell
        sh.execute(".help")
        text = out.getvalue()
        assert ".catalog" in text
        assert "``naive`` or ``shared``" in text
        assert ".shards" not in text and "federated" not in text


class TestOptimizeAndStats:
    def test_stats_lists_relations_and_streams(self, shell):
        sh, out = shell
        sh.execute(".demo temperature")
        sh.execute(".stats")
        text = out.getvalue()
        assert "contacts: 4 tuples" in text
        assert "temperatures: (stream — not profiled)" in text

    def test_optimize_shows_both_plans(self, shell):
        sh, out = shell
        sh.execute(".demo temperature")
        sh.execute(".tick 1")
        sh.execute(
            ".optimize SELECT sensor, temperature FROM sensors "
            "USING getTemperature HAVING location = 'office'"
        )
        text = out.getvalue()
        assert "-- original plan --" in text
        assert "-- optimized plan --" in text
        assert "plans explored" in text

    def test_stats_empty_environment(self, shell):
        sh, out = shell
        sh.execute(".stats")
        assert "(no relations)" in out.getvalue()


class TestRuleCommand:
    def test_rule_evaluates(self, shell):
        sh, out = shell
        sh.execute(".demo temperature")
        sh.execute(".tick 1")
        sh.execute(".rule who(n) :- contacts(n, _, _, 'email', _);")
        text = out.getvalue()
        assert "Carla" in text and "Nicolas" in text
        assert "Francois" not in text.split("who")[-1]

    def test_rule_errors_reported(self, shell):
        sh, out = shell
        sh.execute(".rule broken(x) :- nothing(x);")
        assert "error:" in out.getvalue()


class TestMainEntry:
    def test_main_executes_script_file(self, tmp_path, capsys):
        from repro.cli import main

        script = tmp_path / "session.serena"
        script.write_text(
            "EXTENDED RELATION people ( name STRING );\n"
            "INSERT INTO people VALUES ('Ada');\n"
            "SELECT * FROM people;\n",
            encoding="utf-8",
        )
        assert main([str(script)]) == 0
        assert "Ada" in capsys.readouterr().out


class TestObservabilityCommands:
    @pytest.fixture
    def traced(self):
        from repro.devices.scenario import build_temperature_surveillance

        out = io.StringIO()
        scenario = build_temperature_surveillance(
            engine="shared", observe="full"
        )
        sh = SerenaShell(scenario.pems, out)
        sh.execute(".tick 3")
        return sh, out

    def test_analyze_all_registered_queries(self, traced):
        sh, out = traced
        sh.execute(".analyze")
        text = out.getvalue()
        assert "EXPLAIN ANALYZE alerts" in text
        assert "EXPLAIN ANALYZE cold-photos" in text
        assert "shared(refs=" in text

    def test_analyze_one_query(self, traced):
        sh, out = traced
        sh.execute(".analyze alerts")
        text = out.getvalue()
        assert "EXPLAIN ANALYZE alerts" in text
        assert "cold-photos" not in text
        assert "ticks=3" in text

    def test_analyze_unknown_query_reports_error(self, traced):
        sh, out = traced
        sh.execute(".analyze ghost")
        assert "error:" in out.getvalue()

    def test_analyze_without_queries(self, shell):
        sh, out = shell
        sh.execute(".analyze")
        assert "(no continuous queries registered)" in out.getvalue()

    def test_explain_physical(self, traced):
        sh, out = traced
        sh.execute(
            ".explain physical SELECT * FROM contacts WHERE name = 'Carla'"
        )
        text = out.getvalue()
        assert "scan(contacts)" in text
        assert "[ScanExec]" in text
        assert "private" in text  # the unregistered selection root
        assert "shared(refs=" in text  # the leased contacts scan below it

    def test_explain_usage(self, shell):
        sh, out = shell
        sh.execute(".explain")
        assert "usage: .explain [physical] SELECT ..." in out.getvalue()

    def test_metrics_prometheus_text(self, traced):
        sh, out = traced
        sh.execute(".metrics")
        text = out.getvalue()
        assert "serena_ticks_total 3" in text
        assert "# TYPE serena_tick_seconds histogram" in text
        assert "serena_invocations_total" in text

    def test_metrics_json(self, traced):
        import json

        sh, out = traced
        sh.execute(".metrics json")
        payload = out.getvalue().split("now at instant 3\n", 1)[1]
        snapshot = json.loads(payload)
        assert snapshot["mode"] == "full"
        assert "serena_ticks_total" in snapshot["metrics"]

    def test_metrics_usage(self, traced):
        sh, out = traced
        sh.execute(".metrics yaml")
        assert "usage: .metrics [json]" in out.getvalue()

    def test_trace_renders_span_tree(self, traced):
        sh, out = traced
        sh.execute(".trace 50")
        text = out.getvalue()
        assert "τ=3 tick" in text
        assert "queries.tick" in text
        assert "query=alerts" in text

    def test_trace_json_lines_parse(self, traced):
        import json

        sh, out = traced
        sh.execute(".trace json")
        payload = out.getvalue().split("now at instant 3\n", 1)[1]
        for line in payload.strip().splitlines():
            json.loads(line)

    def test_trace_disabled_without_full_mode(self, shell):
        sh, out = shell  # plain PEMS() defaults to metrics mode
        sh.execute(".trace")
        assert "tracing is off" in out.getvalue()

    def test_trace_usage(self, traced):
        sh, out = traced
        sh.execute(".trace lots")
        assert "usage: .trace [n|json]" in out.getvalue()

    def test_help_lists_observability_commands(self, shell):
        sh, out = shell
        sh.execute(".help")
        text = out.getvalue()
        assert ".analyze" in text
        assert ".metrics" in text
        assert ".trace" in text


class TestProfileCommand:
    def test_profile_shows_counts_and_result(self, shell):
        sh, out = shell
        sh.execute(".demo temperature")
        sh.execute(".tick 1")
        sh.execute(".profile SELECT sensor FROM sensors")
        text = out.getvalue()
        assert "tuples]" in text
        assert "service invocations: 0" in text
        assert "sensor06" in text


class TestCityCommands:
    def test_demo_city(self, shell):
        sh, out = shell
        sh.execute(".demo city")
        sh.execute(".tick 2")
        sh.execute(".result zone-load")
        text = out.getvalue()
        assert "loaded the city scenario" in text
        assert "avg_load" in text

    def test_demo_city_on_the_oracle(self, shell):
        sh, out = shell
        sh.execute(".demo city naive")
        assert "loaded the city scenario (engine=naive)" in out.getvalue()
        assert sh.pems.queries.engine == "naive"

    def test_the_parked_federation_has_no_shell_surface(self, shell):
        sh, out = shell
        before = sh.pems
        sh.execute(".demo city federated")
        sh.execute(".shards")
        text = out.getvalue()
        assert "unknown execution engine 'federated' (expected one of naive, shared)" in text
        assert "unknown command .shards" in text
        assert sh.pems is before  # nothing was loaded

    def test_city_loads_config_file(self, shell, tmp_path):
        import json

        sh, out = shell
        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {"name": "tiny", "zones": ["a"], "meters_per_zone": 2}
            )
        )
        sh.execute(f".city {path}")
        sh.execute(".tick 1")
        text = out.getvalue()
        assert "built city 'tiny'" in text
        assert "topology digest" in text

    def test_city_usage_and_missing_file(self, shell):
        sh, out = shell
        sh.execute(".city")
        assert "usage: .city <config.json|config.toml> [naive|shared]" in out.getvalue()
        sh.execute(".city /no/such/file.json")
        assert "error" in out.getvalue()
