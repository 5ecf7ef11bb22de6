"""Tests for EXPLAIN ANALYZE and the physical-plan renderer
(repro.obs.analyze via lang/printer)."""

import pytest

from repro.devices.scenario import build_temperature_surveillance
from repro.lang.printer import explain_analyze, explain_physical
from repro.obs.analyze import analyze_rows


@pytest.fixture(scope="module")
def scenario():
    built = build_temperature_surveillance(engine="shared")
    built.run(5)
    return built


class TestAnalyzeRows:
    def test_rows_cover_every_executor_once(self, scenario):
        alerts = scenario.queries["alerts"]
        rows = analyze_rows(alerts)
        real = [r for r in rows if not r["repeat"]]
        assert len(real) == len(alerts.executors())
        assert [r["index"] for r in real] == list(range(len(real)))
        assert rows[0]["depth"] == 0

    def test_shared_rows_carry_refcounts(self, scenario):
        rows = analyze_rows(scenario.queries["alerts"])
        shared = [r for r in rows if not r["repeat"] and r["shared"]]
        # Both registered queries lease the temperature-window subplan.
        assert shared
        assert any(r["refcount"] >= 2 for r in shared)
        private = [r for r in rows if not r["repeat"] and not r["shared"]]
        assert all(r["refcount"] is None for r in private)

    def test_delta_cardinalities_accumulate(self, scenario):
        rows = analyze_rows(scenario.queries["alerts"])
        # The temperature stream inserts 4 tuples per tick for 5 ticks;
        # the window reads them from the journal and names the stream.
        window = next(r for r in rows if r["operator"] == "W[1] ← temperatures")
        assert window["executor"] == "WindowExec"
        assert window["ticks"] == 5
        assert window["input_inserted"] == 20
        assert window["output_inserted"] == 20

    def test_invocation_rows_expose_outcome_counts(self, scenario):
        rows = analyze_rows(scenario.queries["alerts"])
        invocations = [r for r in rows if "invocations" in r]
        assert invocations
        for row in invocations:
            for key in ("invocations", "memo_hits", "fast_failed", "failures"):
                assert row[key] >= 0

    def test_naive_engine_has_no_physical_plan(self):
        built = build_temperature_surveillance(engine="naive")
        built.run(2)
        assert analyze_rows(built.queries["alerts"]) == []
        text = explain_analyze(built.queries["alerts"])
        assert "no physical plan" in text


class TestRenderAnalyze:
    def test_header_and_rows(self, scenario):
        text = explain_analyze(scenario.queries["alerts"])
        assert text.startswith("EXPLAIN ANALYZE alerts")
        assert "engine=shared" in text
        assert "last instant=5" in text
        assert "shared(refs=" in text
        assert "ticks=5" in text
        assert "in Δ+" in text and "out Δ+" in text

    def test_sharing_summary_line(self, scenario):
        text = explain_analyze(scenario.queries["alerts"])
        summary = scenario.queries["alerts"].sharing_summary
        assert f"{summary['executors']} executors" in text
        assert f"{summary['shared']} shared / {summary['private']} private" in text


class TestRenderPhysical:
    def test_registered_plan_shows_shared_subtrees(self, scenario):
        registry = scenario.pems.queries.shared
        text = explain_physical(scenario.queries["alerts"].query, registry)
        assert "[ScanExec]" in text
        assert "shared(refs=" in text

    def test_unregistered_operator_is_private_over_shared_scan(self, scenario):
        from repro.lang.sql import compile_sql

        query = compile_sql(
            "SELECT * FROM contacts WHERE name = 'Carla'",
            scenario.pems.environment,
        )
        text = explain_physical(query, scenario.pems.queries.shared)
        lines = text.splitlines()
        # No registered query runs this selection: its root is private —
        # but the bare contacts scan under it is already leased.
        assert "private" in lines[0]
        assert any("scan(contacts)" in l and "shared(refs=" in l for l in lines)

    def test_without_registry_everything_private(self, scenario):
        text = explain_physical(scenario.queries["alerts"].query)
        assert "shared(refs=" not in text
        assert "private" in text

    def test_a_repeated_subtree_prints_once(self, scenario):
        """A self-join of π(W[1](temperatures)) with a renamed copy of
        itself runs one window and one projection; the printed plan is
        that plan, with the second reach marked as a repeat."""
        from repro.algebra import scan
        from repro.exec import SharedPlanRegistry

        env = scenario.pems.environment

        def readings():
            return (
                scan(env, "temperatures")
                .window(1)
                .project("location", "temperature")
            )

        plan = readings().join(readings().rename("temperature", "other"))
        text = explain_physical(plan.query("pairs"))
        lines = text.splitlines()
        assert sum("[WindowExec]" in line for line in lines) == 1
        projections = [line for line in lines if "[ProjectionExec]" in line]
        assert len(projections) == 2
        assert projections[1].endswith("(shared node above)")
        root = SharedPlanRegistry(env).acquire(plan.node).root
        distinct = {id(executor) for executor in root.walk()}
        assert len(lines) - 1 == len(distinct)
