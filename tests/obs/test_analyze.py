"""Tests for EXPLAIN ANALYZE and the physical-plan renderer
(repro.obs.analyze via lang/printer)."""

import pytest

from repro.devices.scenario import build_temperature_surveillance
from repro.lang.printer import explain_analyze, explain_physical
from repro.obs.analyze import analyze_rows


@pytest.fixture(scope="module")
def scenario():
    built = build_temperature_surveillance(engine="shared", observe="metrics")
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
        scans = [r for r in rows if r.get("executor") == "ScanExec"]
        assert scans
        # The temperature stream inserts 4 tuples per tick for 5 ticks.
        stream_scan = next(
            r for r in scans if "temperatures" in r["operator"]
        )
        assert stream_scan["ticks"] == 5
        assert stream_scan["output_inserted"] == 20
        assert stream_scan["rows_scanned"] >= 20

    def test_invocation_rows_expose_outcome_counts(self, scenario):
        rows = analyze_rows(scenario.queries["alerts"])
        invocations = [r for r in rows if "invocations" in r]
        assert invocations
        for row in invocations:
            for key in ("invocations", "memo_hits", "fast_failed", "failures"):
                assert row[key] >= 0

    def test_naive_engine_has_no_physical_plan(self):
        built = build_temperature_surveillance(engine="naive", observe="off")
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
