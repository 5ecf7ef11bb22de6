"""Integration tests for the columnar backend: backend validation at
every seam, mixed row/columnar trees, EXPLAIN ANALYZE reporting and
backend-aware tick-cost scoring.

Tuple-level correctness is pinned by the ``(engine, backend)`` differentials
(:mod:`tests.exec.test_differential`); these tests cover the plumbing
around the executors.
"""

import pytest

from repro.algebra import col, scan
from repro.algebra.context import EvaluationContext
from repro.algebra.cost import COLUMNAR_TUPLE_FACTOR, CostModel
from repro.algebra.optimizer import Optimizer
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import build_temperature_surveillance
from repro.errors import SerenaError
from repro.exec.columnar import ColumnarDelta, ValuePool
from repro.exec.lowering import lower
from repro.exec.shared import SharedPlanRegistry
from repro.exec.vectorized import (
    ColumnarExecutor,
    ColumnarJoinExec,
    ColumnarScanExec,
)
from repro.model.attributes import Attribute
from repro.model.environment import PervasiveEnvironment
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.obs.analyze import analyze_rows, render_analyze


def paper_env():
    return build_paper_example().environment


def contacts_query(env, name="q"):
    return (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .project("name", "address")
        .query(name)
    )


# ---------------------------------------------------------------------------
# Backend selection and validation
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_explicit_backend_on_a_private_registry(self):
        env = paper_env()
        cq = ContinuousQuery(contacts_query(env), env, backend="columnar")
        assert cq.engine == "shared"
        assert cq.backend == "columnar"
        assert any(e.backend == "columnar" for e in cq.executors())
        default = ContinuousQuery(contacts_query(env), env)
        assert default.backend == "row"
        assert all(e.backend == "row" for e in default.executors())

    def test_columnar_is_a_backend_not_an_engine(self):
        env = paper_env()
        with pytest.raises(SerenaError, match="naive, shared"):
            ContinuousQuery(contacts_query(env), env, engine="columnar")

    def test_naive_engine_rejects_columnar_backend(self):
        env = paper_env()
        with pytest.raises(SerenaError, match="naive"):
            ContinuousQuery(
                contacts_query(env), env, engine="naive", backend="columnar"
            )

    def test_shared_registry_backend_mismatch_is_an_error(self):
        env = paper_env()
        registry = SharedPlanRegistry(env, backend="columnar")
        cq = ContinuousQuery(
            contacts_query(env), env, engine="shared", shared=registry
        )
        assert cq.backend == "columnar"  # inherited from the registry
        with pytest.raises(SerenaError, match="backend"):
            ContinuousQuery(
                contacts_query(env, "q2"), env, engine="shared",
                shared=registry, backend="row",
            )
        cq.release()

    def test_mixed_tree_keeps_row_executors_for_beta(self):
        env = paper_env()
        query = (
            scan(env, "contacts")
            .select(col("name").ne("Carla"))
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query("q")
        )
        root = lower(query.root, backend="columnar")
        backends = {type(e).__name__: e.backend for e in root.walk()}
        assert backends["ColumnarScanExec"] == "columnar"
        assert backends["ColumnarSelectionExec"] == "columnar"
        assert backends["InvocationExec"] == "row"


# ---------------------------------------------------------------------------
# Columnar executors through the engine
# ---------------------------------------------------------------------------


class TestColumnarExecution:
    def test_change_deltas_are_columnar(self):
        env = paper_env()
        root = lower(contacts_query(env).root, backend="columnar")
        ctx = EvaluationContext(env, 0, states={}, continuous=True)
        change = root.tick(ctx)
        assert isinstance(change, ColumnarDelta)
        assert change.inserted  # the contacts rows minus Carla, projected
        assert root.current == change.inserted

    def test_scan_is_both_columnar_and_a_journaled_scan(self):
        # MRO matters: StreamingExec._journal_scan_child isinstance-checks
        # ScanExec, so the columnar scan must remain one.
        from repro.exec.executors import ScanExec

        env = paper_env()
        root = lower(scan(env, "contacts").query("q").root, backend="columnar")
        assert isinstance(root, ColumnarScanExec)
        assert isinstance(root, ColumnarExecutor)
        assert isinstance(root, ScanExec)

    def test_batch_stats_accumulate(self):
        env = paper_env()
        cq = ContinuousQuery(contacts_query(env), env, backend="columnar")
        cq.evaluate_at(0)
        cq.evaluate_at(1)
        columnar = [e for e in cq.executors() if e.backend == "columnar"]
        assert columnar
        for executor in columnar:
            assert executor.stats.batches == 2
        # The first tick moved the whole relation as one batch.
        assert any(e.stats.batch_rows > 0 for e in columnar)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


class TestAnalyzeBackendColumn:
    def test_rows_carry_backend_and_batch_fields(self):
        env = paper_env()
        cq = ContinuousQuery(contacts_query(env), env, backend="columnar")
        cq.evaluate_at(0)
        rows = analyze_rows(cq)
        assert rows
        assert {r["backend"] for r in rows} == {"columnar"}
        for row in rows:
            assert row["batches"] == 1
            assert row["batch_rows"] >= 0

    def test_render_shows_backend_and_batches(self):
        env = paper_env()
        cq = ContinuousQuery(contacts_query(env), env, backend="columnar")
        cq.evaluate_at(0)
        text = render_analyze(cq)
        assert "/columnar]" in text
        assert "batches=1" in text

    def test_row_backend_rows_have_no_batch_fields(self):
        env = paper_env()
        cq = ContinuousQuery(contacts_query(env), env)
        cq.evaluate_at(0)
        rows = analyze_rows(cq)
        assert {r["backend"] for r in rows} == {"row"}
        assert all("batches" not in r for r in rows)


# ---------------------------------------------------------------------------
# Join value-pool bound under key churn
# ---------------------------------------------------------------------------


class TestJoinPoolBound:
    def churn_rig(self):
        env = PervasiveEnvironment()
        lhs = XDRelation(
            ExtendedRelationSchema(
                "lhs",
                [Attribute("k", DataType.STRING), Attribute("a", DataType.STRING)],
            )
        )
        rhs = XDRelation(
            ExtendedRelationSchema(
                "rhs",
                [Attribute("k", DataType.STRING), Attribute("b", DataType.STRING)],
            )
        )
        env.add_relation(lhs)
        env.add_relation(rhs)
        return env, lhs, rhs

    @staticmethod
    def flip(relation, attr, instant, width=8):
        """Fresh join keys every instant; last instant's rows deleted —
        the worst case for the intern pool (every key is seen once)."""
        if instant > 1:
            relation.delete(
                [
                    (f"k{instant - 1}-{i}", f"{attr}{instant - 1}-{i}")
                    for i in range(width)
                ],
                instant=instant,
            )
        relation.insert(
            [(f"k{instant}-{i}", f"{attr}{instant}-{i}") for i in range(width)],
            instant=instant,
        )

    def test_high_churn_join_keys_stay_bounded(self):
        env, lhs, rhs = self.churn_rig()

        def join_query(name):
            return scan(env, "lhs").join(scan(env, "rhs")).query(name)

        row = ContinuousQuery(join_query("row"), env)
        columnar = ContinuousQuery(join_query("col"), env, backend="columnar")
        join = next(
            e for e in columnar.executors() if isinstance(e, ColumnarJoinExec)
        )
        join.pool = ValuePool(compact_threshold=32)

        ticks = 40
        for instant in range(1, ticks + 1):
            self.flip(lhs, "a", instant)
            self.flip(rhs, "b", instant)
            got = columnar.evaluate_at(instant)
            want = row.evaluate_at(instant)
            assert got.relation.tuples == want.relation.tuples, instant
            assert columnar.last_reported_delta == row.last_reported_delta

        # 40 ticks × 8 fresh keys interned, yet the pool stayed bounded.
        assert join.pool.compactions >= 2
        assert len(join.pool) < 64


# ---------------------------------------------------------------------------
# PEMS plumbing
# ---------------------------------------------------------------------------


class TestPemsBackend:
    def test_scenario_runs_on_the_columnar_backend(self):
        scenario = build_temperature_surveillance(backend="columnar")
        scenario.run(3)
        alerts = scenario.queries["alerts"]
        assert alerts.backend == "columnar"
        assert any(e.backend == "columnar" for e in alerts.executors())

    def test_pems_backend_reaches_the_shared_registry(self):
        from repro.pems.pems import PEMS

        pems = PEMS(engine="shared", backend="columnar")
        assert pems.queries.shared.backend == "columnar"


# ---------------------------------------------------------------------------
# Backend-aware costing
# ---------------------------------------------------------------------------


class TestColumnarCosting:
    def plan(self, env):
        return (
            scan(env, "contacts")
            .select(col("name").ne("Carla"))
            .project("name")
            .query("q")
        )

    def test_columnar_ticks_are_cheaper(self):
        env = paper_env()
        model = CostModel(env)
        plan = self.plan(env)
        row = model.tick_cost(plan, engine="shared")
        columnar = model.tick_cost(plan, engine="shared", backend="columnar")
        assert columnar.total < row.total
        assert columnar.tuples_processed == pytest.approx(
            COLUMNAR_TUPLE_FACTOR * row.tuples_processed
        )

    def test_service_cost_is_not_scaled(self):
        env = paper_env()
        model = CostModel(env)
        plan = (
            scan(env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query("q")
        )
        row = model.tick_cost(plan, engine="shared")
        columnar = model.tick_cost(plan, engine="shared", backend="columnar")
        assert columnar.invocations == row.invocations
        assert columnar.total < row.total  # only the tuple work shrank

    def test_optimizer_accepts_a_backend(self):
        env = paper_env()
        model = CostModel(env)
        optimizer = Optimizer(model, engine="shared", backend="columnar")
        outcome = optimizer.optimize(self.plan(env))
        assert outcome.cost.total <= outcome.original_cost.total
