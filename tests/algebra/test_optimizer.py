"""Tests for the cost model and the optimizer."""

import pytest

from repro.algebra import (
    CostModel,
    Invocation,
    Optimizer,
    Selection,
    check_equivalence,
    col,
    optimize_heuristic,
    scan,
)


def office_temperature_query(env):
    """The canonical naive plan: invoke everything, then filter."""
    return (
        scan(env, "sensors")
        .invoke("getTemperature")
        .select(col("location").eq("office"))
        .query("office-temps")
    )


class TestCostModel:
    def test_scan_cardinality_from_environment(self, paper_env):
        model = CostModel(paper_env)
        node = scan(paper_env, "sensors").node
        assert model.cardinality(node) == 4.0

    def test_selection_halves(self, paper_env):
        model = CostModel(paper_env)
        node = scan(paper_env, "sensors").select(col("location").eq("office")).node
        assert model.cardinality(node) == 2.0

    def test_invocation_cost_dominates(self, paper_env):
        model = CostModel(paper_env)
        query = office_temperature_query(paper_env)
        cost = model.cost(query)
        assert cost.invocations > cost.tuples_processed
        assert cost.total == cost.invocations + cost.tuples_processed

    def test_service_cost_override(self, paper_env):
        expensive = CostModel(paper_env, service_costs={"getTemperature": 10_000.0})
        cheap = CostModel(paper_env, service_costs={"getTemperature": 1.0})
        query = office_temperature_query(paper_env)
        assert expensive.cost(query).total > cheap.cost(query).total

    def test_join_cardinality(self, paper_env):
        model = CostModel(paper_env)
        node = scan(paper_env, "contacts").join(scan(paper_env, "sensors")).node
        # no common real attribute → Cartesian product 3 × 4
        assert model.cardinality(node) == 12.0


class TestHeuristicOptimizer:
    def test_pushes_selection_below_invocation(self, paper_env):
        optimized = optimize_heuristic(office_temperature_query(paper_env))
        shapes = [type(n).__name__ for n in optimized.root.walk()]
        assert shapes == ["Invocation", "Selection", "Scan"]

    def test_never_touches_active_invocations(self, paper_env):
        query = (
            scan(paper_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .select(col("name").ne("Carla"))
            .query()
        )
        optimized = optimize_heuristic(query)
        shapes = [type(n).__name__ for n in optimized.root.walk()]
        # The selection stays ABOVE the active invocation.
        assert shapes.index("Selection") < shapes.index("Invocation")

    def test_preserves_equivalence(self, paper):
        env = paper.environment
        query = office_temperature_query(env)
        optimized = optimize_heuristic(query)
        assert check_equivalence(query, optimized, env).equivalent


class TestCostBasedOptimizer:
    def test_finds_cheaper_plan(self, paper_env):
        model = CostModel(paper_env)
        optimizer = Optimizer(model)
        result = optimizer.optimize(office_temperature_query(paper_env))
        assert result.cost.total < result.original_cost.total
        assert result.improvement > 1.0
        assert result.plans_explored > 1

    def test_optimum_is_pushdown_shape(self, paper_env):
        result = Optimizer(CostModel(paper_env)).optimize(
            office_temperature_query(paper_env)
        )
        root = result.query.root
        assert isinstance(root, Invocation)
        assert isinstance(root.children[0], Selection)

    def test_never_worse_than_input(self, paper_env):
        """An already-optimal plan is returned unchanged (same cost)."""
        optimal = (
            scan(paper_env, "sensors")
            .select(col("location").eq("office"))
            .invoke("getTemperature")
            .query()
        )
        result = Optimizer(CostModel(paper_env)).optimize(optimal)
        assert result.cost.total <= result.original_cost.total

    def test_equivalence_preserved(self, paper):
        env = paper.environment
        query = office_temperature_query(env)
        result = Optimizer(CostModel(env)).optimize(query)
        assert check_equivalence(query, result.query, env).equivalent

    def test_scores_with_the_one_shot_cost(self, paper_env):
        model = CostModel(paper_env)
        result = Optimizer(model).optimize(office_temperature_query(paper_env))
        assert result.cost == model.cost(result.query)
        with pytest.raises(TypeError):
            Optimizer(model, engine="shared")

    def test_plan_budget_respected(self, paper_env):
        optimizer = Optimizer(CostModel(paper_env), plan_budget=2)
        result = optimizer.optimize(office_temperature_query(paper_env))
        assert result.plans_explored <= 2
