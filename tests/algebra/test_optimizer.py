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
from repro.errors import SerenaError


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


class TestTickCostEngines:
    """The per-tick model knows exactly the engines of
    :data:`repro.exec.lowering.ENGINES`."""

    def test_shared_engine_is_priced_by_deltas(self, paper_env):
        model = CostModel(paper_env)
        plan = scan(paper_env, "contacts").select(col("name").ne("Carla")).node
        shared = model.tick_cost(plan, engine="shared")
        naive = model.tick_cost(plan, engine="naive")
        assert shared.total < naive.total
        assert naive.tuples_processed == sum(
            model.cardinality(node) for node in plan.walk()
        )
        assert model.tick_cost(plan) == shared  # the default engine

    def test_unknown_engine_is_a_typed_error(self, paper_env):
        model = CostModel(paper_env)
        plan = scan(paper_env, "contacts").node
        with pytest.raises(SerenaError, match="naive, shared"):
            model.tick_cost(plan, engine="bogus")
        with pytest.raises(SerenaError, match="naive, shared"):
            Optimizer(model, engine="bogus")
        assert Optimizer(model).engine is None  # one-shot scoring stays valid


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

    def test_plan_budget_respected(self, paper_env):
        optimizer = Optimizer(CostModel(paper_env), plan_budget=2)
        result = optimizer.optimize(office_temperature_query(paper_env))
        assert result.plans_explored <= 2


class TestSubstitutionAwareCosting:
    """ISSUE 10 satellite: invocations of prototypes with no registered
    substitute carry a risk premium, so on an otherwise-tied plan choice
    the optimizer prefers the provider a spare can absorb."""

    @staticmethod
    def _twin_provider_env():
        from repro.model.attributes import Attribute
        from repro.model.binding import BindingPattern
        from repro.model.environment import PervasiveEnvironment
        from repro.model.prototypes import Prototype
        from repro.model.relation import XRelation
        from repro.model.schema import RelationSchema
        from repro.model.types import DataType
        from repro.model.xschema import ExtendedRelationSchema

        env = PervasiveEnvironment()
        prototypes = {}
        for tag in ("a", "b"):
            prototype = Prototype(
                f"readProbe{tag.upper()}",
                RelationSchema(()),
                RelationSchema.of(temperature="REAL"),
            )
            prototypes[tag] = prototype
            env.declare_prototype(prototype)
            schema = ExtendedRelationSchema(
                f"probes_{tag}",
                [
                    Attribute("probe", DataType.SERVICE),
                    Attribute("temperature", DataType.REAL),
                ],
                virtual={"temperature"},
                binding_patterns=[BindingPattern(prototype, "probe")],
            )
            env.add_relation(
                XRelation.from_mappings(
                    schema, [{"probe": f"{tag}{i}"} for i in range(4)]
                )
            )
        return env

    @staticmethod
    def _probe_query(env, tag):
        return (
            scan(env, f"probes_{tag}")
            .invoke(f"readProbe{tag.upper()}", "probe")
            .query(f"probes-{tag}")
        )

    def test_premium_applies_only_without_substitute(self):
        from repro.algebra.cost import UNSUBSTITUTABLE_RISK_PREMIUM

        env = self._twin_provider_env()
        query = self._probe_query(env, "a")
        neutral = CostModel(env)
        aware = CostModel(env, substitutable=frozenset({"readProbeA"}))
        exposed = CostModel(env, substitutable=frozenset())
        assert aware.cost(query).invocations == neutral.cost(query).invocations
        assert exposed.cost(query).invocations == pytest.approx(
            UNSUBSTITUTABLE_RISK_PREMIUM * neutral.cost(query).invocations
        )
        # the premium carries into the steady-state tick model too
        assert (
            exposed.tick_cost(query).invocations
            > aware.tick_cost(query).invocations
        )

    def test_optimizer_breaks_tie_toward_substitutable_provider(self):
        env = self._twin_provider_env()
        risky = self._probe_query(env, "a")
        covered = self._probe_query(env, "b")
        model = CostModel(env, substitutable=frozenset({"readProbeB"}))
        choice = Optimizer(model).choose([risky, covered])
        assert choice is covered
        # without substitution knowledge the plans tie and the first wins
        blind = Optimizer(CostModel(env)).choose([risky, covered])
        assert blind is risky

    def test_choose_requires_candidates(self):
        env = self._twin_provider_env()
        with pytest.raises(ValueError):
            Optimizer(CostModel(env)).choose([])
