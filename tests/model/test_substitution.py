"""Tests for the substitution relation (rules, resolution, ranking)."""

import pytest

from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.errors import InvocationError, SchemaError
from repro.model.prototypes import Prototype
from repro.model.schema import RelationSchema
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import MAX_CHAIN, CompositionStep, SubstitutionRule

# A two-step composition fixture: resolve an area to a sensor reference,
# then read that sensor — together they implement readArea.
READ_AREA = Prototype(
    "readArea",
    RelationSchema.of(area="STRING"),
    RelationSchema.of(temperature="REAL"),
)
LOOKUP = Prototype(
    "lookupSensor",
    RelationSchema.of(area="STRING"),
    RelationSchema.of(sensor="STRING"),
)
READ_BY_NAME = Prototype(
    "readByName",
    RelationSchema.of(sensor="STRING"),
    RelationSchema.of(temperature="REAL"),
)


def thermometer(value):
    def handler(inputs, instant):
        return [(value,)]

    return handler


def env_station(temperature, humidity):
    def handler(inputs, instant):
        return [(temperature, humidity)]

    return handler


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            SubstitutionRule("better_than", "getTemperature", substitute="x")

    def test_equivalent_needs_substitute(self):
        with pytest.raises(SchemaError):
            SubstitutionRule("equivalent_to", "getTemperature")

    def test_specializes_needs_via(self):
        with pytest.raises(SchemaError):
            SubstitutionRule("specializes", "getTemperature", substitute="x")

    def test_composed_needs_steps(self):
        with pytest.raises(SchemaError):
            SubstitutionRule("composed_of", "getTemperature")

    def test_composed_rejects_substitute(self):
        with pytest.raises(SchemaError):
            SubstitutionRule(
                "composed_of",
                "getTemperature",
                substitute="x",
                steps=(CompositionStep("a", "b"),),
            )

    def test_constructors_and_describe(self):
        rule = SubstitutionRule.specializes(
            "getTemperature", "spare", "getEnvReading", reference="s1"
        )
        assert rule.describe() == (
            "getTemperature[s1] specializes spare/getEnvReading"
        )
        rule = SubstitutionRule.composed_of(
            "readArea", [("lookupSensor", "dir"), ("readByName", "hub")]
        )
        assert "lookupSensor@dir -> readByName@hub" in rule.describe()

    def test_declare_is_idempotent(self):
        registry = ServiceRegistry()
        rule = SubstitutionRule.equivalent_to("getTemperature", "b")
        registry.substitutions.declare(rule)
        registry.substitutions.declare(rule)
        assert registry.substitutions.rules == (rule,)


class TestResolution:
    def make_registry(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(21.0)}))
        registry.register(
            Service("spare", {GET_ENV_READING: env_station(19.0, 40.0)})
        )
        return registry

    def test_equivalent_resolves_to_same_prototype(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "b"))
        plans = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert len(plans) == 1
        assert plans[0].targets == ((GET_TEMPERATURE, "b"),)
        assert plans[0].projection is None

    def test_unregistered_substitute_skipped(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "ghost"))
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_self_substitution_skipped(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "a"))
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_specializes_projection_positions(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule.specializes(
                "getTemperature", "spare", "getEnvReading"
            )
        )
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert plan.targets == ((GET_ENV_READING, "spare"),)
        # getEnvReading outputs (temperature, humidity): position 0.
        assert plan.projection == (0,)

    def test_specializes_requires_output_superset(self):
        registry = ServiceRegistry()
        poor = Prototype(
            "poorReading", RelationSchema(()), RelationSchema.of(humidity="REAL")
        )
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(
            Service(
                "spare", {poor: lambda inputs, instant: [(1.0,)]}
            )
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule.specializes("getTemperature", "spare", "poorReading")
        )
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_composed_threading_and_coverage(self):
        registry = ServiceRegistry()
        registry.register(
            Service(
                "dir",
                {LOOKUP: lambda inputs, instant: [("s9",)]},
            )
        )
        registry.register(
            Service(
                "hub",
                {READ_BY_NAME: lambda inputs, instant: [(7.0,)]},
            )
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule.composed_of(
                "readArea", [("lookupSensor", "dir"), ("readByName", "hub")]
            )
        )
        (plan,) = subs.resolve(registry, READ_AREA, "dead")
        assert [ref for _, ref in plan.targets] == ["dir", "hub"]
        # Reversing the steps breaks attribute threading (readByName needs
        # ``sensor``, which only lookupSensor provides).
        subs2 = ServiceRegistry().substitutions
        subs2.declare(
            SubstitutionRule.composed_of(
                "readArea", [("readByName", "hub"), ("lookupSensor", "dir")]
            )
        )
        assert subs2.resolve(registry, READ_AREA, "dead") == []

    def test_specific_rules_rank_before_wildcards(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "b"))
        subs.declare(
            SubstitutionRule.equivalent_to("getTemperature", "b", reference="a")
        )
        rules = subs.rules_for("getTemperature", "a")
        assert rules[0].reference == "a"
        assert rules[1].reference is None


class TestRanking:
    def make_registry(self):
        registry = ServiceRegistry()
        for ref in ("alpha", "beta"):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(
            Service("spare", {GET_ENV_READING: env_station(19.0, 40.0)})
        )
        return registry

    def declare_all(self, subs):
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "beta"))
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "alpha"))
        subs.declare(
            SubstitutionRule.specializes(
                "getTemperature", "spare", "getEnvReading"
            )
        )

    def test_ties_break_on_reference_order(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        plans = subs.rank(registry, subs.resolve(registry, GET_TEMPERATURE, "dead"))
        # Same health, same kind: alphabetical reference order.
        assert [p.target_references for p in plans[:2]] == [
            ("alpha",),
            ("beta",),
        ]
        # specializes ranks after equivalent_to at equal health.
        assert plans[2].rule.kind == "specializes"

    def test_failing_target_ranks_last_and_quarantined_excluded(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        # Alpha observed failing (no policy: records, never quarantines).
        health = registry.health
        for instant in range(4):
            health.record_failure("alpha", instant)
        plans = subs.rank(registry, subs.resolve(registry, GET_TEMPERATURE, "dead"))
        assert plans[0].target_references == ("beta",)
        assert plans[-1].target_references != ("beta",)

    def test_rank_drops_unregistered_target(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        plans = subs.resolve(registry, GET_TEMPERATURE, "dead")
        registry.unregister("alpha")
        ranked = subs.rank(registry, plans)
        assert all(p.target_references != ("alpha",) for p in ranked)


class TestRoutingGuard:
    def test_routes_through_detects_cycle(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(2.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "b"))
        (plan_ab,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert subs.routes_through(plan_ab, "b")
        # Install a -> b; a plan sending b's traffic to a now loops.
        subs.install(plan_ab, 1, "quarantine")
        rule_ba = SubstitutionRule.equivalent_to("getTemperature", "a")
        subs.declare(rule_ba)
        (plan_ba,) = subs.resolve(registry, GET_TEMPERATURE, "b")
        assert subs.routes_through(plan_ba, "b")


class TestEpochProtocol:
    def test_install_and_drop_bump_epoch_and_stamp(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(2.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule.equivalent_to("getTemperature", "b"))
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert subs.epoch == 0
        record = subs.install(plan, 5, "quarantine")
        assert subs.epoch == 1 and record.epoch == 1
        assert subs.rebound_since("getTemperature", 0) == {"a"}
        assert subs.rebound_since("getTemperature", 1) == frozenset()
        dropped = subs.drop("getTemperature", "a", 9, "substitute-failed")
        assert dropped is not None and subs.epoch == 2
        assert subs.rebound_since("getTemperature", 1) == {"a"}
        assert subs.drop("getTemperature", "a", 9, "again") is None
        assert [r.describe() for r in subs.history] == [
            "@5 getTemperature[a] equivalent_to b (quarantine)",
            "@9 getTemperature[a] released (substitute-failed)",
        ]


class TestBindingExecution:
    def test_bound_invocation_projects_specialized_results(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(
            Service("spare", {GET_ENV_READING: env_station(19.5, 40.0)})
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule.specializes(
                "getTemperature", "spare", "getEnvReading", reference="a"
            )
        )
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        subs.install(plan, 1, "quarantine")
        # Invocations of a now return the spare's projected reading; the
        # original handler is never consulted.
        assert registry.invoke(GET_TEMPERATURE, "a", (), 2) == [(19.5,)]

    def test_composed_binding_threads_inputs(self):
        registry = ServiceRegistry()
        registry.register(
            Service("area-reader", {READ_AREA: lambda i, t: [(0.0,)]})
        )
        registry.register(
            Service(
                "dir",
                {LOOKUP: lambda inputs, instant: [(inputs[0],)]},
            )
        )
        registry.register(
            Service(
                "hub",
                {
                    READ_BY_NAME: lambda inputs, instant: [(float(len(inputs[0])),)]
                },
            )
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule.composed_of(
                "readArea",
                [("lookupSensor", "dir"), ("readByName", "hub")],
                reference="area-reader",
            )
        )
        (plan,) = subs.resolve(registry, READ_AREA, "area-reader")
        subs.install(plan, 1, "quarantine")
        assert registry.invoke(READ_AREA, "area-reader", ("roof",), 2) == [
            (4.0,)
        ]

    def test_chain_depth_guard(self):
        # r0 -> r1 -> ... -> r{MAX_CHAIN+1}: every hop a bound reference.
        refs = [f"r{i}" for i in range(MAX_CHAIN + 2)]
        registry = ServiceRegistry()
        for i, ref in enumerate(refs):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(float(i))}))
        subs = registry.substitutions
        for ref, nxt in zip(refs, refs[1:]):
            subs.declare(
                SubstitutionRule.equivalent_to("getTemperature", nxt, reference=ref)
            )
            (plan,) = subs.resolve(registry, GET_TEMPERATURE, ref)
            subs.install(plan, 1, "quarantine")
        # A chain of MAX_CHAIN bindings is served by its last hop ...
        assert registry.invoke(GET_TEMPERATURE, "r1", (), 2) == [
            (float(MAX_CHAIN + 1),)
        ]
        # ... and one binding more is refused.
        with pytest.raises(InvocationError, match="MAX_CHAIN"):
            registry.invoke(GET_TEMPERATURE, "r0", (), 2)
