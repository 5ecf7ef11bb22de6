"""Tests for the substitution relation (rules, resolution, ranking)."""

import pytest

from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.errors import InvocationError
from repro.model.prototypes import Prototype
from repro.model.schema import RelationSchema
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import (
    MAX_CHAIN,
    REBIND_HISTORY_SIZE,
    SubstitutionRule,
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
    def test_specializes_needs_via(self):
        # A rule names its substitute and the prototype it serves through.
        with pytest.raises(TypeError):
            SubstitutionRule("getTemperature", "x")
        with pytest.raises(TypeError):
            SubstitutionRule("getTemperature", via="getTemperature")

    def test_constructors_and_describe(self):
        rule = SubstitutionRule(
            "getTemperature", "spare", "getEnvReading", reference="s1"
        )
        assert rule.describe() == (
            "getTemperature[s1] specializes spare/getEnvReading"
        )
        rule = SubstitutionRule("getTemperature", "b", "getTemperature")
        assert rule.describe() == "getTemperature[*] specializes b/getTemperature"

    def test_declare_is_idempotent(self):
        registry = ServiceRegistry()
        rule = SubstitutionRule("getTemperature", "b", "getTemperature")
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
        subs.declare(SubstitutionRule("getTemperature", "b", "getTemperature"))
        plans = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert len(plans) == 1
        assert (plans[0].via, plans[0].target) == (GET_TEMPERATURE, "b")
        assert plans[0].projection == (0,)

    def test_unregistered_substitute_skipped(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "ghost", "getTemperature"))
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_self_substitution_skipped(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "a", "getTemperature"))
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_specializes_projection_positions(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule("getTemperature", "spare", "getEnvReading")
        )
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert (plan.via, plan.target) == (GET_ENV_READING, "spare")
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
            SubstitutionRule("getTemperature", "spare", "poorReading")
        )
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_specializes_requires_matching_attribute_types(self):
        # Same names as getTemperature's output, another type: the spare's
        # rows would be wrongly typed getTemperature rows.
        text_reading = Prototype(
            "textReading",
            RelationSchema(()),
            RelationSchema.of(temperature="STRING"),
        )
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(
            Service("spare", {text_reading: lambda inputs, instant: [("warm",)]})
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule("getTemperature", "spare", "textReading")
        )
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_specializes_requires_the_same_activeness(self):
        # A passive getTemperature must not be served by a call with a
        # side effect its action set would not record.
        ringing = Prototype(
            "ringAndRead",
            RelationSchema(()),
            RelationSchema.of(temperature="REAL"),
            active=True,
        )
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(Service("spare", {ringing: thermometer(19.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "spare", "ringAndRead"))
        assert subs.resolve(registry, GET_TEMPERATURE, "a") == []

    def test_specific_rules_rank_before_wildcards(self):
        registry = self.make_registry()
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "b", "getTemperature"))
        subs.declare(
            SubstitutionRule(
                "getTemperature", "b", "getTemperature", reference="a"
            )
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
        subs.declare(SubstitutionRule("getTemperature", "beta", "getTemperature"))
        subs.declare(SubstitutionRule("getTemperature", "alpha", "getTemperature"))
        subs.declare(
            SubstitutionRule("getTemperature", "spare", "getEnvReading")
        )

    def test_ties_break_on_reference_order(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        plans = subs.rank(registry, subs.resolve(registry, GET_TEMPERATURE, "dead"))
        # Same health: target reference order, whatever the via.
        assert [p.target for p in plans] == ["alpha", "beta", "spare"]

    def test_failing_target_ranks_last_and_quarantined_excluded(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        # Alpha observed failing (no policy: records, never quarantines).
        health = registry.health
        for instant in range(4):
            health.record_failure("alpha", instant)
        plans = subs.rank(registry, subs.resolve(registry, GET_TEMPERATURE, "dead"))
        assert plans[0].target == "beta"
        assert plans[-1].target == "alpha"

    def test_rank_drops_unregistered_target(self):
        registry = self.make_registry()
        subs = registry.substitutions
        self.declare_all(subs)
        plans = subs.resolve(registry, GET_TEMPERATURE, "dead")
        registry.unregister("alpha")
        ranked = subs.rank(registry, plans)
        assert all(p.target != "alpha" for p in ranked)


class TestRoutingGuard:
    def test_routes_through_detects_cycle(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(2.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "b", "getTemperature"))
        (plan_ab,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        assert subs.routes_through(plan_ab, "b")
        # Install a -> b; a plan sending b's traffic to a now loops.
        subs.install(plan_ab, 1, "quarantine")
        rule_ba = SubstitutionRule("getTemperature", "a", "getTemperature")
        subs.declare(rule_ba)
        (plan_ba,) = subs.resolve(registry, GET_TEMPERATURE, "b")
        assert subs.routes_through(plan_ba, "b")


class TestEpochProtocol:
    def test_install_and_drop_bump_epoch_and_stamp(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(2.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "b", "getTemperature"))
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
            "@5 getTemperature[a] specializes b/getTemperature (quarantine)",
            "@9 getTemperature[a] released (substitute-failed)",
        ]

    def test_history_keeps_the_newest_rebinds(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("b", {GET_TEMPERATURE: thermometer(2.0)}))
        subs = registry.substitutions
        subs.declare(SubstitutionRule("getTemperature", "b", "getTemperature"))
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        for instant in range(REBIND_HISTORY_SIZE + 1):
            subs.install(plan, instant, "quarantine")
        assert subs.epoch == REBIND_HISTORY_SIZE + 1
        assert len(subs.history) == REBIND_HISTORY_SIZE
        assert [r.instant for r in subs.history] == list(
            range(1, REBIND_HISTORY_SIZE + 1)
        )


class TestBindingExecution:
    def test_bound_invocation_projects_specialized_results(self):
        registry = ServiceRegistry()
        registry.register(Service("a", {GET_TEMPERATURE: thermometer(20.0)}))
        registry.register(
            Service("spare", {GET_ENV_READING: env_station(19.5, 40.0)})
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule(
                "getTemperature", "spare", "getEnvReading", reference="a"
            )
        )
        (plan,) = subs.resolve(registry, GET_TEMPERATURE, "a")
        subs.install(plan, 1, "quarantine")
        # Invocations of a now return the spare's projected reading; the
        # original handler is never consulted.
        assert registry.invoke(GET_TEMPERATURE, "a", (), 2) == [(19.5,)]

    def test_chain_depth_guard(self):
        # r0 -> r1 -> ... -> r{MAX_CHAIN+1}: every hop a bound reference.
        refs = [f"r{i}" for i in range(MAX_CHAIN + 2)]
        registry = ServiceRegistry()
        for i, ref in enumerate(refs):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(float(i))}))
        subs = registry.substitutions
        for ref, nxt in zip(refs, refs[1:]):
            subs.declare(
                SubstitutionRule(
                    "getTemperature", nxt, "getTemperature", reference=ref
                )
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
