"""Tests for services and the invocation function (Definition 1)."""

import pytest

from repro.devices.prototypes import CHECK_PHOTO, GET_TEMPERATURE, SEND_MESSAGE
from repro.errors import (
    InvocationError,
    PrototypeNotImplementedError,
    SchemaError,
    UnknownServiceError,
)
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import SubstitutionRule


def ok_sender(inputs, instant):
    return [(True,)]


def thermometer(value):
    def handler(inputs, instant):
        return [(value,)]

    return handler


class TestService:
    def test_prototypes_set(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        assert service.prototypes == frozenset({SEND_MESSAGE})
        assert service.prototype_names == frozenset({"sendMessage"})

    def test_implements(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        assert service.implements(SEND_MESSAGE)
        assert not service.implements(GET_TEMPERATURE)

    def test_handler_lookup_missing(self):
        service = Service("email", {SEND_MESSAGE: ok_sender})
        with pytest.raises(PrototypeNotImplementedError):
            service.handler(GET_TEMPERATURE)

    def test_invalid_reference(self):
        with pytest.raises(SchemaError):
            Service("", {SEND_MESSAGE: ok_sender})

    def test_properties(self):
        service = Service(
            "sensor01", {GET_TEMPERATURE: thermometer(20.0)},
            properties={"location": "corridor"},
        )
        assert service.properties["location"] == "corridor"


class TestRegistry:
    def test_register_and_get(self):
        registry = ServiceRegistry()
        service = Service("email", {SEND_MESSAGE: ok_sender})
        registry.register(service)
        assert registry.get("email") is service
        assert "email" in registry
        assert len(registry) == 1

    def test_get_unknown(self):
        with pytest.raises(UnknownServiceError):
            ServiceRegistry().get("ghost")

    def test_unregister_is_idempotent(self):
        registry = ServiceRegistry()
        registry.register(Service("email", {SEND_MESSAGE: ok_sender}))
        registry.unregister("email")
        registry.unregister("email")  # no error: dynamic envs double-reap
        assert "email" not in registry

    def test_providers_sorted(self):
        registry = ServiceRegistry()
        for ref in ("sensorB", "sensorA", "sensorC"):
            registry.register(Service(ref, {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("mail", {SEND_MESSAGE: ok_sender}))
        providers = registry.providers(GET_TEMPERATURE)
        assert [s.reference for s in providers] == ["sensorA", "sensorB", "sensorC"]

    def test_replace_service(self):
        registry = ServiceRegistry()
        registry.register(Service("s", {GET_TEMPERATURE: thermometer(1.0)}))
        registry.register(Service("s", {GET_TEMPERATURE: thermometer(2.0)}))
        result = registry.invoke(GET_TEMPERATURE, "s", (), 0)
        assert result == [(2.0,)]


class TestInvocation:
    """invoke_psi(s, t) — Definition 1."""

    def test_basic_invocation(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        result = registry.invoke(SEND_MESSAGE, "email", ("a@b.c", "hi"), 0)
        assert result == [(True,)]

    def test_multi_tuple_result(self):
        """Invocation results are relations: 0, 1 or several tuples."""

        def multi(inputs, instant):
            return [(1.0,), (2.0,)]

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: multi})])
        assert sorted(registry.invoke(GET_TEMPERATURE, "s", (), 0)) == [
            (1.0,),
            (2.0,),
        ]

    def test_empty_result(self):
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: []})]
        )
        assert registry.invoke(GET_TEMPERATURE, "s", (), 0) == []

    def test_unknown_service(self):
        with pytest.raises(UnknownServiceError):
            ServiceRegistry().invoke(GET_TEMPERATURE, "ghost", (), 0)

    def test_prototype_not_implemented(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(PrototypeNotImplementedError):
            registry.invoke(GET_TEMPERATURE, "email", (), 0)

    def test_input_mismatch(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(InvocationError, match="does not fit"):
            registry.invoke(SEND_MESSAGE, "email", ("a@b.c",), 0)

    def test_extra_input_rejected(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        with pytest.raises(InvocationError):
            registry.invoke(SEND_MESSAGE, "email", ("a", "b", 1), 0)

    def test_handler_exception_wrapped(self):
        def broken(inputs, instant):
            raise RuntimeError("device on fire")

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: broken})])
        with pytest.raises(InvocationError, match="device on fire"):
            registry.invoke(GET_TEMPERATURE, "s", (), 0)

    def test_bad_output_schema_rejected(self):
        def bad(inputs, instant):
            return [{"wrong_column": 1.0}]

        registry = ServiceRegistry([Service("s", {GET_TEMPERATURE: bad})])
        with pytest.raises(InvocationError, match="invalid output tuple"):
            registry.invoke(GET_TEMPERATURE, "s", (), 0)

    def test_output_type_coerced(self):
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: [(21,)]})]
        )
        result = registry.invoke(GET_TEMPERATURE, "s", (), 0)
        assert result == [(21.0,)]
        assert isinstance(result[0][0], float)

    def test_invocation_counter(self):
        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: ok_sender})])
        assert registry.invocation_count == 0
        registry.invoke(SEND_MESSAGE, "email", ("a", "b"), 0)
        registry.invoke(SEND_MESSAGE, "email", ("a", "b"), 0)
        assert registry.invocation_count == 2


class TestTupleContract:
    """A handler takes its input tuple and returns output tuples, both in
    schema order; the registry checks each output row's types."""

    @pytest.mark.parametrize(
        "row",
        [{"temperature": 21}, (), (21.0, 1.0), (True,)],
        ids=["mapping", "short", "long", "bool-for-real"],
    )
    def test_an_invalid_row_fails_the_call_and_records_a_failure(self, row):
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: [row]})]
        )
        with pytest.raises(InvocationError, match="invalid output tuple") as info:
            registry.invoke(GET_TEMPERATURE, "s", (), 0)
        assert isinstance(info.value.__cause__, SchemaError)
        assert registry.health.health("s").total_failures == 1

    def test_a_mapping_row_is_served_by_a_failover_plan(self):
        registry = ServiceRegistry(
            [
                Service("s", {GET_TEMPERATURE: lambda i, t: [{"temperature": 21}]}),
                Service("t", {GET_TEMPERATURE: thermometer(5.0)}),
            ]
        )
        subs = registry.substitutions
        subs.declare(
            SubstitutionRule(
                "getTemperature", "t", "getTemperature", reference="s"
            )
        )
        subs.failover = {
            ("getTemperature", "s"): tuple(subs.resolve(registry, GET_TEMPERATURE, "s"))
        }
        assert registry.invoke(GET_TEMPERATURE, "s", (), 0) == [(5.0,)]
        assert registry.health.health("s").total_failures == 1

    def test_a_typed_row_is_returned_as_it_is(self):
        row = (21.5,)
        registry = ServiceRegistry(
            [Service("s", {GET_TEMPERATURE: lambda i, t: [row]})]
        )
        (returned,) = registry.invoke(GET_TEMPERATURE, "s", (), 0)
        assert returned is row

    @pytest.mark.parametrize(
        "inputs", [("a@b.c",), ("a", "b", 1), {"address": "a", "text": "b"}],
        ids=["short", "long", "mapping"],
    )
    def test_an_input_of_the_wrong_arity_never_reaches_the_device(self, inputs):
        calls = []

        def sender(inputs, instant):
            calls.append(inputs)
            return [(True,)]

        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: sender})])
        with pytest.raises(InvocationError, match="does not fit"):
            registry.invoke(SEND_MESSAGE, "email", inputs, 0)
        (outcome,) = registry.invoke_many(SEND_MESSAGE, ["email"], inputs, 0)
        assert type(outcome) is InvocationError and "does not fit" in str(outcome)
        assert calls == [] and registry.invocation_count == 0

    def test_the_handler_gets_the_input_tuple_in_schema_order(self):
        calls = []

        def sender(inputs, instant):
            calls.append(inputs)
            return [(True,)]

        registry = ServiceRegistry([Service("email", {SEND_MESSAGE: sender})])
        inputs = ("a@b.c", "hi")
        assert registry.invoke(SEND_MESSAGE, "email", inputs, 3) == [(True,)]
        assert calls == [inputs] and calls[0] is inputs


class TestProvidersIndex:
    """``providers`` is served from an index that must follow every
    membership change (``topology_version``)."""

    def registry(self):
        return ServiceRegistry(
            [
                Service("s2", {GET_TEMPERATURE: thermometer(2.0)}),
                Service("email", {SEND_MESSAGE: ok_sender}),
                Service("s1", {GET_TEMPERATURE: thermometer(1.0)}),
            ]
        )

    def references(self, registry, prototype=GET_TEMPERATURE):
        return [s.reference for s in registry.providers(prototype)]

    def test_sorted_by_reference_per_prototype(self):
        registry = self.registry()
        assert self.references(registry) == ["s1", "s2"]
        assert self.references(registry, SEND_MESSAGE) == ["email"]

    def test_unknown_prototype_has_no_providers(self):
        assert self.registry().providers(CHECK_PHOTO) == []

    def test_register_and_unregister_invalidate(self):
        registry = self.registry()
        assert self.references(registry) == ["s1", "s2"]
        registry.register(Service("s0", {GET_TEMPERATURE: thermometer(0.0)}))
        assert self.references(registry) == ["s0", "s1", "s2"]
        registry.unregister("s1")
        assert self.references(registry) == ["s0", "s2"]
        registry.unregister("s1")  # reaped twice: still consistent
        assert self.references(registry) == ["s0", "s2"]

    def test_reregistering_a_reference_with_another_service(self):
        registry = self.registry()
        assert self.references(registry) == ["s1", "s2"]
        replacement = Service("s1", {SEND_MESSAGE: ok_sender})
        registry.register(replacement)
        assert self.references(registry) == ["s2"]
        assert registry.providers(SEND_MESSAGE) == [registry.get("email"), replacement]
        # same reference, same prototype, new object: the index serves the new one
        newer = Service("s1", {SEND_MESSAGE: ok_sender})
        registry.register(newer)
        assert registry.providers(SEND_MESSAGE)[1] is newer

    def test_reannouncing_the_same_service_keeps_the_version(self):
        registry = self.registry()
        version = registry.topology_version
        registry.register(registry.get("s1"))
        assert registry.topology_version == version
        assert self.references(registry) == ["s1", "s2"]

    def test_returned_lists_are_copies(self):
        registry = self.registry()
        first = registry.providers(GET_TEMPERATURE)
        first.clear()
        assert self.references(registry) == ["s1", "s2"]
        assert registry.providers(GET_TEMPERATURE) is not registry.providers(
            GET_TEMPERATURE
        )

    def test_matches_a_scan_of_the_registry(self):
        registry = self.registry()
        for prototype in (GET_TEMPERATURE, SEND_MESSAGE):
            assert registry.providers(prototype) == sorted(
                (s for s in registry if s.implements(prototype)),
                key=lambda s: s.reference,
            )
