"""``invoke_many`` is the loop of ``invoke``.

Two identical registries (same devices, same seeded fault scripts, same
policy, same substitution tables) are driven instant by instant: the
reference twin invokes one reference at a time, the batch twin hands the
same references to ``invoke_many``.  After every instant every
observable must agree: outcomes (rows, or exception type and message),
the health snapshot and version, every counter, the ``service.invoke``
trace events and how many latency samples each service's EWMA saw.
"""

import pytest

from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.devices.sensors import EnvironmentalSensor, TemperatureSensor
from repro.errors import (
    InvocationError,
    PrototypeNotImplementedError,
    ServiceError,
    ServiceUnavailableError,
    UnknownServiceError,
)
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import SubstitutionRule

INSTANTS = 12
BIND_AT = 6  # the ERM sweep's sticky binding, installed by hand on both twins

#: reference -> seeded fault script (None: healthy).
SCRIPTS = {
    "s00": None,
    "s01": FaultScript(crash_windows=((3, 6),)),
    "s02": FaultScript(failure_rate=0.5, intermittent_windows=((2, 9),)),
    "s03": FaultScript(crash_at=4),  # covered by a failover plan onto env0
    "s04": FaultScript(malformed_windows=((5, 7),)),  # schema-violating output
    "s05": FaultScript(crash_at=2),  # sticky-bound to s00 from BIND_AT
}

#: Polled in this order every instant: the repeats hit the memo (when one
#: is active) and the per-tick attempt cap; "ghost" is not registered and
#: env0 does not implement getTemperature.
REFERENCES = (
    "s05", "s00", "ghost", "s01", "s02", "s03", "env0", "s04", "s01", "s00", "s03",
)

POLICIES = {
    "permissive": None,
    "backoff-quarantine": InvocationPolicy(
        backoff=2, failure_threshold=2, quarantine_backoff=3
    ),
    "attempt-cap": InvocationPolicy(max_failures_per_tick=1),
}


def build_registry(policy, observe) -> ServiceRegistry:
    registry = ServiceRegistry(policy=policy, observe=observe)
    for index, (reference, script) in enumerate(SCRIPTS.items()):
        service = TemperatureSensor(reference, "lab", base=18.0 + index).as_service()
        if script is not None:
            service = FaultInjector(service, script, seed="twin").as_service()
        registry.register(service)
    registry.register(EnvironmentalSensor("env0", "lab", base=30.0).as_service())
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule.specializes(
            "getTemperature", "env0", "getEnvReading", reference="s03"
        )
    )
    subs.declare(SubstitutionRule.equivalent_to("getTemperature", "s00", "s05"))
    subs.failover = {
        ("getTemperature", "s03"): tuple(
            subs.resolve(registry, GET_TEMPERATURE, "s03")
        )
    }
    return registry


def install_binding(registry: ServiceRegistry, instant: int) -> None:
    (plan,) = registry.substitutions.resolve(registry, GET_TEMPERATURE, "s05")
    registry.substitutions.install(plan, instant, "quarantine")


def describe(outcome):
    if isinstance(outcome, ServiceError):
        return (type(outcome), str(outcome), type(outcome.__cause__))
    return outcome


def loop_of_invoke(registry, prototype, references, inputs, instant):
    outcomes = []
    for reference in references:
        try:
            outcomes.append(registry.invoke(prototype, reference, inputs, instant))
        except ServiceError as exc:
            outcomes.append(exc)
    return outcomes


def observables(registry: ServiceRegistry) -> dict:
    return {
        "health": registry.health.snapshot(),
        "health_version": registry.health.version,
        "invocations": registry.invocation_count,
        "memo_hits": registry.memo_hits,
        "metrics": registry.obs.metrics.snapshot(),
        "events": [
            (span.name, span.instant, span.attributes)
            for span in registry.obs.tracer.spans
        ],
        "latency_samples": {
            reference: ewma.count for reference, ewma in registry._latency.items()
        },
        "history": list(registry.substitutions.history),
    }


def run_twins(policy, observe, memo, inputs=None, prototype=GET_TEMPERATURE):
    inputs = {} if inputs is None else inputs
    one_by_one = build_registry(policy, observe)
    batched = build_registry(policy, observe)
    seen = []
    for instant in range(INSTANTS):
        if instant == BIND_AT:
            install_binding(one_by_one, instant)
            install_binding(batched, instant)
        if memo:
            one_by_one.begin_instant_memo(instant)
            batched.begin_instant_memo(instant)
        expected = loop_of_invoke(one_by_one, prototype, REFERENCES, inputs, instant)
        outcomes = batched.invoke_many(prototype, REFERENCES, inputs, instant)
        if memo:
            one_by_one.end_instant_memo()
            batched.end_instant_memo()
        assert len(outcomes) == len(REFERENCES)
        assert [describe(o) for o in outcomes] == [describe(o) for o in expected]
        assert observables(batched) == observables(one_by_one)
        seen.append(outcomes)
    return seen, batched


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
@pytest.mark.parametrize("observe", ["off", "metrics", "full"])
@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
def test_batch_is_the_loop_of_invoke(policy, observe, memo):
    seen, batched = run_twins(POLICIES[policy], observe, memo)
    by_reference = [dict(zip(REFERENCES, outcomes)) for outcomes in seen]
    kinds = {type(o) for outcomes in seen for o in outcomes}
    # The script really exercised every path the batch has to preserve.
    assert {list, UnknownServiceError, PrototypeNotImplementedError} <= kinds
    assert InvocationError in kinds  # crash windows / malformed output
    assert isinstance(by_reference[5]["s04"], InvocationError)
    assert "invalid output tuple" in str(by_reference[5]["s04"])
    # s03 crashed for good at 4 and is served by its failover plan since.
    assert all(isinstance(row["s03"], list) for row in by_reference)
    assert batched._failovers_total.value > 0
    # s05 is down from 2 and flows again through its sticky binding.
    assert isinstance(by_reference[BIND_AT - 1]["s05"], InvocationError)
    assert by_reference[BIND_AT]["s05"] == by_reference[BIND_AT]["s00"]
    if policy != "permissive":
        assert ServiceUnavailableError in kinds  # a gate refused something
    if memo:
        assert batched.memo_hits > 0
    if observe == "full":
        outcomes = {
            span.attributes["outcome"]
            for span in batched.obs.tracer.spans
            if span.name == "service.invoke"
        }
        assert {"success", "failed", "substituted"} <= outcomes


def test_input_mismatch_is_reported_per_reference_after_the_lookup_errors():
    seen, _ = run_twins(None, "metrics", memo=False, inputs={"bogus": 1})
    outcomes = dict(zip(REFERENCES, seen[0]))
    assert isinstance(outcomes["ghost"], UnknownServiceError)
    assert isinstance(outcomes["env0"], PrototypeNotImplementedError)
    assert type(outcomes["s00"]) is InvocationError
    assert "'s00'" in str(outcomes["s00"]) and "bogus" in str(outcomes["s00"])


def test_richer_prototype_batches_too():
    seen, _ = run_twins(None, "full", memo=True, prototype=GET_ENV_READING)
    outcomes = dict(zip(REFERENCES, seen[0]))
    assert isinstance(outcomes["env0"], list) and len(outcomes["env0"][0]) == 2
    assert isinstance(outcomes["s00"], PrototypeNotImplementedError)


def test_invoke_is_the_batch_of_one():
    registry = build_registry(None, "off")
    assert registry.invoke_many(GET_TEMPERATURE, [], {}, 0) == []
    (rows,) = registry.invoke_many(GET_TEMPERATURE, ["s00"], {}, 0)
    assert rows == registry.invoke(GET_TEMPERATURE, "s00", {}, 0)
    (error,) = registry.invoke_many(GET_TEMPERATURE, ["ghost"], {}, 0)
    with pytest.raises(UnknownServiceError) as raised:
        registry.invoke(GET_TEMPERATURE, "ghost", {}, 0)
    assert str(raised.value) == str(error)
    # a stored outcome carries no frames
    assert error.__traceback__ is None


def test_a_handler_that_mutates_its_inputs_does_not_leak_into_the_batch():
    def greedy(inputs, instant):
        inputs["temperature"] = "stolen"
        return [{"temperature": 1.0}]

    registry = ServiceRegistry(
        [Service("a", {GET_TEMPERATURE: greedy}), Service("b", {GET_TEMPERATURE: greedy})]
    )
    shared: dict = {}
    assert registry.invoke_many(GET_TEMPERATURE, ["a", "b"], shared, 0) == [
        [(1.0,)],
        [(1.0,)],
    ]
    assert shared == {}
