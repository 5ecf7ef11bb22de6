"""``invoke_many`` is the loop of ``invoke``.

Two identical registries (same devices, same seeded fault scripts, same
policy, same substitution tables) are driven instant by instant: the
reference twin invokes one reference at a time, the batch twin hands the
same references to ``invoke_many``.  After every instant every
observable must agree: outcomes (rows, or exception type and message),
the health snapshot and version, every counter (the labelled
``serena_invocation_outcomes_total`` series among them) and how many
latency samples each service's EWMA saw.
"""

import functools

import pytest

from repro.city.scenario import city_policy
from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.devices.sensors import EnvironmentalSensor, TemperatureSensor
from repro.errors import (
    InvocationError,
    PrototypeNotImplementedError,
    SchemaError,
    ServiceError,
    ServiceUnavailableError,
    UnknownServiceError,
)
from repro.model.invocation_policy import InvocationPolicy
from repro.model.services import Service, ServiceRegistry
from repro.model.substitution import SubstitutionRule
from repro.obs.observe import Observability

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
#: is active) and quarantine; "ghost" is not registered and env0 does not
#: implement getTemperature.
REFERENCES = (
    "s05", "s00", "ghost", "s01", "s02", "s03", "env0", "s04", "s01", "s00", "s03",
)

POLICIES = {
    "permissive": None,
    "quarantine": InvocationPolicy(failure_threshold=2),
}


#: How each twin gets its metrics.  The ids keep the names of the modes
#: this axis once chose between; metrics now always record, so "off"
#: builds the registry on its own (it makes its own Observability),
#: "metrics" hands it a shared one, and "full" also reads the outcomes
#: back from the Prometheus exposition.
OBSERVE = {"off": False, "metrics": True, "full": True}


def build_registry(policy, observe: Observability | None = None) -> ServiceRegistry:
    registry = ServiceRegistry(policy=policy, observe=observe)
    for index, (reference, script) in enumerate(SCRIPTS.items()):
        service = TemperatureSensor(reference, "lab", base=18.0 + index).as_service()
        if script is not None:
            service = FaultInjector(service, script, seed="twin").as_service()
        registry.register(service)
    registry.register(EnvironmentalSensor("env0", "lab", base=30.0).as_service())
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule(
            "getTemperature", "env0", "getEnvReading", reference="s03"
        )
    )
    subs.declare(
        SubstitutionRule(
            "getTemperature", "s00", "getTemperature", reference="s05"
        )
    )
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
        "latency_samples": {
            reference: ewma.count for reference, ewma in registry._latency.items()
        },
        "history": list(registry.substitutions.history),
    }


def run_twins(
    policy,
    memo,
    inputs=None,
    prototype=GET_TEMPERATURE,
    references=REFERENCES,
    build=build_registry,
    shared=False,
):
    inputs = () if inputs is None else inputs

    def twin() -> ServiceRegistry:
        return build(policy, observe=Observability()) if shared else build(policy)

    one_by_one, batched = twin(), twin()
    seen = []
    for instant in range(INSTANTS):
        if instant == BIND_AT and build is build_registry:
            install_binding(one_by_one, instant)
            install_binding(batched, instant)
        if memo:
            one_by_one.begin_instant_memo(instant)
            batched.begin_instant_memo(instant)
        expected = loop_of_invoke(one_by_one, prototype, references, inputs, instant)
        outcomes = batched.invoke_many(prototype, references, inputs, instant)
        if memo:
            one_by_one.end_instant_memo()
            batched.end_instant_memo()
        assert len(outcomes) == len(references)
        assert [describe(o) for o in outcomes] == [describe(o) for o in expected]
        assert observables(batched) == observables(one_by_one)
        seen.append(outcomes)
    return seen, batched


def outcome_count(registry: ServiceRegistry, outcome: str) -> float:
    return registry.obs.metrics.value(
        "serena_invocation_outcomes_total", outcome=outcome
    )


def exposed_outcomes(registry: ServiceRegistry) -> dict:
    prefix = 'serena_invocation_outcomes_total{outcome="'
    return {
        line[len(prefix):].split('"', 1)[0]: float(line.rsplit(" ", 1)[1])
        for line in registry.obs.to_prometheus().splitlines()
        if line.startswith(prefix)
    }


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
@pytest.mark.parametrize("observe", list(OBSERVE))
@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
def test_batch_is_the_loop_of_invoke(policy, observe, memo):
    seen, batched = run_twins(POLICIES[policy], memo, shared=OBSERVE[observe])
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
        assert ServiceUnavailableError in kinds  # quarantine refused something
    if memo:
        assert batched.memo_hits > 0
        assert outcome_count(batched, "memo_hit") == batched.memo_hits
    for outcome in ("success", "failed", "substituted"):
        assert outcome_count(batched, outcome) > 0
    if observe == "full":
        exposed = exposed_outcomes(batched)
        assert {"success", "failed", "substituted"} <= {o for o, n in exposed.items() if n}
        assert exposed == {o: outcome_count(batched, o) for o in exposed}


def test_input_mismatch_is_reported_per_reference_after_the_lookup_errors():
    seen, _ = run_twins(None, memo=False, inputs=("bogus",))
    outcomes = dict(zip(REFERENCES, seen[0]))
    assert isinstance(outcomes["ghost"], UnknownServiceError)
    assert isinstance(outcomes["env0"], PrototypeNotImplementedError)
    assert type(outcomes["s00"]) is InvocationError
    assert "'s00'" in str(outcomes["s00"]) and "bogus" in str(outcomes["s00"])


def test_richer_prototype_batches_too():
    seen, _ = run_twins(None, memo=True, prototype=GET_ENV_READING)
    outcomes = dict(zip(REFERENCES, seen[0]))
    assert isinstance(outcomes["env0"], list) and len(outcomes["env0"][0]) == 2
    assert isinstance(outcomes["s00"], PrototypeNotImplementedError)


def test_invoke_is_the_batch_of_one():
    registry = build_registry(None)
    assert registry.invoke_many(GET_TEMPERATURE, [], (), 0) == []
    (rows,) = registry.invoke_many(GET_TEMPERATURE, ["s00"], (), 0)
    assert rows == registry.invoke(GET_TEMPERATURE, "s00", (), 0)
    (error,) = registry.invoke_many(GET_TEMPERATURE, ["ghost"], (), 0)
    with pytest.raises(UnknownServiceError) as raised:
        registry.invoke(GET_TEMPERATURE, "ghost", (), 0)
    assert str(raised.value) == str(error)
    # a stored outcome carries no frames
    assert error.__traceback__ is None


def test_a_handler_that_mutates_its_inputs_does_not_leak_into_the_batch():
    """Every member of the batch is handed the one input tuple itself, no
    copy: a tuple cannot be changed, only rebound in the handler."""
    received = []

    def greedy(inputs, instant):
        received.append(inputs)
        inputs += ("stolen",)
        return [(1.0,)]

    registry = ServiceRegistry(
        [Service("a", {GET_TEMPERATURE: greedy}), Service("b", {GET_TEMPERATURE: greedy})]
    )
    shared = ()
    assert registry.invoke_many(GET_TEMPERATURE, ["a", "b"], shared, 0) == [
        [(1.0,)],
        [(1.0,)],
    ]
    assert shared == () and all(inputs is shared for inputs in received)


# -- the plan's hard cases ----------------------------------------------------
#
# ``invoke_many`` runs settled references on a fast path with batched
# success bookkeeping; everything below is a batch whose plan can go stale
# within the batch (a failover invoking another member, a repeat), or
# whose every reference already carries health.  The twins must still
# agree after every instant.


def latency_samples(registry: ServiceRegistry) -> int:
    return sum(ewma.count for ewma in registry._latency.values())


def build_counting(policy, calls) -> ServiceRegistry:
    """:func:`build_registry` with s00's device calls counted per registry."""
    registry = build_registry(policy)
    handler = registry.get("s00").handler(GET_TEMPERATURE)

    def counted(inputs, instant):
        calls[registry] = calls.get(registry, 0) + 1
        return handler(inputs, instant)

    registry.register(Service("s00", {GET_TEMPERATURE: counted}))
    return registry


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
def test_repeats_in_one_batch(policy, memo):
    references = ("s00", "s00", "s02", "s00", "s02", "s04", "s04", "s01", "s01")
    calls: dict = {}
    _, batched = run_twins(
        POLICIES[policy], memo, references=references,
        build=functools.partial(build_counting, calls=calls),
    )
    assert calls[batched] == (INSTANTS if memo else 3 * INSTANTS)
    assert (batched.memo_hits > 0) == memo


def build_chain(policy) -> ServiceRegistry:
    """s10 crashes twice and fails over to s11 (intermittent), then s12
    (healthy): both are later members of the batches below."""
    registry = ServiceRegistry(policy=policy)
    scripts = {
        "s10": FaultScript(crash_windows=((2, 5), (7, 10))),
        "s11": FaultScript(failure_rate=0.5),
        "s12": None,
    }
    for index, (reference, script) in enumerate(scripts.items()):
        service = TemperatureSensor(reference, "lab", base=10.0 + index).as_service()
        if script is not None:
            service = FaultInjector(service, script, seed="chain").as_service()
        registry.register(service)
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule(
            "getTemperature", "s11", "getTemperature", reference="s10"
        )
    )
    subs.declare(
        SubstitutionRule(
            "getTemperature", "s12", "getTemperature", reference="s10"
        )
    )
    subs.failover = {
        ("getTemperature", "s10"): tuple(subs.resolve(registry, GET_TEMPERATURE, "s10"))
    }
    return registry


@pytest.mark.parametrize(
    "references",
    [("s10", "s11", "s12", "s10"), ("s12", "s10", "s11", "s12", "s10")],
    ids=["failover-ahead", "failover-behind"],
)
@pytest.mark.parametrize("policy", ["quarantine"])
def test_a_failover_invokes_another_member_of_the_batch(policy, references):
    seen, batched = run_twins(
        POLICIES[policy], memo=True, references=references, build=build_chain
    )
    by_instant = [dict(zip(references, outcomes)) for outcomes in seen]
    # s10 is down at 2-4 and 7-9, and served by its failover plans there.
    assert all(isinstance(row["s10"], list) for row in by_instant)
    assert batched._failovers_total.value >= 6
    # ... which really reached s11 and s12 before their own turn came.
    assert batched.memo_hits > 0
    kinds = {type(o) for outcomes in seen for o in outcomes}
    assert ServiceUnavailableError in kinds or InvocationError in kinds


def build_recorded_fleet(policy) -> ServiceRegistry:
    """Twelve sensors, three of them flaky early on: under an enabled
    policy every reference carries a health record after instant 0, and
    the recovered ones carry failures too."""
    registry = ServiceRegistry(policy=policy)
    for index in range(12):
        reference = f"m{index:02d}"
        service = TemperatureSensor(reference, "grid", base=5.0 + index).as_service()
        if index % 4 == 1:
            script = FaultScript(crash_windows=((1 + index % 3, 3 + index % 3),))
            service = FaultInjector(service, script, seed="fleet").as_service()
        registry.register(service)
    return registry


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
def test_a_fleet_whose_every_reference_has_a_health_record(memo):
    references = tuple(f"m{index:02d}" for index in range(12))
    _, batched = run_twins(
        city_policy(), memo, references=references, build=build_recorded_fleet
    )
    assert batched.health.known() == set(references)
    recovered = [r for r, h in batched.health.snapshot().items() if h["total_failures"]]
    assert recovered and all(
        batched.health.snapshot()[r]["state"] == "up" for r in recovered
    )
    assert not batched.health.unsettled


def test_a_mixed_batch_counts_every_device_success():
    references = REFERENCES + ("s00", "s02")
    _, batched = run_twins(POLICIES["quarantine"], memo=False, references=references)
    successes = outcome_count(batched, "success")
    assert successes and successes == latency_samples(batched)


def test_a_handler_raising_a_schema_error_failed_rather_than_returned_bad_rows():
    def broken(inputs, instant):
        raise SchemaError("device-side schema trouble")

    def garbled(inputs, instant):
        return [(1.0, 45.0)]

    registry = ServiceRegistry(
        [Service("a", {GET_TEMPERATURE: broken}), Service("b", {GET_TEMPERATURE: garbled})]
    )
    failed, invalid = registry.invoke_many(GET_TEMPERATURE, ["a", "b"], (), 0)
    assert str(failed) == (
        "invocation of 'getTemperature' on 'a' failed: device-side schema trouble"
    )
    assert type(failed.__cause__) is SchemaError
    assert "on 'b' returned an invalid output tuple (1.0, 45.0)" in str(invalid)
    assert registry.health.unsettled == {"a", "b"}


def build_second_call_fails(policy, route="failover") -> ServiceRegistry:
    """s20 answers the first call of an instant and fails the second; s21
    is dead and routed onto s20 by a failover plan or a sticky binding.
    With the memo off, that route is s20's second call of the instant."""
    registry = ServiceRegistry(policy=policy)
    calls: dict[int, int] = {}

    def moody(inputs, instant):
        calls[instant] = calls.get(instant, 0) + 1
        if calls[instant] > 1:
            raise RuntimeError("busy")
        return [(20.0,)]

    def dead(inputs, instant):
        raise RuntimeError("down")

    registry.register(Service("s20", {GET_TEMPERATURE: moody}))
    registry.register(Service("s21", {GET_TEMPERATURE: dead}))
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule(
            "getTemperature", "s20", "getTemperature", reference="s21"
        )
    )
    (plan,) = subs.resolve(registry, GET_TEMPERATURE, "s21")
    if route == "failover":
        subs.failover = {("getTemperature", "s21"): (plan,)}
    else:
        subs.install(plan, 0, "quarantine")
    return registry


@pytest.mark.parametrize("route", ["failover", "binding"])
@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
def test_success_bookkeeping_lands_before_the_next_device_call(policy, route):
    seen, batched = run_twins(
        POLICIES[policy], memo=False, references=("s20", "s21"),
        build=functools.partial(build_second_call_fails, route=route),
    )
    assert isinstance(seen[0][0], list) and isinstance(seen[0][1], InvocationError)
    assert batched.health.health("s20").total_failures > 0


def rows_then_raises(inputs, instant):
    yield (21.0,)
    raise RuntimeError("link lost")


def returns_none(inputs, instant):
    return None


@pytest.mark.parametrize("repeats", [1, 2], ids=["fast-path", "full-path"])
@pytest.mark.parametrize(
    "handler", [rows_then_raises, returns_none], ids=["generator-raises", "returns-none"]
)
def test_a_handler_failing_while_its_rows_are_read_fails_the_device(handler, repeats):
    """Reading the handler's result is part of the device call: a failure
    there is an InvocationError with health bookkeeping and failover, and
    the rest of the batch keeps its outcomes.  A reference that repeats in
    the batch takes the full path, so ``repeats=2`` reads the failing rows
    there; each repeat adds one failure and one failover."""
    registry = ServiceRegistry(
        [
            Service("a", {GET_TEMPERATURE: lambda inputs, instant: [(20.0,)]}),
            Service("broken", {GET_TEMPERATURE: handler}),
            Service("covered", {GET_TEMPERATURE: handler}),
            Service("spare", {GET_TEMPERATURE: lambda inputs, instant: [(30.0,)]}),
        ]
    )
    subs = registry.substitutions
    subs.declare(
        SubstitutionRule(
            "getTemperature", "spare", "getTemperature", reference="covered"
        )
    )
    subs.failover = {
        ("getTemperature", "covered"): tuple(
            subs.resolve(registry, GET_TEMPERATURE, "covered")
        )
    }
    references = ["a", "broken", "covered", "spare"] + ["broken", "covered"] * (
        repeats - 1
    )
    a, broken, covered, spare, *again = registry.invoke_many(
        GET_TEMPERATURE, references, (), 0
    )
    assert a == [(20.0,)] and spare == [(30.0,)]
    for outcome in [broken] + again[::2]:
        assert type(outcome) is InvocationError
        assert str(outcome).startswith(
            "invocation of 'getTemperature' on 'broken' failed: "
        )
    # served by the failover plan
    assert [covered] + again[1::2] == [[(30.0,)]] * repeats
    assert registry.health.unsettled == {"broken", "covered"}
    assert registry._failovers_total.value == repeats
    with pytest.raises(InvocationError, match="on 'broken' failed: "):
        registry.invoke(GET_TEMPERATURE, "broken", (), 1)
    assert registry.health.health("broken").total_failures == repeats + 1
