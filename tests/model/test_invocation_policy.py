"""Unit tests for the fault-tolerance policy and health state machine."""

import random

import pytest

from repro.devices.faults import FaultInjector, FaultScript
from repro.devices.prototypes import GET_TEMPERATURE
from repro.devices.sensors import TemperatureSensor
from repro.errors import (
    InvocationError,
    ServiceUnavailableError,
    UnknownServiceError,
)
from repro.model.invocation_policy import (
    PERMISSIVE_POLICY,
    HealthState,
    QUARANTINE_BACKOFF,
    HealthTracker,
    InvocationPolicy,
)
from repro.model.services import Service, ServiceRegistry


def broken_sensor(reference: str = "s1") -> Service:
    def handler(inputs, instant):
        raise RuntimeError("boom")

    return Service(reference, {GET_TEMPERATURE: handler})


def good_sensor(reference: str = "s1") -> Service:
    return TemperatureSensor(reference, "office").as_service()


class TestInvocationPolicy:
    def test_default_is_permissive(self):
        assert not PERMISSIVE_POLICY.enabled
        assert InvocationPolicy(failure_threshold=3).enabled
        assert not InvocationPolicy().enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationPolicy(failure_threshold=0)
        assert QUARANTINE_BACKOFF >= 1


class TestUnsettled:
    """``HealthTracker.unsettled`` is kept incrementally; the registry's
    fast path trusts it to name every reference a gate could refuse or
    a success could move."""

    @pytest.mark.parametrize(
        "policy",
        [
            PERMISSIVE_POLICY,
            InvocationPolicy(failure_threshold=2),
        ],
        ids=["permissive", "quarantine"],
    )
    def test_it_tracks_the_state_machine(self, policy):
        rng = random.Random(7)
        references = [f"s{i}" for i in range(6)]
        batched, looped = HealthTracker(policy), HealthTracker(policy)
        instant = 0
        for _ in range(600):
            instant += rng.random() < 0.3
            reference = rng.choice(references)
            operation = rng.choice(
                ["success", "failure", "failure", "release", "forget", "batch"]
            )
            for tracker in (batched, looped):
                if operation == "success" and tracker.check(reference, instant) is None:
                    tracker.record_success(reference, instant)
                elif operation == "failure" and tracker.check(reference, instant) is None:
                    tracker.record_failure(reference, instant)
                elif operation == "release" and tracker.release_due(reference, instant):
                    tracker.release(reference)
                elif operation == "forget":
                    tracker.forget(reference)
            if operation == "batch":
                settled = [r for r in references if r not in batched.unsettled]
                batched.record_success_many(settled, instant)
                for settled_reference in settled:
                    looped.record_success(settled_reference, instant)
            for tracker in (batched, looped):
                for known in references:
                    if known not in tracker.unsettled:
                        assert tracker.state(known) is HealthState.UP
                        assert tracker.check(known, instant) is None
                        assert tracker.check(known, instant + 1) is None
            assert batched.unsettled == looped.unsettled
            assert batched.snapshot() == looped.snapshot()
            assert batched.version == looped.version


class TestHealthStateMachine:
    def test_up_suspect_up(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=3))
        tracker.record_failure("s1", 1)
        assert tracker.state("s1") is HealthState.SUSPECT
        tracker.record_success("s1", 2)
        assert tracker.state("s1") is HealthState.UP
        assert tracker.health("s1").consecutive_failures == 0

    def test_threshold_quarantines(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=2))
        tracker.record_failure("s1", 1)
        assert tracker.state("s1") is HealthState.SUSPECT
        tracker.record_failure("s1", 2)
        assert tracker.state("s1") is HealthState.QUARANTINED
        assert tracker.health("s1").quarantined_at == 2
        assert tracker.quarantined() == frozenset({"s1"})

    def test_release_is_probation(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=2))
        tracker.record_failure("s1", 1)
        tracker.record_failure("s1", 2)
        released_at = 2 + QUARANTINE_BACKOFF
        assert not tracker.release_due("s1", released_at - 1)
        assert tracker.release_due("s1", released_at)
        tracker.release("s1")
        assert tracker.state("s1") is HealthState.SUSPECT
        assert tracker.health("s1").consecutive_failures == 0
        # Still broken: one more failure than a fresh service to re-trip?
        # No — probation keeps the threshold, it only clears the count.
        tracker.record_failure("s1", released_at + 1)
        tracker.record_failure("s1", released_at + 2)
        assert tracker.state("s1") is HealthState.QUARANTINED

    def test_failed_probe_rearms_quarantine(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=1))
        tracker.record_failure("s1", 1)
        assert tracker.health("s1").quarantined_at == 1
        probe = 1 + QUARANTINE_BACKOFF
        tracker.record_failure("s1", probe)  # probe after backoff fails
        assert tracker.health("s1").quarantined_at == probe

    def test_success_lifts_quarantine(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=1))
        tracker.record_failure("s1", 1)
        tracker.record_success("s1", 9)
        assert tracker.state("s1") is HealthState.UP
        assert tracker.health("s1").quarantined_at is None


class TestGates:
    def test_gates_ignore_same_instant_stamps(self):
        """Determinism at an instant (Section 3.2): a failure at τ must
        not change the outcome of other invocations at τ."""
        tracker = HealthTracker(InvocationPolicy(failure_threshold=1))
        tracker.record_failure("s1", 5)
        release = 5 + QUARANTINE_BACKOFF
        assert tracker.check("s1", 5) is None  # same instant: no gate
        assert tracker.check("s1", 6) == release  # refused until the release
        assert tracker.check("s1", release - 1) == release
        assert tracker.check("s1", release) is None

    def test_fast_failures_do_not_extend_backoff(self):
        tracker = HealthTracker(InvocationPolicy(failure_threshold=1))
        tracker.record_failure("s1", 10)
        release = 10 + QUARANTINE_BACKOFF
        assert tracker.check("s1", 11) == release
        tracker.record_fast_failure("s1")
        # The refusal did not move quarantined_at: the release instant probes.
        assert tracker.check("s1", release) is None
        assert tracker.health("s1").fast_failures == 1

    def test_permissive_policy_never_gates(self):
        tracker = HealthTracker()
        for instant in range(1, 10):
            tracker.record_failure("s1", instant)
            assert tracker.check("s1", instant + 1) is None
        assert tracker.state("s1") is HealthState.SUSPECT


class TestRegistryIntegration:
    def test_gate_raises_service_unavailable(self):
        registry = ServiceRegistry(
            [broken_sensor()],
            policy=InvocationPolicy(failure_threshold=1),
        )
        with pytest.raises(InvocationError):
            registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        with pytest.raises(ServiceUnavailableError) as info:
            registry.invoke(GET_TEMPERATURE, "s1", (), 2)
        assert info.value.reason == "quarantined"
        assert info.value.retry_at == 1 + QUARANTINE_BACKOFF
        # The fast-fail never reached the device.
        assert registry.invocation_count == 1

    def test_unknown_service_not_recorded_as_failure(self):
        registry = ServiceRegistry(policy=InvocationPolicy(failure_threshold=1))
        with pytest.raises(UnknownServiceError):
            registry.invoke(GET_TEMPERATURE, "ghost", (), 1)
        assert "ghost" not in registry.health.known()

    def test_success_path_records_health(self):
        registry = ServiceRegistry(
            [good_sensor()], policy=InvocationPolicy(failure_threshold=2)
        )
        registry.invoke(GET_TEMPERATURE, "s1", (), 3)
        record = registry.health.health("s1")
        assert record.total_successes == 1
        assert record.last_success == 3

    def test_permissive_success_path_stays_allocation_free(self):
        registry = ServiceRegistry([good_sensor()])
        registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        assert registry.health.known() == frozenset()

    def test_memo_vs_failing_service(self):
        """Pinned behaviour: failures are deliberately not memoized
        ("successes only", services.py) — N queries sharing one crashed
        device re-invoke it N times within a tick.  The bound, when one
        is wanted, is quarantine: it refuses the device from the next
        instant on (documented in DESIGN.md §8)."""
        registry = ServiceRegistry([broken_sensor()])
        registry.begin_instant_memo(1)
        for _ in range(3):
            with pytest.raises(InvocationError):
                registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        registry.end_instant_memo()
        assert registry.invocation_count == 3  # one per attempt, no memo
        assert registry.memo_hits == 0

        quarantined = ServiceRegistry(
            [broken_sensor()], policy=InvocationPolicy(failure_threshold=1)
        )
        for instant in (1, 1, 2, 2, 2):
            with pytest.raises(InvocationError):
                quarantined.invoke(GET_TEMPERATURE, "s1", (), instant)
        assert quarantined.invocation_count == 2  # both attempts at τ=1 only
        assert quarantined.health.health("s1").fast_failures == 3

    def test_memo_still_serves_successes(self):
        registry = ServiceRegistry(
            [good_sensor()], policy=InvocationPolicy(failure_threshold=2)
        )
        registry.begin_instant_memo(1)
        first = registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        second = registry.invoke(GET_TEMPERATURE, "s1", (), 1)
        registry.end_instant_memo()
        assert first == second
        assert registry.invocation_count == 1
        assert registry.memo_hits == 1


# -- Section 3.2: order never changes an outcome --------------------------------

#: A seeded fleet: crash windows, a permanent crash, intermittent,
#: malformed and timeout episodes, and two healthy devices.
FLEET = {
    "f0": None,
    "f1": FaultScript(crash_windows=((2, 5), (9, 11))),
    "f2": FaultScript(failure_rate=0.4),
    "f3": FaultScript(crash_at=6),
    "f4": FaultScript(malformed_windows=((3, 4), (7, 9))),
    "f5": FaultScript(failure_rate=0.3, intermittent_windows=((1, 8),)),
    "f6": FaultScript(latency_spike_rate=0.25),
    "f7": None,
}

#: One instant's calls as (caller, reference): three queries over the
#: fleet, so most references are invoked by more than one of them.
CALLS = tuple(
    (query, reference)
    for query, references in (
        ("q0", tuple(FLEET)),
        ("q1", ("f1", "f2", "f3", "f5")),
        ("q2", ("f1", "f3", "f4", "f6", "f7")),
    )
    for reference in references
)


def fleet_registry(policy: InvocationPolicy) -> ServiceRegistry:
    registry = ServiceRegistry(policy=policy)
    for index, (reference, script) in enumerate(FLEET.items()):
        service = TemperatureSensor(reference, "lab", base=12.0 + index).as_service()
        if script is not None:
            service = FaultInjector(service, script, seed="order").as_service()
        registry.register(service)
    return registry


def outcome(registry: ServiceRegistry, reference: str, instant: int):
    try:
        return registry.invoke(GET_TEMPERATURE, reference, (), instant)
    except InvocationError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("memo", [False, True], ids=["no-memo", "memo"])
@pytest.mark.parametrize(
    "policy",
    [PERMISSIVE_POLICY] + [InvocationPolicy(failure_threshold=k) for k in (1, 2, 3)],
    ids=["permissive", "threshold-1", "threshold-2", "threshold-3"],
)
def test_no_invocation_order_changes_an_outcome(policy, memo):
    """Every policy that can be built keeps Section 3.2: at every instant,
    issuing the calls in any order gives each caller the same outcome
    and leaves the same health behind (DESIGN.md §8)."""
    rng = random.Random(35)
    orders = 4
    registries = [fleet_registry(policy) for _ in range(orders)]
    seen_kinds = set()
    for instant in range(16):
        per_caller = []
        for registry in registries:
            calls = list(CALLS)
            rng.shuffle(calls)
            if memo:
                registry.begin_instant_memo(instant)
            outcomes = {
                call: outcome(registry, call[1], instant) for call in calls
            }
            if memo:
                registry.end_instant_memo()
            per_caller.append(outcomes)
            seen_kinds.update(
                o[0] if isinstance(o, tuple) else list for o in outcomes.values()
            )
        assert all(p == per_caller[0] for p in per_caller[1:]), instant
        snapshots = [registry.health.snapshot() for registry in registries]
        assert all(s == snapshots[0] for s in snapshots[1:]), instant
    assert {list, InvocationError} <= seen_kinds
    if policy.enabled:
        assert ServiceUnavailableError in seen_kinds  # quarantine refused some
