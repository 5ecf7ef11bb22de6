"""Unit tests for the fault-tolerance policy and health state machine."""

import random

import pytest

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
        assert InvocationPolicy(backoff=1).enabled
        assert InvocationPolicy(failure_threshold=3).enabled
        assert InvocationPolicy(max_failures_per_tick=1).enabled
        # quarantine_backoff alone gates nothing (no threshold to trip).
        assert not InvocationPolicy(quarantine_backoff=4).enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            InvocationPolicy(backoff=-1)
        with pytest.raises(ValueError):
            InvocationPolicy(failure_threshold=0)
        with pytest.raises(ValueError):
            InvocationPolicy(quarantine_backoff=0)
        with pytest.raises(ValueError):
            InvocationPolicy(max_failures_per_tick=0)


class TestUnsettled:
    """``HealthTracker.unsettled`` is kept incrementally; the registry's
    fast path trusts it to name every reference a gate could refuse or
    a success could move."""

    @pytest.mark.parametrize(
        "policy",
        [
            PERMISSIVE_POLICY,
            InvocationPolicy(backoff=2, failure_threshold=2, quarantine_backoff=3),
            InvocationPolicy(failure_threshold=1, max_failures_per_tick=2),
        ],
        ids=["permissive", "backoff-quarantine", "attempt-cap"],
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

    def test_a_same_instant_attempt_cap_keeps_a_recovered_reference_unsettled(self):
        tracker = HealthTracker(InvocationPolicy(max_failures_per_tick=2))
        tracker.record_failure("s1", 4)
        tracker.record_success("s1", 4)
        assert tracker.state("s1") is HealthState.UP
        assert tracker.unsettled == {"s1"}  # one more failure at 4 caps it
        tracker.record_success("s1", 5)
        assert tracker.unsettled == set()


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
        tracker = HealthTracker(
            InvocationPolicy(failure_threshold=2, quarantine_backoff=3)
        )
        tracker.record_failure("s1", 1)
        tracker.record_failure("s1", 2)
        assert not tracker.release_due("s1", 4)
        assert tracker.release_due("s1", 5)  # 2 + 3
        tracker.release("s1")
        assert tracker.state("s1") is HealthState.SUSPECT
        assert tracker.health("s1").consecutive_failures == 0
        # Still broken: one more failure than a fresh service to re-trip?
        # No — probation keeps the threshold, it only clears the count.
        tracker.record_failure("s1", 6)
        tracker.record_failure("s1", 7)
        assert tracker.state("s1") is HealthState.QUARANTINED

    def test_failed_probe_rearms_quarantine(self):
        tracker = HealthTracker(
            InvocationPolicy(failure_threshold=1, quarantine_backoff=5)
        )
        tracker.record_failure("s1", 1)
        assert tracker.health("s1").quarantined_at == 1
        tracker.record_failure("s1", 6)  # probe after backoff fails
        assert tracker.health("s1").quarantined_at == 6

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
        tracker = HealthTracker(
            InvocationPolicy(backoff=3, failure_threshold=1, quarantine_backoff=4)
        )
        tracker.record_failure("s1", 5)
        assert tracker.check("s1", 5) is None  # same instant: no gate
        assert tracker.check("s1", 6) == ("quarantined", 9)

    def test_backoff_window(self):
        tracker = HealthTracker(InvocationPolicy(backoff=3))
        tracker.record_failure("s1", 10)
        assert tracker.check("s1", 11) == ("backoff", 13)
        assert tracker.check("s1", 12) == ("backoff", 13)
        assert tracker.check("s1", 13) is None  # first real retry

    def test_backoff_cleared_by_success(self):
        tracker = HealthTracker(InvocationPolicy(backoff=5))
        tracker.record_failure("s1", 10)
        tracker.record_success("s1", 10)  # another query got through at 10
        assert tracker.check("s1", 11) is None

    def test_fast_failures_do_not_extend_backoff(self):
        tracker = HealthTracker(InvocationPolicy(backoff=2))
        tracker.record_failure("s1", 10)
        refused = tracker.check("s1", 11)
        assert refused == ("backoff", 12)
        tracker.record_fast_failure("s1")
        # The refusal did not move last_failure: instant 12 retries.
        assert tracker.check("s1", 12) is None
        assert tracker.health("s1").fast_failures == 1

    def test_per_tick_cap(self):
        tracker = HealthTracker(InvocationPolicy(max_failures_per_tick=2))
        tracker.record_failure("s1", 7)
        assert tracker.check("s1", 7) is None
        tracker.record_failure("s1", 7)
        assert tracker.check("s1", 7) == ("attempt-cap", 8)
        # A new instant resets the budget.
        assert tracker.check("s1", 8) is None

    def test_permissive_policy_never_gates(self):
        tracker = HealthTracker()
        for instant in range(1, 10):
            tracker.record_failure("s1", instant)
            assert tracker.check("s1", instant + 1) is None
        assert tracker.state("s1") is HealthState.SUSPECT


class TestRegistryIntegration:
    def test_gate_raises_service_unavailable(self):
        registry = ServiceRegistry(
            [broken_sensor()], policy=InvocationPolicy(backoff=3)
        )
        with pytest.raises(InvocationError):
            registry.invoke(GET_TEMPERATURE, "s1", {}, 1)
        with pytest.raises(ServiceUnavailableError) as info:
            registry.invoke(GET_TEMPERATURE, "s1", {}, 2)
        assert info.value.reason == "backoff"
        assert info.value.retry_at == 4
        # The fast-fail never reached the device.
        assert registry.invocation_count == 1

    def test_unknown_service_not_recorded_as_failure(self):
        registry = ServiceRegistry(policy=InvocationPolicy(failure_threshold=1))
        with pytest.raises(UnknownServiceError):
            registry.invoke(GET_TEMPERATURE, "ghost", {}, 1)
        assert "ghost" not in registry.health.known()

    def test_success_path_records_health(self):
        registry = ServiceRegistry(
            [good_sensor()], policy=InvocationPolicy(failure_threshold=2)
        )
        registry.invoke(GET_TEMPERATURE, "s1", {}, 3)
        record = registry.health.health("s1")
        assert record.total_successes == 1
        assert record.last_success == 3

    def test_permissive_success_path_stays_allocation_free(self):
        registry = ServiceRegistry([good_sensor()])
        registry.invoke(GET_TEMPERATURE, "s1", {}, 1)
        assert registry.health.known() == frozenset()

    def test_memo_vs_failing_service(self):
        """Pinned behaviour: failures are deliberately not memoized
        ("successes only", services.py) — N queries sharing one crashed
        device re-invoke it N times within a tick.  The bound, when one
        is wanted, is the policy: max_failures_per_tick caps the device
        attempts and backoff removes the following instants entirely
        (documented in DESIGN.md §8)."""
        registry = ServiceRegistry([broken_sensor()])
        registry.begin_instant_memo(1)
        for _ in range(3):
            with pytest.raises(InvocationError):
                registry.invoke(GET_TEMPERATURE, "s1", {}, 1)
        registry.end_instant_memo()
        assert registry.invocation_count == 3  # one per attempt, no memo
        assert registry.memo_hits == 0

        capped = ServiceRegistry(
            [broken_sensor()], policy=InvocationPolicy(max_failures_per_tick=1)
        )
        capped.begin_instant_memo(1)
        with pytest.raises(InvocationError):
            capped.invoke(GET_TEMPERATURE, "s1", {}, 1)
        for _ in range(3):
            with pytest.raises(ServiceUnavailableError):
                capped.invoke(GET_TEMPERATURE, "s1", {}, 1)
        capped.end_instant_memo()
        assert capped.invocation_count == 1  # the cap bounded the device cost
        assert capped.health.health("s1").fast_failures == 3

    def test_memo_still_serves_successes(self):
        registry = ServiceRegistry(
            [good_sensor()], policy=InvocationPolicy(failure_threshold=2)
        )
        registry.begin_instant_memo(1)
        first = registry.invoke(GET_TEMPERATURE, "s1", {}, 1)
        second = registry.invoke(GET_TEMPERATURE, "s1", {}, 1)
        registry.end_instant_memo()
        assert first == second
        assert registry.invocation_count == 1
        assert registry.memo_hits == 1
