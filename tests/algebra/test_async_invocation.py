"""Tests for asynchronous invocations (Section 5.1: "service invocations
are handled asynchronously by the invocation operator")."""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import contacts_schema
from repro.errors import InvalidOperatorError


@pytest.fixture
def dynamic_env(paper_env):
    rows = paper_env.instantaneous("contacts", 0).to_mappings()
    paper_env.remove_relation("contacts")
    xd = XDRelation(contacts_schema())
    xd.insert_mappings(rows, instant=0)
    paper_env.add_relation(xd)
    return paper_env


def delayed_send(env, delay):
    return (
        scan(env, "contacts")
        .assign("text", "Hi")
        .invoke("sendMessage", delay=delay)
        .query()
    )


class TestConstruction:
    def test_negative_delay_rejected(self, paper_env):
        with pytest.raises(InvalidOperatorError, match="non-negative"):
            scan(paper_env, "contacts").assign("text", "x").invoke(
                "sendMessage", delay=-1
            )

    def test_delay_part_of_identity(self, paper_env):
        sync = scan(paper_env, "sensors").invoke("getTemperature").node
        slow = scan(paper_env, "sensors").invoke("getTemperature", delay=2).node
        assert sync != slow

    def test_sal_round_trip_with_delay(self, paper_env):
        from repro.lang import parse_query, to_sal

        q = scan(paper_env, "sensors").invoke("getTemperature", delay=3).query()
        assert "invoke[getTemperature, sensor, 3]" in to_sal(q)
        assert parse_query(to_sal(q), paper_env).root == q.root


class TestOneShotIsSynchronous:
    def test_delay_ignored_in_one_shot(self, paper):
        """One-shot evaluation occurs at one instant (Section 3.2): the
        delay cannot apply."""
        env = paper.environment
        result = delayed_send(env, delay=5).evaluate(env)
        assert len(result.relation) == 3
        assert len(paper.outbox) == 3


class TestContinuousAsynchrony:
    def test_results_arrive_after_delay(self, dynamic_env):
        query = delayed_send(dynamic_env, delay=2)
        cq = ContinuousQuery(query, dynamic_env)
        assert len(cq.evaluate_at(1).relation) == 0  # requests in flight
        assert len(cq.evaluate_at(2).relation) == 0
        assert len(cq.evaluate_at(3).relation) == 3  # responses landed

    def test_actions_happen_at_completion_instant(self, dynamic_env):
        query = delayed_send(dynamic_env, delay=2)
        cq = ContinuousQuery(query, dynamic_env)
        cq.evaluate_at(1)
        assert len(cq.actions) == 0
        cq.evaluate_at(2)
        assert len(cq.actions) == 0
        cq.evaluate_at(3)
        assert len(cq.actions) == 3

    def test_new_tuple_gets_its_own_deadline(self, dynamic_env):
        query = delayed_send(dynamic_env, delay=2)
        cq = ContinuousQuery(query, dynamic_env)
        for instant in range(1, 4):
            cq.evaluate_at(instant)
        dynamic_env.relation("contacts").insert_mappings(
            [{"name": "Zoe", "address": "zoe@x.org", "messenger": "jabber"}],
            instant=4,
        )
        assert len(cq.evaluate_at(4).relation) == 3  # Zoe still in flight
        assert len(cq.evaluate_at(5).relation) == 3
        assert len(cq.evaluate_at(6).relation) == 4

    def test_tuple_deleted_while_in_flight_never_invoked(self, dynamic_env):
        registry = dynamic_env.registry
        query = delayed_send(dynamic_env, delay=3)
        cq = ContinuousQuery(query, dynamic_env)
        cq.evaluate_at(1)
        row = {"name": "Carla", "address": "carla@elysee.fr", "messenger": "email"}
        dynamic_env.relation("contacts").delete_mappings([row], instant=2)
        registry.reset_invocation_count()
        for instant in range(2, 6):
            cq.evaluate_at(instant)
        # Only the two remaining contacts were ever invoked.
        assert registry.invocation_count == 2
        assert len(cq.actions) == 2

    def test_delay_zero_is_synchronous(self, dynamic_env):
        query = delayed_send(dynamic_env, delay=0)
        cq = ContinuousQuery(query, dynamic_env)
        assert len(cq.evaluate_at(1).relation) == 3

    def test_results_cached_after_arrival(self, dynamic_env):
        registry = dynamic_env.registry
        query = delayed_send(dynamic_env, delay=1)
        cq = ContinuousQuery(query, dynamic_env)
        cq.evaluate_at(1)
        registry.reset_invocation_count()
        cq.evaluate_at(2)  # responses arrive: 3 invocations
        cq.evaluate_at(3)  # cached
        cq.evaluate_at(4)
        assert registry.invocation_count == 3


class TestAsynchronousSkip:
    """``on_error='skip'`` with ``delay > 0``: a failed due invocation is
    rescheduled with the *full* delay, not retried every instant."""

    RECOVERY_INSTANT = 9

    def flaky_gateway(self, env):
        """A sendMessage service that fails until :attr:`RECOVERY_INSTANT`,
        recording the instant of every attempt."""
        from repro.devices.prototypes import SEND_MESSAGE
        from repro.model.services import Service

        attempts = []

        def send_message(inputs, instant):
            attempts.append(instant)
            if instant < self.RECOVERY_INSTANT:
                raise RuntimeError("gateway down")
            return [{"sent": True}]

        env.register_service(
            Service("flaky", {SEND_MESSAGE: send_message}, description="flaky")
        )
        return attempts

    def query(self, env):
        return (
            scan(env, "contacts")
            .select(col("name").eq("Zoe"))
            .assign("text", "Hi")
            .invoke("sendMessage", on_error="skip", delay=2)
            .query()
        )

    @pytest.mark.parametrize("engine", ["naive", "shared"])
    def test_retry_waits_the_full_delay(self, dynamic_env, engine):
        attempts = self.flaky_gateway(dynamic_env)
        dynamic_env.relation("contacts").insert_mappings(
            [{"name": "Zoe", "address": "zoe@x.org", "messenger": "flaky"}],
            instant=0,
        )
        cq = ContinuousQuery(self.query(dynamic_env), dynamic_env, engine=engine)
        sizes = [len(cq.evaluate_at(instant).relation) for instant in range(1, 12)]
        # First attempt when the delay elapses (instant 3); each failure
        # reschedules with the full delay from the *next* instant: 3 → 6 → 9.
        assert attempts == [3, 6, 9]
        # The tuple only materializes once an attempt succeeds...
        assert sizes == [0] * 8 + [1, 1, 1]
        # ...and exactly one action is recorded, at the success instant.
        assert len(cq.action_log) == 1
        assert cq.actions and all(
            a.binding_pattern.prototype.name == "sendMessage" for a in cq.actions
        )
