"""Tests for continuous queries (Section 4.2), including the invocation
refinement: β invokes only newly inserted tuples."""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.prototypes import GET_TEMPERATURE, SEND_MESSAGE
from repro.devices.scenario import contacts_schema, sensors_schema, temperatures_schema
from repro.errors import SerenaError
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation
from repro.model.services import Service


@pytest.fixture
def dynamic_env(paper_env):
    """The paper env with contacts as a *dynamic* relation."""
    rows = paper_env.instantaneous("contacts", 0).to_mappings()
    paper_env.remove_relation("contacts")
    xd = XDRelation(contacts_schema())
    xd.insert_mappings(rows, instant=0)
    paper_env.add_relation(xd)
    return paper_env


class TestBasics:
    def test_evaluates_per_instant(self, paper_env):
        q = scan(paper_env, "sensors").invoke("getTemperature").query()
        cq = ContinuousQuery(q, paper_env)
        r1 = cq.evaluate_at(1)
        r2 = cq.evaluate_at(2)
        assert r1.instant == 1 and r2.instant == 2
        assert cq.last_result is r2

    def test_instants_must_not_go_backwards(self, paper_env):
        cq = ContinuousQuery(scan(paper_env, "contacts").query(), paper_env)
        cq.evaluate_at(5)
        with pytest.raises(SerenaError, match="non-decreasing"):
            cq.evaluate_at(4)


class TestInvocationRefinement:
    """Section 4.2: 'a binding pattern is actually invoked only for newly
    inserted tuples, and not for every tuple from the relation at each
    time instant.'"""

    def test_no_reinvocation_for_stable_tuples(self, dynamic_env):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env)
        registry = dynamic_env.registry
        before = registry.invocation_count
        cq.evaluate_at(1)
        assert registry.invocation_count - before == 3
        cq.evaluate_at(2)
        cq.evaluate_at(3)
        assert registry.invocation_count - before == 3  # cached, not re-sent

    def test_new_tuple_triggers_invocation(self, dynamic_env):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env)
        cq.evaluate_at(1)
        registry = dynamic_env.registry
        before = registry.invocation_count
        dynamic_env.relation("contacts").insert_mappings(
            [{"name": "Zoe", "address": "zoe@x.org", "messenger": "jabber"}],
            instant=2,
        )
        cq.evaluate_at(2)
        assert registry.invocation_count - before == 1  # only Zoe

    def test_deleted_tuple_disappears_from_result(self, dynamic_env):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env)
        assert len(cq.evaluate_at(1).relation) == 3
        dynamic_env.relation("contacts").delete_mappings(
            [{"name": "Carla", "address": "carla@elysee.fr", "messenger": "email"}],
            instant=2,
        )
        assert len(cq.evaluate_at(2).relation) == 2

    def test_reinserted_tuple_counts_as_new(self, dynamic_env):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env)
        cq.evaluate_at(1)
        row = {"name": "Carla", "address": "carla@elysee.fr", "messenger": "email"}
        contacts = dynamic_env.relation("contacts")
        contacts.delete_mappings([row], instant=2)
        cq.evaluate_at(2)
        contacts.insert_mappings([row], instant=3)
        registry = dynamic_env.registry
        before = registry.invocation_count
        cq.evaluate_at(3)
        assert registry.invocation_count - before == 1  # Carla re-messaged

    def test_one_shot_still_invokes_everything(self, dynamic_env):
        """One-shot evaluation uses a fresh context: pure Table 3f."""
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        registry = dynamic_env.registry
        before = registry.invocation_count
        q.evaluate(dynamic_env, 1)
        q.evaluate(dynamic_env, 1)
        assert registry.invocation_count - before == 6  # 3 per evaluation


class TestActionsAccumulation:
    def test_cumulative_actions(self, dynamic_env):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env)
        cq.evaluate_at(1)
        dynamic_env.relation("contacts").insert_mappings(
            [{"name": "Zoe", "address": "zoe@x.org", "messenger": "jabber"}],
            instant=2,
        )
        cq.evaluate_at(2)
        assert len(cq.actions) == 4
        assert len(cq.action_log) == 4


class TestSameInstantIdempotency:
    """Regression: re-evaluating the current instant must return the
    cached result and must not repeat any bookkeeping — no duplicate
    actions or emissions."""

    @pytest.mark.parametrize("engine", ["naive", "shared"])
    def test_repeat_evaluation_is_idempotent(self, dynamic_env, engine):
        q = (
            scan(dynamic_env, "contacts")
            .assign("text", "Hi")
            .invoke("sendMessage")
            .query()
        )
        cq = ContinuousQuery(q, dynamic_env, engine=engine)
        first = cq.evaluate_at(1)
        again = cq.evaluate_at(1)
        assert again is first
        assert len(cq.action_log) == 3
        # Moving on still works, and repeats there are idempotent too.
        cq.evaluate_at(2)
        cq.evaluate_at(2)
        assert len(cq.action_log) == 3  # nothing new to invoke

    def test_repeat_evaluation_of_stream_query_emits_once(self):
        env = PervasiveEnvironment()
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        q = (
            scan(env, "temperatures").window(1).stream("insertion").query("s")
        )
        cq = ContinuousQuery(q, env)
        stream.insert([("s1", "office", 30.0, 1)], instant=1)
        cq.evaluate_at(1)
        cq.evaluate_at(1)
        assert len(cq.emitted) == 1


class TestStreamQueries:
    def test_emitted_accumulates(self):
        env = PervasiveEnvironment()
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        q = (
            scan(env, "temperatures")
            .window(1)
            .select(col("temperature").gt(25.0))
            .stream("insertion")
            .query("hot")
        )
        cq = ContinuousQuery(q, env)
        for instant in range(1, 5):
            stream.insert(
                [("s1", "office", 20.0 + instant * 2, instant)], instant=instant
            )
            cq.evaluate_at(instant)
        # temperatures: 22, 24, 26, 28 → two exceed 25
        assert len(cq.emitted) == 2
        instants = [i for i, _ in cq.emitted]
        assert instants == [3, 4]
