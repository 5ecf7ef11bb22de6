"""Edge-case tests for the continuous machinery."""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.scenario import contacts_schema, temperatures_schema
from repro.model.environment import PervasiveEnvironment


class TestRepeatedInstants:
    def test_same_instant_twice_is_allowed_and_stable(self, paper_env):
        cq = ContinuousQuery(
            scan(paper_env, "sensors").invoke("getTemperature").query(),
            paper_env,
        )
        r1 = cq.evaluate_at(3)
        r2 = cq.evaluate_at(3)
        assert r1.relation == r2.relation

    def test_same_instant_reevaluation_uses_memo(self, paper_env):
        registry = paper_env.registry
        cq = ContinuousQuery(
            scan(paper_env, "sensors").invoke("getTemperature").query(),
            paper_env,
        )
        cq.evaluate_at(3)
        before = registry.invocation_count
        cq.evaluate_at(3)
        assert registry.invocation_count - before == 0


class TestEmptyWindows:
    def test_window_on_silent_stream(self):
        env = PervasiveEnvironment()
        env.add_relation(XDRelation(temperatures_schema(), infinite=True))
        q = scan(env, "temperatures").window(5).query()
        assert len(q.evaluate(env, 100).relation) == 0

    def test_window_past_all_activity(self):
        env = PervasiveEnvironment()
        stream = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(stream)
        stream.insert([("s", "office", 20.0, 1)], instant=1)
        q = scan(env, "temperatures").window(2).query()
        assert len(q.evaluate(env, 1).relation) == 1
        assert len(q.evaluate(env, 50).relation) == 0


class TestDynamicSchemaJournal:
    def test_instant_zero_initialization(self):
        xd = XDRelation(contacts_schema(), initial=[("A", "a@x", "email")])
        assert len(xd.instantaneous(0)) == 1
        assert xd.last_instant == 0

    def test_interleaved_insert_delete_same_tuple_across_instants(self):
        xd = XDRelation(contacts_schema())
        t = ("A", "a@x", "email")
        xd.insert([t], 1)
        xd.delete([t], 2)
        xd.insert([t], 3)
        assert len(xd.instantaneous(1)) == 1
        assert len(xd.instantaneous(2)) == 0
        assert len(xd.instantaneous(3)) == 1
        assert xd.inserted_at(3) == {t}


class TestContinuousOverChangingServices:
    def test_service_replacement_changes_readings(self, paper_env):
        """Replacing a service (same reference) takes effect next tick —
        the registry holds one service per reference."""
        from repro.devices.prototypes import GET_TEMPERATURE
        from repro.model.services import Service

        q = (
            scan(paper_env, "sensors")
            .invoke("getTemperature")
            .select(col("sensor").eq("sensor01"))
            .query()
        )
        cq = ContinuousQuery(q, paper_env)
        first = cq.evaluate_at(1).relation.column("temperature")
        paper_env.registry.register(
            Service(
                "sensor01",
                {GET_TEMPERATURE: lambda i, t: [(99.0,)]},
            )
        )
        # The β cache still holds sensor01's old reading (its input tuple
        # did not change) — the Section 4.2 semantics: no new insertion,
        # no new invocation.
        second = cq.evaluate_at(2).relation.column("temperature")
        assert second == first
        # A one-shot evaluation (fresh context) sees the new service.
        fresh = q.evaluate(paper_env, 2).relation.column("temperature")
        assert fresh == [99.0]
