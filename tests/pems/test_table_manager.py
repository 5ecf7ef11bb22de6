"""Tests for the Extended Table Manager."""

import pytest

from repro.continuous.time import VirtualClock
from repro.devices.scenario import contacts_schema, temperatures_schema
from repro.errors import EnvironmentError_
from repro.model.environment import PervasiveEnvironment
from repro.model.relation import XRelation
from repro.pems.table_manager import ExtendedTableManager


@pytest.fixture
def rig():
    clock = VirtualClock()
    env = PervasiveEnvironment()
    return clock, env, ExtendedTableManager(env, clock)


class TestLifecycle:
    def test_create_registers_in_environment(self, rig):
        clock, env, tables = rig
        relation = tables.create_relation(contacts_schema())
        assert "contacts" in env
        assert not relation.infinite

    def test_create_stream(self, rig):
        _, env, tables = rig
        relation = tables.create_relation(temperatures_schema(), infinite=True)
        assert relation.infinite

    def test_duplicate_name_rejected(self, rig):
        _, _, tables = rig
        tables.create_relation(contacts_schema())
        with pytest.raises(EnvironmentError_, match="already exists"):
            tables.create_relation(contacts_schema())

    def test_anonymous_schema_needs_name(self, rig):
        _, _, tables = rig
        with pytest.raises(EnvironmentError_, match="needs a name"):
            tables.create_relation(contacts_schema().with_name(None))
        tables.create_relation(contacts_schema().with_name(None), name="people")

    def test_drop(self, rig):
        _, env, tables = rig
        tables.create_relation(contacts_schema())
        tables.drop_relation("contacts")
        assert "contacts" not in env

    def test_relation_rejects_static(self, rig):
        _, env, tables = rig
        env.add_relation(XRelation(contacts_schema()))
        with pytest.raises(EnvironmentError_, match="not managed"):
            tables.relation("contacts")


class TestDataManagement:
    def test_insert_uses_clock_now(self, rig):
        clock, env, tables = rig
        tables.create_relation(contacts_schema())
        for _ in range(3):
            clock.tick()
        tables.insert(
            "contacts", [{"name": "A", "address": "a@b", "messenger": "email"}]
        )
        relation = tables.relation("contacts")
        assert len(relation.instantaneous(2)) == 0
        assert len(relation.instantaneous(3)) == 1

    def test_delete(self, rig):
        clock, env, tables = rig
        tables.create_relation(contacts_schema())
        row = {"name": "A", "address": "a@b", "messenger": "email"}
        tables.insert("contacts", [row])
        clock.tick()
        assert tables.delete("contacts", [row]) == 1
        assert len(tables.relation("contacts").instantaneous(1)) == 0

    def test_explicit_instant(self, rig):
        clock, env, tables = rig
        tables.create_relation(temperatures_schema(), infinite=True)
        tables.insert(
            "temperatures",
            [{"sensor": "s1", "location": "office", "temperature": 20.0, "at": 4}],
            instant=4,
        )
        assert tables.relation("temperatures").inserted_at(4)

    def test_insert_tuples(self, rig):
        _, env, tables = rig
        tables.create_relation(contacts_schema())
        assert tables.insert_tuples("contacts", [("A", "a@b", "email")]) == 1
        assert tables.delete_tuples("contacts", [("A", "a@b", "email")]) == 1
