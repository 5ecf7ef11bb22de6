"""Tests for relational pervasive environments (catalog + URSA)."""

import pytest

from repro.devices.prototypes import GET_TEMPERATURE, SEND_MESSAGE
from repro.devices.scenario import contacts_schema, temperatures_schema
from repro.continuous.xdrelation import XDRelation
from repro.errors import (
    EnvironmentError_,
    UnknownPrototypeError,
    UnknownRelationError,
)
from repro.model.attributes import Attribute
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.model.relation import XRelation
from repro.model.schema import RelationSchema
from repro.model.services import Service
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema


class TestPrototypes:
    def test_declare_and_lookup(self):
        env = PervasiveEnvironment()
        env.declare_prototype(SEND_MESSAGE)
        assert env.prototype("sendMessage") is SEND_MESSAGE

    def test_redeclare_identical_ok(self):
        env = PervasiveEnvironment()
        env.declare_prototype(SEND_MESSAGE)
        env.declare_prototype(SEND_MESSAGE)
        assert len(env.prototypes) == 1

    def test_redeclare_different_rejected(self):
        env = PervasiveEnvironment()
        env.declare_prototype(SEND_MESSAGE)
        other = Prototype(
            "sendMessage",
            RelationSchema.of(address="STRING", text="STRING"),
            RelationSchema.of(sent="BOOLEAN"),
            active=False,  # active flag differs
        )
        with pytest.raises(EnvironmentError_, match="declared differently"):
            env.declare_prototype(other)

    def test_unknown_prototype(self):
        with pytest.raises(UnknownPrototypeError):
            PervasiveEnvironment().prototype("ghost")


class TestServices:
    def test_register_requires_declared_prototypes(self):
        env = PervasiveEnvironment()
        service = Service("email", {SEND_MESSAGE: lambda i, t: [(True,)]})
        with pytest.raises(UnknownPrototypeError):
            env.register_service(service)
        env.declare_prototype(SEND_MESSAGE)
        env.register_service(service)
        assert "email" in env.registry

    def test_unregister(self):
        env = PervasiveEnvironment()
        env.declare_prototype(SEND_MESSAGE)
        env.register_service(
            Service("email", {SEND_MESSAGE: lambda i, t: [(True,)]})
        )
        env.unregister_service("email")
        assert "email" not in env.registry


class TestRelations:
    def test_add_and_get(self):
        env = PervasiveEnvironment()
        rel = XRelation(contacts_schema())
        env.add_relation(rel)
        assert env.relation("contacts") is rel
        assert "contacts" in env
        assert env.relation_names == ("contacts",)

    def test_add_declares_binding_pattern_prototypes(self):
        env = PervasiveEnvironment()
        env.add_relation(XRelation(contacts_schema()))
        assert env.prototype("sendMessage") == SEND_MESSAGE

    def test_anonymous_needs_explicit_name(self):
        env = PervasiveEnvironment()
        schema = contacts_schema().with_name(None)
        with pytest.raises(EnvironmentError_, match="needs a name"):
            env.add_relation(XRelation(schema))
        env.add_relation(XRelation(schema), name="people")
        assert "people" in env

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            PervasiveEnvironment().relation("ghost")

    def test_remove(self):
        env = PervasiveEnvironment()
        env.add_relation(XRelation(contacts_schema()))
        env.remove_relation("contacts")
        assert "contacts" not in env
        with pytest.raises(UnknownRelationError):
            env.remove_relation("contacts")

    def test_not_a_relation_rejected(self):
        with pytest.raises(EnvironmentError_):
            PervasiveEnvironment().add_relation(object(), name="x")

    def test_relation_lookalike_rejected(self):
        """The store holds XRelation or XDRelation and nothing else: an
        object with a schema and ``instantaneous`` is still refused."""

        class Lookalike:
            schema = contacts_schema()

            def instantaneous(self, instant):
                return XRelation(contacts_schema())

        env = PervasiveEnvironment()
        with pytest.raises(EnvironmentError_, match="not an X-Relation"):
            env.add_relation(Lookalike())
        assert "contacts" not in env

    def test_only_an_infinite_xd_relation_is_a_stream(self):
        env = PervasiveEnvironment()
        env.add_relation(XRelation(contacts_schema()))
        env.add_relation(XDRelation(contacts_schema()), name="people")
        env.add_relation(XDRelation(temperatures_schema(), infinite=True))
        assert not env.is_stream("contacts")
        assert not env.is_stream("people")
        assert env.is_stream("temperatures")
        with pytest.raises(UnknownRelationError):
            env.is_stream("ghost")


class TestInstantaneous:
    def test_static_relation_is_time_invariant(self):
        env = PervasiveEnvironment()
        rel = XRelation.from_mappings(
            contacts_schema(),
            [{"name": "A", "address": "a@b", "messenger": "email"}],
        )
        env.add_relation(rel)
        assert env.instantaneous("contacts", 0) == rel
        assert env.instantaneous("contacts", 99) == rel

    def test_dynamic_relation_resolves_per_instant(self):
        env = PervasiveEnvironment()
        xd = XDRelation(temperatures_schema(), infinite=True)
        env.add_relation(xd)
        xd.insert([("s1", "office", 20.0, 1)], instant=1)
        xd.insert([("s1", "office", 21.0, 2)], instant=2)
        assert len(env.instantaneous("temperatures", 1)) == 1
        assert len(env.instantaneous("temperatures", 2)) == 2


class TestURSA:
    def test_conflicting_types_across_relations(self):
        env = PervasiveEnvironment()
        env.add_relation(
            XRelation(
                ExtendedRelationSchema("r1", [Attribute("x", DataType.REAL)])
            )
        )
        with pytest.raises(EnvironmentError_, match="URSA"):
            env.add_relation(
                XRelation(
                    ExtendedRelationSchema("r2", [Attribute("x", DataType.STRING)])
                )
            )

    def test_conflict_with_prototype_schema(self):
        env = PervasiveEnvironment()
        env.declare_prototype(GET_TEMPERATURE)  # temperature REAL
        with pytest.raises(EnvironmentError_, match="URSA"):
            env.add_relation(
                XRelation(
                    ExtendedRelationSchema(
                        "r", [Attribute("temperature", DataType.STRING)]
                    )
                )
            )

    def test_describe_lists_everything(self, paper):
        text = paper.environment.describe()
        assert "PROTOTYPE sendMessage" in text
        assert "SERVICE camera01 IMPLEMENTS checkPhoto, takePhoto;" in text
        assert "EXTENDED RELATION contacts" in text
