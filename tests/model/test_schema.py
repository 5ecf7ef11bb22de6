"""Tests for plain relation schemas and attributes (Section 2.3.1)."""

import pytest

from repro.errors import (
    DuplicateAttributeError,
    SchemaError,
    UnknownAttributeError,
)
from repro.model.attributes import Attribute
from repro.model.schema import RelationSchema
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema


class TestAttribute:
    def test_construction(self):
        attr = Attribute("temperature", DataType.REAL)
        assert attr.name == "temperature"
        assert attr.dtype is DataType.REAL

    def test_invalid_name(self):
        with pytest.raises(SchemaError):
            Attribute("2bad", DataType.STRING)

    def test_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("", DataType.STRING)

    def test_name_with_space(self):
        with pytest.raises(SchemaError):
            Attribute("a b", DataType.STRING)

    def test_service_reference_flag(self):
        assert Attribute("messenger", DataType.SERVICE).is_service_reference
        assert not Attribute("name", DataType.STRING).is_service_reference

    def test_renamed_preserves_type(self):
        attr = Attribute("a", DataType.INTEGER).renamed("b")
        assert attr.name == "b"
        assert attr.dtype is DataType.INTEGER

    def test_str(self):
        assert str(Attribute("sent", DataType.BOOLEAN)) == "sent BOOLEAN"

    def test_equality_and_hash(self):
        assert Attribute("a", DataType.REAL) == Attribute("a", DataType.REAL)
        assert hash(Attribute("a", DataType.REAL)) == hash(Attribute("a", DataType.REAL))
        assert Attribute("a", DataType.REAL) != Attribute("a", DataType.INTEGER)


class TestRelationSchema:
    def test_of_builder(self):
        schema = RelationSchema.of(address="STRING", text="STRING")
        assert schema.names == ("address", "text")
        assert schema.arity == 2

    def test_order_preserved(self):
        schema = RelationSchema.of(z="INTEGER", a="REAL", m="STRING")
        assert schema.names == ("z", "a", "m")

    def test_duplicate_attribute(self):
        with pytest.raises(DuplicateAttributeError):
            RelationSchema(
                [Attribute("a", DataType.REAL), Attribute("a", DataType.REAL)]
            )

    def test_empty_schema_allowed(self):
        """getTemperature has an empty input schema."""
        schema = RelationSchema(())
        assert schema.arity == 0
        assert schema.names == ()

    def test_position_and_attribute(self):
        schema = RelationSchema.of(a="STRING", b="REAL")
        assert schema.position("b") == 1
        assert schema.attribute("a").dtype is DataType.STRING

    def test_unknown_attribute(self):
        schema = RelationSchema.of(a="STRING")
        with pytest.raises(UnknownAttributeError):
            schema.position("nope")
        with pytest.raises(UnknownAttributeError):
            schema.attribute("nope")

    def test_contains_and_iter(self):
        schema = RelationSchema.of(a="STRING", b="REAL")
        assert "a" in schema
        assert "c" not in schema
        assert [x.name for x in schema] == ["a", "b"]
        assert len(schema) == 2

    # The name→value helpers live on the extended schema, where DDL,
    # INSERT and discovery catalog rows build tuples from mappings; a
    # plain schema (a prototype's input or output) only checks tuples.

    def test_tuple_from_mapping_roundtrip(self):
        schema = ExtendedRelationSchema(
            "r", RelationSchema.of(quality="INTEGER", delay="REAL")
        )
        values = schema.tuple_from_mapping({"quality": 5, "delay": 2})
        assert values == (5, 2.0)
        assert isinstance(values[1], float)  # coerced to REAL
        assert schema.mapping_from_tuple(values) == {"quality": 5, "delay": 2.0}

    def test_tuple_from_mapping_missing(self):
        schema = ExtendedRelationSchema(
            "r", RelationSchema.of(quality="INTEGER", delay="REAL")
        )
        with pytest.raises(SchemaError, match="missing value"):
            schema.tuple_from_mapping({"quality": 5})

    def test_tuple_from_mapping_extra(self):
        schema = ExtendedRelationSchema("r", RelationSchema.of(quality="INTEGER"))
        with pytest.raises(UnknownAttributeError):
            schema.tuple_from_mapping({"quality": 5, "bogus": 1})

    def test_mapping_from_tuple_wrong_arity(self):
        schema = ExtendedRelationSchema("r", RelationSchema.of(quality="INTEGER"))
        with pytest.raises(SchemaError, match="does not fit"):
            schema.mapping_from_tuple((1, 2))

    def test_validate_tuple_coerces_into_domains(self):
        schema = RelationSchema.of(quality="INTEGER", delay="REAL")
        values = schema.validate_tuple((5, 2))
        assert values == (5, 2.0)
        assert isinstance(values[1], float)  # coerced to REAL
        typed = (5, 2.0)
        assert schema.validate_tuple(typed) is typed  # nothing to coerce

    @pytest.mark.parametrize("row", [(5,), (5, 2.0, 1)], ids=["short", "long"])
    def test_validate_tuple_wrong_arity(self, row):
        schema = RelationSchema.of(quality="INTEGER", delay="REAL")
        with pytest.raises(SchemaError, match="does not fit"):
            schema.validate_tuple(row)

    def test_validate_tuple_rejects_a_mapping(self):
        schema = RelationSchema.of(quality="INTEGER")
        with pytest.raises(SchemaError, match="expected a value tuple"):
            schema.validate_tuple({"quality": 5})

    def test_structural_equality(self):
        a = RelationSchema.of(x="STRING", y="REAL")
        b = RelationSchema.of(x="STRING", y="REAL")
        c = RelationSchema.of(y="REAL", x="STRING")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c  # order matters

    def test_name_set(self):
        schema = RelationSchema.of(x="STRING", y="REAL")
        assert schema.name_set == frozenset({"x", "y"})
