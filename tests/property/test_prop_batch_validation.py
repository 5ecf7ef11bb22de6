"""The batch validator against the per-value reference.

``ExtendedRelationSchema.validate_tuples`` checks a batch per column;
the reference below is the row-at-a-time loop it replaced, one
``coerce_value`` call per value.  Valid batches must come back equal
*and* type-identical (an ``int`` in a REAL column becomes a ``float``, a
``str`` subclass stays what it was); invalid batches must raise the
same class of error, with the same message whenever only one thing is
wrong with the batch.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    SchemaError,
    TypingError,
    UnknownAttributeError,
    VirtualAttributeError,
)
from repro.model.attributes import Attribute
from repro.model.types import DataType, coerce_columns, coerce_value, exact_type
from repro.model.xschema import ExtendedRelationSchema


class Label(str):
    """A ``str`` subclass: valid for STRING/SERVICE, not the exact type."""


class Count(int):
    """An ``int`` subclass: valid for INTEGER/TIMESTAMP, coerced for REAL."""


names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)

#: Values of every kind a producer might hand over, right or wrong.
values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.text(max_size=3).map(Label),
    st.integers(min_value=-5, max_value=5).map(Count),
)


def valid_values(dtype: DataType):
    """Mostly-valid values for ``dtype``, exact and not."""
    return {
        DataType.STRING: st.one_of(st.text(max_size=3), st.text(max_size=3).map(Label)),
        DataType.SERVICE: st.one_of(st.text(max_size=3), st.text(max_size=3).map(Label)),
        DataType.INTEGER: st.one_of(st.integers(-5, 5), st.integers(-5, 5).map(Count)),
        DataType.TIMESTAMP: st.one_of(st.integers(0, 9), st.integers(0, 9).map(Count)),
        DataType.REAL: st.one_of(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.integers(-5, 5),
            st.integers(-5, 5).map(Count),
        ),
        DataType.BOOLEAN: st.booleans(),
        DataType.BLOB: st.binary(max_size=3),
    }[dtype]


@st.composite
def schemas(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    attr_names = draw(st.lists(names, min_size=count, max_size=count, unique=True))
    attributes = [Attribute(n, draw(st.sampled_from(list(DataType)))) for n in attr_names]
    virtual = draw(st.sets(st.sampled_from(attr_names), max_size=count - 1))
    return ExtendedRelationSchema("r", attributes, virtual)


@st.composite
def batches(draw, hostile: bool):
    """``(schema, rows)``: rows over the real schema, with anything at
    all in some cells (and wrong arities) when ``hostile``."""
    schema = draw(schemas())
    dtypes = [a.dtype for a in schema.real_attributes]

    def cell(dtype):
        if hostile:
            return st.one_of(valid_values(dtype), values)
        return valid_values(dtype)

    row = st.tuples(*(cell(dtype) for dtype in dtypes))
    if hostile:
        row = st.one_of(row, row, st.lists(values, max_size=6).map(tuple))
    return schema, draw(st.lists(row, max_size=6))


def per_value(schema, rows):
    """The reference: row by row, value by value."""
    out = []
    for row in rows:
        if len(row) != len(schema.real_attributes):
            raise SchemaError("arity")
        out.append(
            tuple(
                coerce_value(v, a.dtype)
                for a, v in zip(schema.real_attributes, row)
            )
        )
    return out


def typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


class TestBatchValidatorEqualsPerValue:
    @given(batches(hostile=False))
    @settings(max_examples=200, deadline=None)
    def test_valid_batches_coerce_identically(self, case):
        schema, rows = case
        assert typed(schema.validate_tuples(rows)) == typed(per_value(schema, rows))

    @given(batches(hostile=True))
    @settings(max_examples=300, deadline=None)
    def test_hostile_batches_agree_on_acceptance_and_error_class(self, case):
        schema, rows = case
        try:
            expected = per_value(schema, rows)
        except SchemaError as exc:
            # one of the batch's defects is reported, as the same class
            # of error: arity (SchemaError proper) or value (TypingError)
            with pytest.raises(SchemaError) as raised:
                schema.validate_tuples(rows)
            kinds = set()
            for row in rows:
                try:
                    per_value(schema, [row])
                except SchemaError as defect:
                    kinds.add(type(defect))
            assert type(raised.value) in kinds
            assert type(exc) in kinds
        else:
            assert typed(schema.validate_tuples(rows)) == typed(expected)

    @given(batches(hostile=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_single_defect_is_reported_with_the_per_value_message(self, case, data):
        """Clean batch + one hostile row: the message names that row's
        first bad value, exactly as the row loop would have."""
        schema, rows = case
        clean = []
        for row in rows:
            try:
                clean.extend(per_value(schema, [row]))
            except SchemaError:
                bad = row
                break
        else:
            return
        position = data.draw(st.integers(0, len(clean)))
        batch = clean[:position] + [bad] + clean[position:]
        with pytest.raises(SchemaError) as expected:
            schema.validate_tuple(bad)
        with pytest.raises(SchemaError) as raised:
            schema.validate_tuples(batch)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
        if len(bad) == len(schema.real_attributes):
            with pytest.raises(TypingError) as reference:
                per_value(schema, [bad])
            assert str(raised.value) == str(reference.value)

    @given(batches(hostile=False))
    @settings(max_examples=100, deadline=None)
    def test_mappings_order_then_validate(self, case):
        schema, rows = case
        real = [a.name for a in schema.real_attributes]
        for row in rows:
            mapping = dict(zip(reversed(real), reversed(row)))  # any key order
            assert schema.values_from_mapping(mapping) == tuple(row)
            assert typed([schema.tuple_from_mapping(mapping)]) == typed(
                per_value(schema, [row])
            )

    @given(schemas(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_key_defects_of_a_mapping(self, schema, data):
        real = [a.name for a in schema.real_attributes]
        row = {
            a.name: data.draw(valid_values(a.dtype)) for a in schema.real_attributes
        }
        if schema.virtual_names:
            given_virtual = dict(row)
            given_virtual[sorted(schema.virtual_names)[0]] = 1
            with pytest.raises(VirtualAttributeError):
                schema.values_from_mapping(given_virtual)
        with pytest.raises(UnknownAttributeError):
            schema.values_from_mapping({**row, "no_such_attribute_": 1})
        missing = dict(row)
        dropped = data.draw(st.sampled_from(real))
        del missing[dropped]
        with pytest.raises(SchemaError, match=f"missing value for real attribute '{dropped}'"):
            schema.values_from_mapping(missing)
        # as many keys as real attributes, but one of them is wrong
        swapped = dict(missing)
        swapped["no_such_attribute_"] = 1
        with pytest.raises(UnknownAttributeError):
            schema.values_from_mapping(swapped)


class TestExactTypes:
    @pytest.mark.parametrize("dtype", list(DataType))
    def test_exact_type_instances_pass_coerce_value_unchanged(self, dtype):
        exact = exact_type(dtype)
        sample = {str: "x", int: 3, float: 2.5, bool: True, bytes: b"x"}[exact]
        assert type(sample) is exact
        assert coerce_value(sample, dtype) is sample

    def test_bool_never_passes_for_a_number(self):
        for dtype in (DataType.INTEGER, DataType.REAL, DataType.TIMESTAMP):
            with pytest.raises(TypingError):
                coerce_columns([(1,), (True,)], [dtype])

    def test_untouched_batch_is_returned_as_is(self):
        rows = [("a", 1.0), ("b", 2.0)]
        assert coerce_columns(rows, [DataType.STRING, DataType.REAL]) is rows
        coerced = coerce_columns([("a", 1), ("b", 2.0)], [DataType.STRING, DataType.REAL])
        assert typed(coerced) == typed([("a", 1.0), ("b", 2.0)])
