"""Plain relation schemas (Section 2.3.1 of the paper).

A relation schema is an ordered sequence of attributes: the paper models it
as a relation symbol ``R`` with an injective function ``attr_R`` from
``{1..type(R)}`` to attribute names.  We keep the ordering explicit (it
matters for tuple coordinates, Definition 4) and expose both positional and
name-based access.

Plain relation schemas are used for prototype input/output schemas; the
extended relation schemas of Definition 2 live in
:mod:`repro.model.xschema`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import DuplicateAttributeError, SchemaError, UnknownAttributeError
from repro.model.attributes import Attribute
from repro.model.types import DataType, coerce_value, exact_type

__all__ = ["RelationSchema"]


class RelationSchema:
    """An ordered, duplicate-free sequence of typed attributes.

    Instances are immutable and hashable; equality is structural (same
    attributes, same order).
    """

    __slots__ = ("_attributes", "_index", "_hash", "_exact_types")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        index: dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if not isinstance(attribute, Attribute):
                raise SchemaError(f"not an Attribute: {attribute!r}")
            if attribute.name in index:
                raise DuplicateAttributeError(
                    f"duplicate attribute {attribute.name!r} in schema"
                )
            index[attribute.name] = position
        object.__setattr__(self, "_attributes", attrs)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_hash", hash(attrs))
        object.__setattr__(
            self, "_exact_types", tuple(exact_type(a.dtype) for a in attrs)
        )

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, **attrs: DataType | str) -> "RelationSchema":
        """Build a schema from keyword arguments.

        >>> RelationSchema.of(address="STRING", text="STRING")
        """
        attributes = []
        for name, dtype in attrs.items():
            if isinstance(dtype, str):
                dtype = DataType.from_name(dtype)
            attributes.append(Attribute(name, dtype))
        return cls(attributes)

    # -- attribute access ----------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes in schema order."""
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in schema order (``schema(R)`` as a sequence)."""
        return tuple(a.name for a in self._attributes)

    @property
    def name_set(self) -> frozenset[str]:
        """``schema(R)`` as a set of attribute names."""
        return frozenset(self._index)

    @property
    def arity(self) -> int:
        """``type(R)``: the number of attributes."""
        return len(self._attributes)

    def attribute(self, name: str) -> Attribute:
        """Return the attribute named ``name`` or raise UnknownAttributeError."""
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(name) from None

    def position(self, name: str) -> int:
        """0-based position of ``name`` in the schema order."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def dtype(self, name: str) -> DataType:
        """The data type of attribute ``name``."""
        return self.attribute(name).dtype

    # -- tuple helpers -------------------------------------------------------

    def validate_tuple(self, row: object) -> tuple:
        """Check that ``row`` is a value tuple over this schema (values in
        schema order) and return it with its values coerced into their
        attribute domains.

        A plain tuple whose values already have their attributes' exact
        Python types is returned as it is; anything else must be a tuple
        of the schema's arity and goes value by value through
        :func:`~repro.model.types.coerce_value`.  Raises
        :class:`SchemaError` (:class:`TypingError` for a value).
        """
        if type(row) is tuple and tuple(map(type, row)) == self._exact_types:
            return row
        if not isinstance(row, tuple):
            raise SchemaError(f"expected a value tuple, got {type(row).__name__}")
        if len(row) != len(self._attributes):
            raise SchemaError(
                f"tuple of length {len(row)} does not fit schema of arity "
                f"{len(self._attributes)}"
            )
        return tuple(
            coerce_value(value, a.dtype) for value, a in zip(row, self._attributes)
        )

    # -- structural equality -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self._attributes)
        return f"RelationSchema({inner})"
