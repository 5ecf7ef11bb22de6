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

from typing import Iterable, Iterator, Mapping

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

    def tuple_from_mapping(self, mapping: Mapping[str, object]) -> tuple:
        """Build a value tuple in schema order from a name→value mapping.

        Values are coerced into their attribute domains; missing or extra
        keys raise :class:`SchemaError`.
        """
        index = self._index
        if len(mapping) == len(index):
            try:
                values = tuple([mapping[name] for name in index])
            except (KeyError, TypeError):
                pass  # wrong keys or not a mapping: reported below
            else:
                if tuple(map(type, values)) == self._exact_types:
                    return values  # exactly the keys, nothing to coerce
        extra = set(mapping) - set(index)
        if extra:
            raise UnknownAttributeError(sorted(extra)[0])
        try:
            return tuple(
                coerce_value(mapping[a.name], a.dtype) for a in self._attributes
            )
        except KeyError as exc:
            raise SchemaError(f"missing value for attribute {exc.args[0]!r}") from None

    def mapping_from_tuple(self, values: tuple) -> dict[str, object]:
        """Inverse of :meth:`tuple_from_mapping`."""
        if len(values) != self.arity:
            raise SchemaError(
                f"tuple of length {len(values)} does not fit schema of arity {self.arity}"
            )
        return {a.name: v for a, v in zip(self._attributes, values)}

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
