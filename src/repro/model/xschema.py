"""Extended relation schemas (Definition 2 of the paper).

An extended relation schema is an ordered attribute sequence partitioned
into a *real schema* and a *virtual schema*, plus a finite set of binding
patterns.  Virtual attributes exist only at the schema level: tuples are
defined over the real schema only (Definition 3), and realization operators
(Section 3.1.3) turn virtual attributes into real ones.

This module also implements the coordinate arithmetic of Definition 4
(``delta_R``): because tuples only store values for real attributes, the
value of the i-th schema attribute lives at the position equal to the
number of real attributes among the first i attributes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import (
    BindingPatternError,
    DuplicateAttributeError,
    SchemaError,
    UnknownAttributeError,
    VirtualAttributeError,
)
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.types import DataType, coerce_columns

__all__ = ["ExtendedRelationSchema"]


class ExtendedRelationSchema:
    """An extended relation schema: attributes + real/virtual partition + BPs.

    Instances are immutable; the algebra operators derive new schemas from
    existing ones (see the ``project``/``rename``/``realize``/``join``
    methods, which implement the schema rows of Table 3).

    Parameters
    ----------
    name:
        The relation symbol (``contacts``, ``cameras``, ...) or None for
        anonymous schemas produced by query operators.
    attributes:
        All attributes in schema order (real and virtual interleaved as
        declared).
    virtual:
        Names of the virtual attributes (``virtualSchema(R)``).
    binding_patterns:
        Binding patterns associated with the schema (``BP(R)``); each must
        satisfy the restrictions of Definition 2 against this schema.
    """

    __slots__ = (
        "name",
        "_attributes",
        "_index",
        "_virtual",
        "_binding_patterns",
        "_real_positions",
        "_real_attributes",
    )

    def __init__(
        self,
        name: str | None,
        attributes: Iterable[Attribute],
        virtual: Iterable[str] = (),
        binding_patterns: Iterable[BindingPattern] = (),
    ):
        attrs = tuple(attributes)
        index: dict[str, int] = {}
        for position, attribute in enumerate(attrs):
            if not isinstance(attribute, Attribute):
                raise SchemaError(f"not an Attribute: {attribute!r}")
            if attribute.name in index:
                raise DuplicateAttributeError(
                    f"duplicate attribute {attribute.name!r} in schema {name!r}"
                )
            index[attribute.name] = position
        virtual_set = frozenset(virtual)
        unknown = virtual_set - set(index)
        if unknown:
            raise UnknownAttributeError(sorted(unknown)[0], name)

        # delta_R of Definition 4: position of each real attribute inside
        # the value tuple (which stores real attributes only, in order).
        real_positions: dict[str, int] = {}
        real_attributes: list[Attribute] = []
        for attribute in attrs:
            if attribute.name not in virtual_set:
                real_positions[attribute.name] = len(real_attributes)
                real_attributes.append(attribute)

        self.name = name
        self._attributes = attrs
        self._index = index
        self._virtual = virtual_set
        self._real_positions = real_positions
        self._real_attributes = tuple(real_attributes)

        bps = tuple(binding_patterns)
        for bp in bps:
            self._check_binding_pattern(bp)
        self._binding_patterns = bps

    def _check_binding_pattern(self, bp: BindingPattern) -> None:
        """Enforce the restrictions of Definition 2."""
        if bp.service_attribute not in self._index:
            raise BindingPatternError(
                f"binding pattern {bp}: service attribute "
                f"{bp.service_attribute!r} not in schema {self.name!r}"
            )
        if bp.service_attribute in self._virtual:
            raise BindingPatternError(
                f"binding pattern {bp}: service attribute "
                f"{bp.service_attribute!r} must be a real attribute"
            )
        missing_inputs = bp.input_names - set(self._index)
        if missing_inputs:
            raise BindingPatternError(
                f"binding pattern {bp}: input attributes {sorted(missing_inputs)} "
                f"not in schema {self.name!r}"
            )
        not_virtual_outputs = bp.output_names - self._virtual
        if not_virtual_outputs:
            raise BindingPatternError(
                f"binding pattern {bp}: output attributes "
                f"{sorted(not_virtual_outputs)} must be virtual attributes "
                f"of schema {self.name!r}"
            )
        for input_name in bp.input_names:
            declared = self._attributes[self._index[input_name]].dtype
            expected = bp.prototype.input_schema.dtype(input_name)
            if declared is not expected:
                raise BindingPatternError(
                    f"binding pattern {bp}: attribute {input_name!r} has type "
                    f"{declared.value} but prototype expects {expected.value}"
                )
        for output_name in bp.output_names:
            declared = self._attributes[self._index[output_name]].dtype
            expected = bp.prototype.output_schema.dtype(output_name)
            if declared is not expected:
                raise BindingPatternError(
                    f"binding pattern {bp}: attribute {output_name!r} has type "
                    f"{declared.value} but prototype returns {expected.value}"
                )

    # -- basic accessors ------------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes in schema order."""
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        """All attribute names in schema order."""
        return tuple(a.name for a in self._attributes)

    @property
    def name_set(self) -> frozenset[str]:
        """``schema(R)`` as a set."""
        return frozenset(self._index)

    @property
    def arity(self) -> int:
        """``type(R)``."""
        return len(self._attributes)

    @property
    def real_names(self) -> frozenset[str]:
        """``realSchema(R)`` as a set."""
        return frozenset(self._real_positions)

    @property
    def virtual_names(self) -> frozenset[str]:
        """``virtualSchema(R)`` as a set."""
        return self._virtual

    @property
    def real_attributes(self) -> tuple[Attribute, ...]:
        """Real attributes in schema order (the tuple layout)."""
        return self._real_attributes

    @property
    def binding_patterns(self) -> tuple[BindingPattern, ...]:
        """``BP(R)``."""
        return self._binding_patterns

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.name) from None

    def dtype(self, name: str) -> DataType:
        return self.attribute(name).dtype

    def is_virtual(self, name: str) -> bool:
        if name not in self._index:
            raise UnknownAttributeError(name, self.name)
        return name in self._virtual

    def is_real(self, name: str) -> bool:
        return not self.is_virtual(name)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def binding_pattern(self, prototype_name: str, service_attribute: str | None = None) -> BindingPattern:
        """Look up a binding pattern by prototype name (and, if ambiguous,
        service attribute)."""
        matches = [
            bp
            for bp in self._binding_patterns
            if bp.prototype.name == prototype_name
            and (service_attribute is None or bp.service_attribute == service_attribute)
        ]
        if not matches:
            raise BindingPatternError(
                f"schema {self.name!r} has no binding pattern for prototype "
                f"{prototype_name!r}"
            )
        if len(matches) > 1:
            raise BindingPatternError(
                f"ambiguous binding pattern for prototype {prototype_name!r} "
                f"in schema {self.name!r}; specify the service attribute"
            )
        return matches[0]

    # -- tuple-level helpers (Definitions 3 and 4) ----------------------------

    def real_position(self, name: str) -> int:
        """``delta_R``: the coordinate of real attribute ``name`` in tuples."""
        if name not in self._index:
            raise UnknownAttributeError(name, self.name)
        if name in self._virtual:
            raise VirtualAttributeError(
                f"attribute {name!r} is virtual in schema {self.name!r}: "
                "tuples cannot be projected onto virtual attributes"
            )
        return self._real_positions[name]

    def project_tuple(self, values: tuple, names: Sequence[str]) -> tuple:
        """``t[X]`` for ``X ⊆ realSchema(R)`` (Definition 4)."""
        return tuple(values[self.real_position(n)] for n in names)

    def tuple_value(self, values: tuple, name: str) -> object:
        """``t[A]`` for a single real attribute ``A``."""
        return values[self.real_position(name)]

    def values_from_mapping(self, mapping: Mapping[str, object]) -> tuple:
        """Order name→value into the real-schema tuple layout, checking
        the keys only: virtual attributes must be absent (they have no
        value), unknown attributes and missing real attributes raise.
        Values are *not* coerced — hand the tuples to
        :meth:`validate_tuples` (as the XD-Relation write path does, once
        per batch) or use :meth:`tuple_from_mapping`.
        """
        real = self._real_positions
        if len(mapping) == len(real):
            try:
                return tuple([mapping[name] for name in real])
            except KeyError:
                pass  # as many keys as real attributes, but not those
        virtual_given = set(mapping) & self._virtual
        if virtual_given:
            raise VirtualAttributeError(
                f"virtual attributes {sorted(virtual_given)} cannot be given "
                f"values in tuples of schema {self.name!r}"
            )
        extra = set(mapping) - set(self._index)
        if extra:
            raise UnknownAttributeError(sorted(extra)[0], self.name)
        for name in real:
            if name not in mapping:
                raise SchemaError(
                    f"missing value for real attribute {name!r} "
                    f"of schema {self.name!r}"
                )
        return tuple([mapping[name] for name in real])

    def tuple_from_mapping(self, mapping: Mapping[str, object]) -> tuple:
        """Build a value tuple over the real schema from name→value:
        :meth:`values_from_mapping`, with the values coerced into their
        domains.
        """
        return self.validate_tuple(self.values_from_mapping(mapping))

    def mapping_from_tuple(self, values: tuple) -> dict[str, object]:
        """Name→value mapping for a value tuple (real attributes only)."""
        if len(values) != len(self._real_attributes):
            raise SchemaError(
                f"tuple of length {len(values)} does not fit the real schema "
                f"of {self.name!r} (|realSchema| = {len(self._real_attributes)})"
            )
        return {a.name: v for a, v in zip(self._real_attributes, values)}

    def validate_tuples(self, tuples: Iterable[tuple]) -> list[tuple]:
        """Check arity and types of a batch of value tuples; returns the
        coerced tuples, in order.

        The batch is checked as a whole before anything is returned, and
        per *column* (:func:`~repro.model.types.coerce_columns`): the
        common case — every value already of its attribute's exact Python
        type — costs one pass per column instead of one call per value.
        A batch with several invalid tuples reports one of them: a wrong
        arity first, then the lowest invalid column.
        """
        rows = list(map(tuple, tuples))
        dtypes = [attribute.dtype for attribute in self._real_attributes]
        width = len(dtypes)
        if set(map(len, rows)) - {width}:
            bad = next(values for values in rows if len(values) != width)
            raise SchemaError(
                f"tuple of length {len(bad)} does not fit the real schema "
                f"of {self.name!r} (|realSchema| = {width})"
            )
        return coerce_columns(rows, dtypes)

    def validate_tuple(self, values: tuple) -> tuple:
        """Check arity and types of a value tuple; returns the coerced
        tuple (:meth:`validate_tuples` on a batch of one)."""
        return self.validate_tuples((values,))[0]

    # -- binding pattern propagation ------------------------------------------

    def valid_binding_patterns(
        self, candidates: Iterable[BindingPattern]
    ) -> tuple[BindingPattern, ...]:
        """Filter ``candidates`` to those valid against this schema.

        This is the propagation step every operator of Table 3 performs:
        binding patterns whose service attribute disappeared or became
        virtual, whose inputs left the schema, or whose outputs are no
        longer virtual, are silently dropped.
        """
        kept = []
        for bp in candidates:
            try:
                self._check_binding_pattern(bp)
            except BindingPatternError:
                continue
            if bp not in kept:
                kept.append(bp)
        return tuple(kept)

    # -- schema derivations used by the algebra (Table 3) ----------------------

    def project(self, names: Sequence[str]) -> "ExtendedRelationSchema":
        """Schema of ``pi_Y(r)`` (Table 3a): keep exactly ``names``.

        The paper treats ``schema(S) = Y`` as a set; we order the result
        by the *requested* order, which is what SELECT lists and rule
        heads expect.  Binding patterns that remain valid are kept.
        """
        keep = set(names)
        unknown = keep - set(self._index)
        if unknown:
            raise UnknownAttributeError(sorted(unknown)[0], self.name)
        attrs = [self._attributes[self._index[name]] for name in names]
        schema = ExtendedRelationSchema(
            None, attrs, self._virtual & keep, ()
        )
        return schema._with_binding_patterns(self._binding_patterns)

    def rename(self, old: str, new: str) -> "ExtendedRelationSchema":
        """Schema of ``rho_{old->new}(r)`` (Table 3c)."""
        if old not in self._index:
            raise UnknownAttributeError(old, self.name)
        if new in self._index:
            raise SchemaError(
                f"cannot rename {old!r} to {new!r}: {new!r} already in schema"
            )
        attrs = [
            a.renamed(new) if a.name == old else a for a in self._attributes
        ]
        virtual = {new if n == old else n for n in self._virtual}
        schema = ExtendedRelationSchema(None, attrs, virtual, ())
        candidates = [bp.renamed(old, new) for bp in self._binding_patterns]
        return schema._with_binding_patterns(candidates)

    def realize(self, names: Iterable[str]) -> "ExtendedRelationSchema":
        """Schema after realization of virtual attributes ``names``
        (assignment, Table 3e, or invocation outputs, Table 3f)."""
        to_realize = set(names)
        for n in to_realize:
            if n not in self._index:
                raise UnknownAttributeError(n, self.name)
            if n not in self._virtual:
                raise VirtualAttributeError(
                    f"attribute {n!r} is already real in schema {self.name!r}"
                )
        schema = ExtendedRelationSchema(
            None, self._attributes, self._virtual - to_realize, ()
        )
        return schema._with_binding_patterns(self._binding_patterns)

    def join(self, other: "ExtendedRelationSchema") -> "ExtendedRelationSchema":
        """Schema of the natural join (Table 3d).

        * ``schema(S) = schema(R1) ∪ schema(R2)`` (R1's order, then R2's
          attributes not already present);
        * an attribute is real in S iff it is real in at least one operand
          (implicit realization);
        * binding patterns of both operands are propagated, dropping those
          whose outputs are no longer virtual.
        """
        attrs = list(self._attributes)
        for attribute in other._attributes:
            if attribute.name in self._index:
                mine = self._attributes[self._index[attribute.name]]
                if mine.dtype is not attribute.dtype:
                    raise SchemaError(
                        f"join attribute {attribute.name!r} has type "
                        f"{mine.dtype.value} in {self.name!r} but "
                        f"{attribute.dtype.value} in {other.name!r} (URSA violation)"
                    )
            else:
                attrs.append(attribute)
        virtual = set()
        for attribute in attrs:
            n = attribute.name
            in_self = n in self._index
            in_other = n in other._index
            virtual_here = (not in_self or n in self._virtual) and (
                not in_other or n in other._virtual
            )
            if virtual_here:
                virtual.add(n)
        schema = ExtendedRelationSchema(None, attrs, virtual, ())
        candidates = list(self._binding_patterns) + list(other._binding_patterns)
        return schema._with_binding_patterns(candidates)

    def _with_binding_patterns(
        self, candidates: Iterable[BindingPattern]
    ) -> "ExtendedRelationSchema":
        """Copy of this schema keeping only the valid candidates."""
        return ExtendedRelationSchema(
            self.name,
            self._attributes,
            self._virtual,
            self.valid_binding_patterns(candidates),
        )

    def with_name(self, name: str | None) -> "ExtendedRelationSchema":
        """Copy of this schema with another relation symbol."""
        return ExtendedRelationSchema(
            name, self._attributes, self._virtual, self._binding_patterns
        )

    # -- compatibility and equality --------------------------------------------

    def compatible(self, other: "ExtendedRelationSchema") -> bool:
        """Set-operator compatibility: same attributes/partition/BPs,
        ignoring the relation symbol."""
        return (
            self._attributes == other._attributes
            and self._virtual == other._virtual
            and set(self._binding_patterns) == set(other._binding_patterns)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedRelationSchema):
            return NotImplemented
        return self.name == other.name and self.compatible(other)

    def __hash__(self) -> int:
        return hash((self.name, self._attributes, self._virtual))

    def describe(self) -> str:
        """Render in the paper's DDL style (Table 2)."""
        lines = []
        for attribute in self._attributes:
            suffix = " VIRTUAL" if attribute.name in self._virtual else ""
            lines.append(f"  {attribute.name} {attribute.dtype.value}{suffix}")
        body = ",\n".join(lines)
        text = f"EXTENDED RELATION {self.name or '<anonymous>'} (\n{body}\n)"
        if self._binding_patterns:
            bps = ",\n".join(f"  {bp.describe()}" for bp in self._binding_patterns)
            text += f"\nUSING BINDING PATTERNS (\n{bps}\n)"
        return text

    def __repr__(self) -> str:
        names = ", ".join(
            a.name + ("*" if a.name in self._virtual else "")
            for a in self._attributes
        )
        return f"ExtendedRelationSchema({self.name!r}: {names})"
