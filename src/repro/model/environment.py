"""Relational pervasive environments (Definitions 5 and 6).

A relational pervasive environment extends the classical notion of database:
it is a set of X-Relations (and, with the continuous extension of Section 4,
XD-Relations) together with the declared prototypes and the dynamic set of
available services.

The environment enforces the Universal Relation Schema Assumption (URSA,
Section 2.3.2): an attribute name denotes the same data — hence the same
data type — wherever it appears.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import (
    EnvironmentError_,
    UnknownPrototypeError,
    UnknownRelationError,
)
from repro.model.attributes import Attribute
from repro.model.prototypes import Prototype
from repro.model.relation import XRelation
from repro.model.services import Service, ServiceRegistry
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

if TYPE_CHECKING:  # the continuous package layers on the model
    from repro.continuous.xdrelation import XDRelation

__all__ = ["PervasiveEnvironment"]


class PervasiveEnvironment:
    """Catalog of X-Relations, prototypes and services.

    The relation store holds exactly two kinds of relation: static
    :class:`XRelation` objects and dynamic
    :class:`~repro.continuous.xdrelation.XDRelation` objects; query
    evaluation always sees the instantaneous X-Relation at the evaluation
    instant (Section 4.2).
    """

    def __init__(self, registry: ServiceRegistry | None = None):
        self._relations: dict[str, XRelation | XDRelation] = {}
        self._prototypes: dict[str, Prototype] = {}
        self._attribute_types: dict[str, DataType] = {}
        self.registry = registry if registry is not None else ServiceRegistry()

    # -- URSA bookkeeping -------------------------------------------------------

    def _check_ursa(self, attributes: Iterable[Attribute], where: str) -> None:
        for attribute in attributes:
            known = self._attribute_types.get(attribute.name)
            if known is not None and known is not attribute.dtype:
                raise EnvironmentError_(
                    f"URSA violation in {where}: attribute {attribute.name!r} "
                    f"already has type {known.value}, got {attribute.dtype.value}"
                )
        for attribute in attributes:
            self._attribute_types.setdefault(attribute.name, attribute.dtype)

    # -- prototypes ---------------------------------------------------------------

    def declare_prototype(self, prototype: Prototype) -> Prototype:
        """Declare a prototype; redeclaration must be identical."""
        existing = self._prototypes.get(prototype.name)
        if existing is not None:
            if existing != prototype:
                raise EnvironmentError_(
                    f"prototype {prototype.name!r} already declared differently"
                )
            return existing
        self._check_ursa(prototype.input_schema, f"prototype {prototype.name!r}")
        self._check_ursa(prototype.output_schema, f"prototype {prototype.name!r}")
        self._prototypes[prototype.name] = prototype
        return prototype

    def prototype(self, name: str) -> Prototype:
        try:
            return self._prototypes[name]
        except KeyError:
            raise UnknownPrototypeError(name) from None

    @property
    def prototypes(self) -> tuple[Prototype, ...]:
        return tuple(self._prototypes[n] for n in sorted(self._prototypes))

    # -- services -------------------------------------------------------------------

    def register_service(self, service: Service) -> None:
        """Register a service; its prototypes must all be declared."""
        for prototype in service.prototypes:
            if prototype.name not in self._prototypes:
                raise UnknownPrototypeError(prototype.name)
            if self._prototypes[prototype.name] != prototype:
                raise EnvironmentError_(
                    f"service {service.reference!r} implements a different "
                    f"declaration of prototype {prototype.name!r}"
                )
        self.registry.register(service)

    def unregister_service(self, reference: str) -> None:
        self.registry.unregister(reference)

    # -- relations -------------------------------------------------------------------

    def add_relation(
        self, relation: XRelation | XDRelation, name: str | None = None
    ) -> None:
        """Store an X-Relation or XD-Relation under ``name`` (defaults to
        its schema name); anything else is rejected."""
        # Imported here: the continuous package layers on the model.
        from repro.continuous.xdrelation import XDRelation

        if not isinstance(relation, (XRelation, XDRelation)):
            raise EnvironmentError_(
                f"not an X-Relation or XD-Relation: {relation!r}"
            )
        schema = relation.schema
        key = name or schema.name
        if not key:
            raise EnvironmentError_("relation needs a name to enter the environment")
        self._check_ursa(schema.attributes, f"relation {key!r}")
        for bp in schema.binding_patterns:
            if bp.prototype.name not in self._prototypes:
                self.declare_prototype(bp.prototype)
        self._relations[key] = relation

    def remove_relation(self, name: str) -> None:
        if name not in self._relations:
            raise UnknownRelationError(name)
        del self._relations[name]

    def relation(self, name: str) -> XRelation | XDRelation:
        """The stored relation object (static or dynamic)."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def schema(self, name: str) -> ExtendedRelationSchema:
        return self.relation(name).schema

    def is_stream(self, name: str) -> bool:
        """True iff ``name`` is stored as an infinite XD-Relation (a
        stream, Section 4.1), which a plan must scan as a stream."""
        stored = self.relation(name)
        return not isinstance(stored, XRelation) and stored.infinite

    def instantaneous(self, name: str, instant: int) -> XRelation:
        """The X-Relation named ``name`` as of ``instant``.

        Static X-Relations are time-invariant; dynamic relations return
        their instantaneous relation (Section 4.1).
        """
        stored = self.relation(name)
        if isinstance(stored, XRelation):
            return stored
        return stored.instantaneous(instant)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    # -- catalog rendering -------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable catalog: prototypes, services, relations."""
        lines = ["-- Prototypes --"]
        lines.extend(f"{p.signature()};" for p in self.prototypes)
        lines.append("-- Services --")
        for service in sorted(self.registry, key=lambda s: s.reference):
            impls = ", ".join(sorted(service.prototype_names))
            lines.append(f"SERVICE {service.reference} IMPLEMENTS {impls};")
        lines.append("-- Relations --")
        for name in self.relation_names:
            lines.append(self.schema(name).with_name(name).describe() + ";")
        return "\n".join(lines)
