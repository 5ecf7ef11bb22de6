"""Prototypes: declarations of distributed functionalities (Section 2.1).

A prototype decouples *what* a functionality does (its declaration: input
and output relation schemas, and whether it is active) from *how* it is
implemented (methods provided by services, see :mod:`repro.model.services`).

Formal constraints from Section 2.3.1:

* ``schema(Input_psi)`` and ``schema(Output_psi)`` are disjoint,
* ``schema(Output_psi)`` is non-empty,
* ``active(psi)`` tags prototypes whose invocation has a side effect on the
  physical environment that cannot be neglected (e.g. sending an SMS).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.model.schema import RelationSchema

__all__ = ["Prototype"]


@dataclass(frozen=True)
class Prototype:
    """The declaration of a distributed functionality.

    Parameters
    ----------
    name:
        Prototype name, e.g. ``sendMessage``; unique within an environment.
    input_schema:
        Relation schema of the input parameters (may be empty, like for
        ``getTemperature``).
    output_schema:
        Relation schema of the invocation result; must be non-empty.
    active:
        True iff invocations have a non-negligible side effect on the
        physical environment (Section 2.1).  Active prototypes constrain
        query rewriting (Section 3.3) and define action sets (Definition 8).
    """

    name: str
    input_schema: RelationSchema
    output_schema: RelationSchema
    active: bool = False
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid prototype name {self.name!r}")
        if self.output_schema.arity == 0:
            raise SchemaError(
                f"prototype {self.name!r}: output schema must be non-empty"
            )
        overlap = self.input_schema.name_set & self.output_schema.name_set
        if overlap:
            raise SchemaError(
                f"prototype {self.name!r}: input and output schemas overlap "
                f"on {sorted(overlap)}"
            )
        # A prototype keys every service's handler table, looked up once
        # per invocation: hash it once, like RelationSchema.
        object.__setattr__(
            self,
            "_hash",
            hash((self.name, self.input_schema, self.output_schema, self.active)),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def input_names(self) -> frozenset[str]:
        """``schema(Input_psi)`` as a set of attribute names."""
        return self.input_schema.name_set

    @property
    def output_names(self) -> frozenset[str]:
        """``schema(Output_psi)`` as a set of attribute names."""
        return self.output_schema.name_set

    @property
    def is_passive(self) -> bool:
        """Convenience negation of :attr:`active`."""
        return not self.active

    def signature(self) -> str:
        """Render the prototype in the paper's pseudo-DDL style.

        >>> proto.signature()
        'PROTOTYPE sendMessage( address STRING, text STRING ) : ( sent BOOLEAN ) ACTIVE'
        """
        inputs = ", ".join(str(a) for a in self.input_schema)
        outputs = ", ".join(str(a) for a in self.output_schema)
        suffix = " ACTIVE" if self.active else ""
        return f"PROTOTYPE {self.name}( {inputs} ) : ( {outputs} ){suffix}"

    def __str__(self) -> str:
        return self.signature()
