"""Exception hierarchy for the Serena reproduction.

Every error raised by this library derives from :class:`SerenaError`, so a
caller can catch a single exception type at an API boundary.  The hierarchy
mirrors the layers of the system:

* schema/model construction errors (:class:`SchemaError` and subclasses),
* query construction and typing errors (:class:`QueryError` and subclasses),
* runtime errors of the pervasive environment (:class:`EnvironmentError_`,
  :class:`ServiceError` and subclasses),
* language-layer errors (:class:`ParseError`).
"""

from __future__ import annotations

__all__ = [
    "SerenaError",
    "SchemaError",
    "DuplicateAttributeError",
    "UnknownAttributeError",
    "VirtualAttributeError",
    "BindingPatternError",
    "TypingError",
    "QueryError",
    "InvalidOperatorError",
    "FormulaError",
    "EnvironmentError_",
    "UnknownRelationError",
    "UnknownPrototypeError",
    "ServiceError",
    "UnknownServiceError",
    "PrototypeNotImplementedError",
    "InvocationError",
    "ServiceUnavailableError",
    "ParseError",
    "RewriteError",
]


class SerenaError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Model / schema layer
# ---------------------------------------------------------------------------


class SchemaError(SerenaError):
    """A relation schema or extended relation schema is ill-formed."""


class DuplicateAttributeError(SchemaError):
    """The same attribute name appears twice in one schema."""


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that the schema does not contain."""

    def __init__(self, attribute: str, schema_name: str | None = None):
        where = f" in schema {schema_name!r}" if schema_name else ""
        super().__init__(f"unknown attribute {attribute!r}{where}")
        self.attribute = attribute
        self.schema_name = schema_name


class VirtualAttributeError(SchemaError):
    """A virtual attribute was used where only real attributes are allowed.

    Virtual attributes have no value at the tuple level (Definition 3 of the
    paper), so they cannot be projected from tuples, compared in selection
    formulas, or used as binding-pattern inputs before realization.
    """


class BindingPatternError(SchemaError):
    """A binding pattern violates the restrictions of Definition 2."""


class TypingError(SchemaError):
    """A value does not belong to the domain of its attribute's data type."""


# ---------------------------------------------------------------------------
# Algebra / query layer
# ---------------------------------------------------------------------------


class QueryError(SerenaError):
    """A query expression is ill-formed."""


class InvalidOperatorError(QueryError):
    """An operator was applied to operands it does not accept.

    Examples: set operators over incompatible schemas, invocation of a
    binding pattern whose input attributes are not all real yet (Table 3f).
    """


class FormulaError(QueryError):
    """A selection formula is ill-formed or references virtual attributes."""


class RewriteError(QueryError):
    """A rewriting rule was applied where its side conditions do not hold."""


# ---------------------------------------------------------------------------
# Environment / runtime layer
# ---------------------------------------------------------------------------


class EnvironmentError_(SerenaError):
    """A relational pervasive environment is inconsistent or incomplete.

    Named with a trailing underscore to avoid shadowing the (deprecated)
    builtin ``EnvironmentError`` alias of :class:`OSError`.
    """


class UnknownRelationError(EnvironmentError_):
    """A query referenced an X-Relation that the environment does not hold."""

    def __init__(self, name: str):
        super().__init__(f"unknown relation {name!r}")
        self.name = name


class UnknownPrototypeError(EnvironmentError_):
    """A prototype name was referenced that is not declared."""

    def __init__(self, name: str):
        super().__init__(f"unknown prototype {name!r}")
        self.name = name


class ServiceError(SerenaError):
    """Base class for errors related to services and invocations."""


class UnknownServiceError(ServiceError):
    """An invocation targeted a service reference that is not registered."""

    def __init__(self, reference: object):
        super().__init__(f"unknown service reference {reference!r}")
        self.reference = reference


class PrototypeNotImplementedError(ServiceError):
    """The targeted service does not implement the requested prototype."""

    def __init__(self, reference: object, prototype: str):
        super().__init__(
            f"service {reference!r} does not implement prototype {prototype!r}"
        )
        self.reference = reference
        self.prototype = prototype


class InvocationError(ServiceError):
    """A service method raised or returned data outside its output schema."""


class ServiceUnavailableError(InvocationError):
    """An invocation was refused by the fault-tolerance policy without
    reaching the device: the service is quarantined.

    ``reason`` is always ``"quarantined"``; ``retry_at`` is the first
    instant at which the registry will attempt the device again.
    """

    reason = "quarantined"

    def __init__(self, reference: object, retry_at: int):
        super().__init__(
            f"service {reference!r} unavailable: {self.reason} "
            f"(retry at instant {retry_at})"
        )
        self.reference = reference
        self.retry_at = retry_at


# ---------------------------------------------------------------------------
# Language layer
# ---------------------------------------------------------------------------


class ParseError(SerenaError):
    """A Serena DDL or Serena Algebra Language text could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column
