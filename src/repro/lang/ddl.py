"""The Serena Data Description Language (Tables 1 and 2).

Supported statements, mirroring the paper's pseudo-DDL::

    PROTOTYPE sendMessage( address STRING, text STRING )
        : ( sent BOOLEAN ) ACTIVE;

    SERVICE email IMPLEMENTS sendMessage;

    EXTENDED RELATION contacts (
        name STRING,
        address STRING,
        text STRING VIRTUAL,
        messenger SERVICE,
        sent BOOLEAN VIRTUAL
    ) USING BINDING PATTERNS (
        sendMessage[messenger] ( address, text ) : ( sent )
    );

    EXTENDED STREAM temperatures (            -- our extension: an infinite
        sensor SERVICE, ...                   -- XD-Relation (Section 4.1)
    );

    INSERT INTO contacts VALUES               -- data statements (extension):
        ('Nicolas', 'nicolas@elysee.fr', 'email'),
        ('Carla', 'carla@elysee.fr', 'email');
    DELETE FROM contacts VALUES ('Carla', 'carla@elysee.fr', 'email');

``PROTOTYPE`` declares a prototype in the environment; ``EXTENDED
RELATION``/``EXTENDED STREAM`` create XD-Relations through the table
manager; ``INSERT INTO``/``DELETE FROM`` write value tuples (real
attributes only, in schema order) at the current instant; ``SERVICE``
statements are *declarations* — the DDL cannot carry an implementation, so
:func:`execute_ddl` checks the referenced prototypes and returns a
:class:`ServiceDeclaration` that the caller binds to handlers (or to a
simulated device's :meth:`as_service`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.prototypes import Prototype
from repro.model.schema import RelationSchema
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema
from repro.lang.lexer import TokenStream, tokenize

__all__ = ["ServiceDeclaration", "parse_ddl", "execute_ddl"]


@dataclass(frozen=True)
class ServiceDeclaration:
    """A ``SERVICE ref IMPLEMENTS p1, p2`` statement, awaiting binding."""

    reference: str
    prototype_names: tuple[str, ...]


# Statements produced by the parser before execution.


@dataclass(frozen=True)
class _PrototypeStmt:
    prototype: Prototype


@dataclass(frozen=True)
class _RelationStmt:
    schema: ExtendedRelationSchema
    infinite: bool
    # binding patterns are resolved at execution time (prototypes may be
    # declared earlier in the same script)
    patterns: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...]], ...]


@dataclass(frozen=True)
class _ServiceStmt:
    declaration: ServiceDeclaration


@dataclass(frozen=True)
class _DataStmt:
    relation_name: str
    rows: tuple[tuple, ...]
    delete: bool


def parse_ddl(text: str) -> list[object]:
    """Parse a DDL script into statement objects (no side effects)."""
    stream = TokenStream(tokenize(text))
    statements: list[object] = []
    while not stream.at_end():
        if stream.current.is_keyword("PROTOTYPE"):
            statements.append(_parse_prototype(stream))
        elif stream.current.is_keyword("SERVICE"):
            statements.append(_parse_service(stream))
        elif stream.current.is_keyword("EXTENDED"):
            statements.append(_parse_relation(stream))
        elif stream.current.is_keyword("INSERT"):
            statements.append(_parse_data(stream, delete=False))
        elif stream.current.is_keyword("DELETE"):
            statements.append(_parse_data(stream, delete=True))
        else:
            raise stream.error(
                "expected PROTOTYPE, SERVICE, EXTENDED RELATION/STREAM, "
                "INSERT INTO or DELETE FROM"
            )
    return statements


def execute_ddl(text: str, table_manager) -> list[object]:
    """Parse and execute a DDL script against a table manager.

    Returns, in statement order: declared :class:`Prototype` objects,
    created :class:`repro.continuous.xdrelation.XDRelation` objects, and
    :class:`ServiceDeclaration` objects for the caller to bind.
    """
    environment = table_manager.environment
    results: list[object] = []
    for statement in parse_ddl(text):
        if isinstance(statement, _PrototypeStmt):
            results.append(environment.declare_prototype(statement.prototype))
        elif isinstance(statement, _ServiceStmt):
            for name in statement.declaration.prototype_names:
                environment.prototype(name)  # must already be declared
            results.append(statement.declaration)
        elif isinstance(statement, _RelationStmt):
            schema = _resolve_patterns(statement, environment)
            results.append(
                table_manager.create_relation(schema, infinite=statement.infinite)
            )
        elif isinstance(statement, _DataStmt):
            if statement.delete:
                results.append(
                    table_manager.delete_tuples(statement.relation_name, statement.rows)
                )
            else:
                results.append(
                    table_manager.insert_tuples(statement.relation_name, statement.rows)
                )
        else:  # pragma: no cover - parser produces only the above
            raise ParseError(f"unknown statement {statement!r}")
    return results


# ---------------------------------------------------------------------------
# Statement parsers
# ---------------------------------------------------------------------------


def _parse_attribute_list(
    stream: TokenStream, relation: bool = False
) -> tuple[list[Attribute], set[str]]:
    """``( name TYPE, name TYPE, ... )`` and the names marked ``VIRTUAL``.

    A prototype's list may be empty and marks nothing virtual; a
    relation's has at least one attribute, each optionally ``VIRTUAL``.
    """
    stream.expect_punct("(")
    attributes: list[Attribute] = []
    virtual: set[str] = set()
    if relation or not stream.current.is_punct(")"):
        while True:
            name = stream.expect_ident().value
            dtype = DataType.from_name(stream.expect_ident().value)
            attributes.append(Attribute(name, dtype))
            if relation and stream.accept_keyword("VIRTUAL"):
                virtual.add(name)
            if not stream.accept_punct(","):
                break
    stream.expect_punct(")")
    return attributes, virtual


def _parse_prototype(stream: TokenStream) -> _PrototypeStmt:
    stream.expect_keyword("PROTOTYPE")
    name = stream.expect_ident().value
    input_schema = RelationSchema(_parse_attribute_list(stream)[0])
    stream.expect_punct(":")
    output_schema = RelationSchema(_parse_attribute_list(stream)[0])
    active = stream.accept_keyword("ACTIVE")
    if not active:
        stream.accept_keyword("PASSIVE")
    stream.expect_punct(";")
    return _PrototypeStmt(Prototype(name, input_schema, output_schema, active))


def _parse_service(stream: TokenStream) -> _ServiceStmt:
    stream.expect_keyword("SERVICE")
    reference = stream.expect_ident().value
    stream.expect_keyword("IMPLEMENTS")
    names = stream.identifiers()
    stream.expect_punct(";")
    return _ServiceStmt(ServiceDeclaration(reference, tuple(names)))


def _parse_relation(stream: TokenStream) -> _RelationStmt:
    stream.expect_keyword("EXTENDED")
    if stream.accept_keyword("STREAM"):
        infinite = True
    else:
        stream.expect_keyword("RELATION")
        infinite = False
    name = stream.expect_ident().value
    attributes, virtual = _parse_attribute_list(stream, relation=True)

    patterns: list[tuple[str, str, tuple[str, ...], tuple[str, ...]]] = []
    if stream.accept_keyword("USING"):
        stream.expect_keyword("BINDING")
        stream.expect_keyword("PATTERNS")
        stream.expect_punct("(")
        while True:
            prototype_name = stream.expect_ident().value
            stream.expect_punct("[")
            service_attribute = stream.expect_ident().value
            stream.expect_punct("]")
            inputs = tuple(stream.identifiers(parenthesized=True))
            stream.expect_punct(":")
            outputs = tuple(stream.identifiers(parenthesized=True))
            patterns.append((prototype_name, service_attribute, inputs, outputs))
            if not stream.accept_punct(","):
                break
        stream.expect_punct(")")
    stream.expect_punct(";")

    schema = ExtendedRelationSchema(name, attributes, virtual)
    return _RelationStmt(schema, infinite, tuple(patterns))


def _parse_data(stream: TokenStream, delete: bool) -> _DataStmt:
    if delete:
        stream.expect_keyword("DELETE")
        stream.expect_keyword("FROM")
    else:
        stream.expect_keyword("INSERT")
        stream.expect_keyword("INTO")
    name = stream.expect_ident().value
    stream.expect_keyword("VALUES")
    rows = [_parse_value_tuple(stream)]
    while stream.accept_punct(","):
        rows.append(_parse_value_tuple(stream))
    stream.expect_punct(";")
    return _DataStmt(name, tuple(rows), delete)


def _parse_value_tuple(stream: TokenStream) -> tuple:
    stream.expect_punct("(")
    values: list[object] = []
    if not stream.current.is_punct(")"):
        while True:
            values.append(stream.literal())
            if not stream.accept_punct(","):
                break
    stream.expect_punct(")")
    return tuple(values)


def _resolve_patterns(statement: _RelationStmt, environment) -> ExtendedRelationSchema:
    """Attach the declared binding patterns, checking them against the
    prototype declarations."""
    schema = statement.schema
    bps: list[BindingPattern] = []
    for prototype_name, service_attribute, inputs, outputs in statement.patterns:
        prototype = environment.prototype(prototype_name)
        declared_inputs = set(inputs)
        declared_outputs = set(outputs)
        if declared_inputs != set(prototype.input_schema.names):
            raise ParseError(
                f"binding pattern {prototype_name}[{service_attribute}] of "
                f"{schema.name!r}: declared inputs {sorted(declared_inputs)} do "
                f"not match the prototype's {sorted(prototype.input_schema.names)}"
            )
        if declared_outputs != set(prototype.output_schema.names):
            raise ParseError(
                f"binding pattern {prototype_name}[{service_attribute}] of "
                f"{schema.name!r}: declared outputs {sorted(declared_outputs)} "
                f"do not match the prototype's {sorted(prototype.output_schema.names)}"
            )
        bps.append(BindingPattern(prototype, service_attribute))
    return ExtendedRelationSchema(
        schema.name, schema.attributes, schema.virtual_names, bps
    )
