"""Serena SQL: a SQL-like front-end over the Serena algebra.

Section 1.1 of the paper mentions "the definition of a SQL-like language
based on the Serena algebra, namely the Serena SQL", but does not present
it.  This module defines a concrete Serena SQL — our concretization,
documented here and in DESIGN.md — that compiles to the algebra:

::

    SELECT sensor, temperature
    FROM sensors
    WHERE location = 'office'
    USING getTemperature

    SELECT location, avg(temperature) AS mean_temp
    FROM temperatures [1] NATURAL JOIN surveillance
    WHERE temperature > threshold
    GROUP BY location

    SELECT name, sent
    FROM contacts
    SET text := 'Hot!'
    USING sendMessage
    AS STREAM OF INSERTION

Clause order **is** evaluation order — each clause compiles to the next
algebra operator on top of the previous ones:

========  =====================================================
FROM      scans; ``rel [n]`` applies ``W[n]`` to a stream; the
          relations are combined with natural joins (⋈)
SET       assignments (α), in declared order
WHERE     selection (σ) applied **before** the USING invocations
          — it may only reference attributes real at that point
USING     invocations (β), in declared order; ``STREAMING p
          [AT ts]`` uses a streaming binding pattern (β∞) instead
GROUP BY  grouping (γ) with the aggregate items of SELECT
HAVING    selection (σ) applied **after** invocations/grouping
SELECT    projection (π) unless ``*``
AS STREAM streaming operator (S[insertion] by default)
========  =====================================================

The WHERE/HAVING split is Serena SQL's answer to the paper's equivalence
rules: WHERE filters *before* service invocations (fewer calls, and the
action set of an active ``USING`` prototype reflects the filter — like
Q1), HAVING filters the realized results (like Q1′).  The optimizer can
still move selections across *passive* invocations afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.formula import Formula
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate, AggregateFunction, AggregateSpec
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming, StreamType
from repro.algebra.operators.window import Window
from repro.algebra.query import Query
from repro.errors import ParseError
from repro.lang.lexer import TokenStream, tokenize
from repro.lang.sal import read_formula, read_operand
from repro.model.environment import PervasiveEnvironment

__all__ = ["parse_sql", "compile_sql"]

#: SELECT-list function names recognized as aggregates.
AGGREGATE_NAMES = frozenset(f.value for f in AggregateFunction)


@dataclass
class _SelectItem:
    """One SELECT list entry: a plain attribute or an aggregate."""

    name: str                      # output attribute name
    function: str | None = None    # aggregate function, if any
    argument: str | None = None    # aggregate argument (None = '*')


@dataclass
class _SqlQuery:
    """Parsed Serena SQL, before compilation."""

    select: list[_SelectItem] | None   # None means '*'
    tables: list[tuple[str, int | None]]  # (name, window period or None)
    assignments: list[tuple[str, object, bool]]  # (attr, value, from_attr)
    invocations: list[tuple[str, bool, str | None]]  # (proto, streaming, ts)
    where: Formula | None
    group_by: list[str]
    having: Formula | None
    as_stream: StreamType | None


def parse_sql(text: str) -> _SqlQuery:
    """Parse a Serena SQL query into its clause structure."""
    stream = TokenStream(tokenize(text))
    stream.expect_keyword("SELECT")
    select = _parse_select_list(stream)

    stream.expect_keyword("FROM")
    tables = [_parse_table_ref(stream)]
    while True:
        if stream.current.is_keyword("NATURAL"):
            stream.advance()
            stream.expect_keyword("JOIN")
            tables.append(_parse_table_ref(stream))
        elif stream.accept_punct(","):
            tables.append(_parse_table_ref(stream))
        else:
            break

    assignments: list[tuple[str, object, bool]] = []
    if stream.accept_keyword("SET"):
        while True:
            attribute = stream.expect_ident().value
            stream.expect_punct(":=")
            value, from_attribute = read_operand(stream)
            assignments.append((attribute, value, from_attribute))
            if not stream.accept_punct(","):
                break

    where = None
    if stream.accept_keyword("WHERE"):
        where = read_formula(stream)

    invocations: list[tuple[str, bool, str | None]] = []
    if stream.accept_keyword("USING"):
        while True:
            streaming = stream.accept_keyword("STREAMING")
            prototype = stream.expect_ident().value
            timestamp = None
            if streaming and stream.accept_keyword("AT"):
                timestamp = stream.expect_ident().value
            invocations.append((prototype, streaming, timestamp))
            if not stream.accept_punct(","):
                break

    group_by: list[str] = []
    if stream.accept_keyword("GROUP"):
        stream.expect_keyword("BY")
        group_by = stream.identifiers()

    having = None
    if stream.accept_keyword("HAVING"):
        having = read_formula(stream)

    as_stream = None
    if stream.accept_keyword("AS"):
        stream.expect_keyword("STREAM")
        kind = "insertion"
        if stream.accept_keyword("OF"):
            kind = stream.expect_ident().value
        as_stream = StreamType.from_name(kind)

    stream.accept_punct(";")
    if not stream.at_end():
        raise stream.error("unexpected trailing input")
    return _SqlQuery(
        select, tables, assignments, invocations, where, group_by, having, as_stream
    )


def _parse_select_list(stream: TokenStream) -> list[_SelectItem] | None:
    if stream.accept_punct("*"):
        return None
    items = [_parse_select_item(stream)]
    while stream.accept_punct(","):
        items.append(_parse_select_item(stream))
    return items


def _parse_select_item(stream: TokenStream) -> _SelectItem:
    ident = stream.expect_ident()
    if ident.value.lower() in AGGREGATE_NAMES and stream.current.is_punct("("):
        stream.advance()
        if stream.accept_punct("*"):
            argument = None
        else:
            argument = stream.expect_ident().value
        stream.expect_punct(")")
        stream.expect_keyword("AS")
        name = stream.expect_ident().value
        return _SelectItem(name, ident.value.lower(), argument)
    return _SelectItem(ident.value)


def _parse_table_ref(stream: TokenStream) -> tuple[str, int | None]:
    name = stream.expect_ident().value
    period = None
    if stream.accept_punct("["):
        period = stream.integer("window period")
        stream.expect_punct("]")
    return name, period


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_sql(
    text: str, environment: PervasiveEnvironment, name: str | None = None
) -> Query:
    """Parse and compile a Serena SQL query against ``environment``."""
    parsed = parse_sql(text)

    # FROM: scans (+ windows on streams), combined with natural joins.
    plan: Operator | None = None
    for table_name, period in parsed.tables:
        schema = environment.schema(table_name).with_name(table_name)
        node: Operator = Scan(table_name, schema, environment.is_stream(table_name))
        if period is not None:
            node = Window(node, period)
        elif node.is_stream:
            raise ParseError(
                f"relation {table_name!r} is a stream: give it a window, "
                f"e.g. {table_name}[1]"
            )
        plan = node if plan is None else NaturalJoin(plan, node)
    assert plan is not None

    # SET: assignments in declared order.
    for attribute, value, from_attribute in parsed.assignments:
        plan = Assignment(plan, attribute, value, from_attribute)

    # WHERE: pre-invocation selection.
    if parsed.where is not None:
        plan = Selection(plan, parsed.where)

    # USING: invocations in declared order.
    for prototype_name, streaming, timestamp in parsed.invocations:
        bp = plan.schema.binding_pattern(prototype_name)
        if streaming:
            plan = StreamingInvocation(plan, bp, timestamp_attribute=timestamp)
        else:
            plan = Invocation(plan, bp)

    # GROUP BY + aggregate select items.
    aggregates = [
        AggregateSpec(item.function, item.argument, item.name)
        for item in (parsed.select or [])
        if item.function is not None
    ]
    if parsed.group_by or aggregates:
        if parsed.select is None:
            raise ParseError("SELECT * cannot be combined with aggregates")
        plain = [i.name for i in parsed.select if i.function is None]
        stray = set(plain) - set(parsed.group_by)
        if stray:
            raise ParseError(
                f"non-aggregated SELECT attributes {sorted(stray)} must "
                "appear in GROUP BY"
            )
        plan = Aggregate(plan, parsed.group_by, aggregates)

    # HAVING: post-invocation / post-group selection.
    if parsed.having is not None:
        plan = Selection(plan, parsed.having)

    # SELECT projection (unless '*' or the aggregate already shaped it).
    if parsed.select is not None:
        names = [item.name for item in parsed.select]
        if tuple(names) != plan.schema.names:
            plan = Projection(plan, names)

    if parsed.as_stream is not None:
        plan = Streaming(plan, parsed.as_stream)
    return Query(plan, name)
