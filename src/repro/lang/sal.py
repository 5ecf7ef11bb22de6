"""The Serena Algebra Language (SAL, Section 5.1).

The paper registers continuous queries through "a query language
representing Serena algebra expressions".  SAL is that language: a textual,
compositional form of the algebra where every operator of Table 3 (and the
continuous operators of Section 4.2) appears under its own name::

    invoke[sendMessage, messenger](
        assign[text := 'Bonjour!'](
            select[name != 'Carla'](contacts)))

The grammar (roughly)::

    expr     := IDENT                                  -- relation scan
              | unary '[' params ']' '(' expr ')'
              | binary '(' expr ',' expr ')'
    unary    := project | select | rename | assign | invoke
              | window | stream | aggregate
    binary   := join | union | intersection | difference

Formulas use ``and`` / ``or`` / ``not``, the comparators ``= != < <= > >=
contains``, single-quoted strings, numbers and ``true`` / ``false``.
Plans rendered by :meth:`Operator.render` parse back to equal plans
(round-tripping is property-tested).
"""

from __future__ import annotations

from repro.algebra.formula import And, Comparison, Formula, Not, Or, TrueFormula
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate, AggregateSpec
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.setops import Difference, Intersection, Union
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming
from repro.algebra.operators.window import Window
from repro.algebra.query import Query
from repro.lang.lexer import TokenStream, tokenize
from repro.model.environment import PervasiveEnvironment

__all__ = [
    "parse_query",
    "parse_formula",
    "read_comparison",
    "read_formula",
    "read_operand",
]


def parse_query(
    text: str, environment: PervasiveEnvironment, name: str | None = None
) -> Query:
    """Parse a SAL expression into a :class:`Query` bound to
    ``environment`` (relation names resolve against its catalog)."""
    stream = TokenStream(tokenize(text))
    root = _parse_expr(stream, environment)
    if not stream.at_end():
        raise stream.error("unexpected trailing input")
    return Query(root, name)


def parse_formula(text: str) -> Formula:
    """Parse a standalone selection formula."""
    stream = TokenStream(tokenize(text))
    formula = read_formula(stream)
    if not stream.at_end():
        raise stream.error("unexpected trailing input")
    return formula


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_UNARY = frozenset(
    {
        "project",
        "select",
        "rename",
        "assign",
        "invoke",
        "bindstream",
        "window",
        "stream",
        "aggregate",
    }
)
_BINARY = frozenset({"join", "union", "intersection", "difference"})


def _parse_expr(stream: TokenStream, environment: PervasiveEnvironment) -> Operator:
    token = stream.current
    if token.kind != "ident":
        raise stream.error("expected an operator or a relation name")
    word = token.value.lower()
    if word in _UNARY and stream.peek().is_punct("["):
        return _parse_unary(stream, environment, word)
    if word in _BINARY and stream.peek().is_punct("("):
        return _parse_binary(stream, environment, word)
    # A bare identifier: scan of an environment relation.
    stream.advance()
    schema = environment.schema(token.value).with_name(token.value)
    return Scan(token.value, schema, environment.is_stream(token.value))


def _parse_binary(
    stream: TokenStream, environment: PervasiveEnvironment, word: str
) -> Operator:
    stream.advance()  # operator name
    stream.expect_punct("(")
    left = _parse_expr(stream, environment)
    stream.expect_punct(",")
    right = _parse_expr(stream, environment)
    stream.expect_punct(")")
    if word == "join":
        return NaturalJoin(left, right)
    if word == "union":
        return Union(left, right)
    if word == "intersection":
        return Intersection(left, right)
    return Difference(left, right)


def _parse_unary(
    stream: TokenStream, environment: PervasiveEnvironment, word: str
) -> Operator:
    stream.advance()  # operator name
    stream.expect_punct("[")
    if word == "project":
        names = stream.identifiers()
        return Projection(_parse_input(stream, environment), names)
    if word == "select":
        formula = read_formula(stream)
        return Selection(_parse_input(stream, environment), formula)
    if word == "rename":
        old = stream.expect_ident().value
        stream.expect_punct("->")
        new = stream.expect_ident().value
        return Renaming(_parse_input(stream, environment), old, new)
    if word == "assign":
        attribute = stream.expect_ident().value
        stream.expect_punct(":=")
        value, from_attribute = read_operand(stream)
        return Assignment(
            _parse_input(stream, environment), attribute, value, from_attribute
        )
    if word == "invoke":
        prototype_name = stream.expect_ident().value
        service_attribute = stream.expect_ident().value if stream.accept_punct(",") else None
        delay = stream.integer("invocation delay") if stream.accept_punct(",") else 0
        child = _parse_input(stream, environment)
        bp = child.schema.binding_pattern(prototype_name, service_attribute)
        return Invocation(child, bp, delay=delay)
    if word == "bindstream":
        prototype_name = stream.expect_ident().value
        service_attribute = stream.expect_ident().value if stream.accept_punct(",") else None
        timestamp = stream.expect_ident().value if stream.accept_punct(",") else None
        child = _parse_input(stream, environment)
        bp = child.schema.binding_pattern(prototype_name, service_attribute)
        return StreamingInvocation(child, bp, timestamp_attribute=timestamp)
    if word == "window":
        period = stream.integer("window period")
        return Window(_parse_input(stream, environment), period)
    if word == "stream":
        kind = stream.expect_ident().value
        return Streaming(_parse_input(stream, environment), kind)
    group_by, aggregates = _parse_aggregate_params(stream)  # aggregate
    return Aggregate(_parse_input(stream, environment), group_by, aggregates)


def _parse_input(stream: TokenStream, environment: PervasiveEnvironment) -> Operator:
    """``] ( expr )``: the end of a unary operator's parameters, then its input."""
    stream.expect_punct("]")
    stream.expect_punct("(")
    child = _parse_expr(stream, environment)
    stream.expect_punct(")")
    return child


def _parse_aggregate_params(
    stream: TokenStream,
) -> tuple[list[str], list[AggregateSpec]]:
    """``g1, g2 ; func(attr) as name, ...`` (group list may be empty)."""
    group_by = [] if stream.current.is_punct(";") else stream.identifiers()
    stream.expect_punct(";")
    aggregates = [_parse_aggregate_spec(stream)]
    while stream.accept_punct(","):
        aggregates.append(_parse_aggregate_spec(stream))
    return group_by, aggregates


def _parse_aggregate_spec(stream: TokenStream) -> AggregateSpec:
    function = stream.expect_ident().value
    stream.expect_punct("(")
    attribute: str | None
    if stream.accept_punct("*"):
        attribute = None
    else:
        attribute = stream.expect_ident().value
    stream.expect_punct(")")
    stream.expect_keyword("as")
    result_name = stream.expect_ident().value
    return AggregateSpec(function, attribute, result_name)


# ---------------------------------------------------------------------------
# Formulas — the one formula grammar, shared with SQL and the rule calculus
# ---------------------------------------------------------------------------


def read_formula(stream: TokenStream) -> Formula:
    """A formula: comparisons under ``and`` / ``or`` / ``not`` and parentheses."""
    left = _parse_and(stream)
    while stream.current.is_keyword("or"):
        stream.advance()
        left = Or(left, _parse_and(stream))
    return left


def _parse_and(stream: TokenStream) -> Formula:
    left = _parse_unary_formula(stream)
    while stream.current.is_keyword("and"):
        stream.advance()
        left = And(left, _parse_unary_formula(stream))
    return left


def _parse_unary_formula(stream: TokenStream) -> Formula:
    if stream.current.is_keyword("not"):
        stream.advance()
        return Not(_parse_unary_formula(stream))
    if stream.accept_punct("("):
        inner = read_formula(stream)
        stream.expect_punct(")")
        return inner
    # ``true`` is the constant formula unless a comparator follows
    # (``sent = true`` uses it as a literal).
    if stream.current.is_keyword("true") and stream.peek().comparator() is None:
        stream.advance()
        return TrueFormula()
    return read_comparison(stream)


def read_comparison(stream: TokenStream) -> Comparison:
    """``operand comparator operand``."""
    left, left_is_attr = read_operand(stream)
    op = stream.expect_comparator()
    right, right_is_attr = read_operand(stream)
    return Comparison(left, op, right, left_is_attr, right_is_attr)


def read_operand(stream: TokenStream) -> tuple[object, bool]:
    """An attribute name or a literal, with whether it is an attribute."""
    token = stream.current
    if token.is_name():
        stream.advance()
        return token.value, True
    return stream.literal("an attribute, number, string or boolean"), False
