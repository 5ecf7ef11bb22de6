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
from repro.errors import ParseError
from repro.lang.lexer import Token, TokenStream, tokenize
from repro.model.environment import PervasiveEnvironment

__all__ = ["parse_query", "parse_formula"]

_COMPARATORS = ("=", "!=", "<=", ">=", "<", ">")


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
    formula = _parse_or(stream)
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
    params = _Params(stream)
    if word == "project":
        names = params.name_list()
    elif word == "select":
        formula = _parse_or(stream)
    elif word == "rename":
        old = stream.expect_ident().value
        stream.expect_punct("->")
        new = stream.expect_ident().value
    elif word == "assign":
        attribute = stream.expect_ident().value
        stream.expect_punct(":=")
        value, from_attribute = _parse_assign_value(stream)
    elif word == "invoke":
        prototype_name = stream.expect_ident().value
        service_attribute = None
        delay = 0
        if stream.accept_punct(","):
            service_attribute = stream.expect_ident().value
        if stream.accept_punct(","):
            delay_token = stream.current
            if delay_token.kind != "number":
                raise stream.error("expected an invocation delay")
            stream.advance()
            delay = int(delay_token.value)
    elif word == "bindstream":
        prototype_name = stream.expect_ident().value
        service_attribute = None
        timestamp_attribute = None
        if stream.accept_punct(","):
            service_attribute = stream.expect_ident().value
        if stream.accept_punct(","):
            timestamp_attribute = stream.expect_ident().value
    elif word == "window":
        period_token = stream.current
        if period_token.kind != "number":
            raise stream.error("expected a window period")
        stream.advance()
        try:
            period = int(period_token.value)
        except ValueError:
            raise ParseError(
                "window period must be an integer",
                period_token.line,
                period_token.column,
            ) from None
    elif word == "stream":
        kind = stream.expect_ident().value
    else:  # aggregate
        group_by, aggregates = _parse_aggregate_params(stream)
    stream.expect_punct("]")
    stream.expect_punct("(")
    child = _parse_expr(stream, environment)
    stream.expect_punct(")")

    if word == "project":
        return Projection(child, names)
    if word == "select":
        return Selection(child, formula)
    if word == "rename":
        return Renaming(child, old, new)
    if word == "assign":
        return Assignment(child, attribute, value, from_attribute)
    if word == "invoke":
        bp = child.schema.binding_pattern(prototype_name, service_attribute)
        return Invocation(child, bp, delay=delay)
    if word == "bindstream":
        bp = child.schema.binding_pattern(prototype_name, service_attribute)
        return StreamingInvocation(
            child, bp, timestamp_attribute=timestamp_attribute
        )
    if word == "window":
        return Window(child, period)
    if word == "stream":
        return Streaming(child, kind)
    return Aggregate(child, group_by, aggregates)


class _Params:
    """Helper namespace for simple parameter shapes."""

    def __init__(self, stream: TokenStream):
        self.stream = stream

    def name_list(self) -> list[str]:
        names = [self.stream.expect_ident().value]
        while self.stream.accept_punct(","):
            names.append(self.stream.expect_ident().value)
        return names


def _parse_assign_value(stream: TokenStream) -> tuple[object, bool]:
    """The right-hand side of ``attr := ...``: a literal or an attribute."""
    token = stream.current
    if token.kind == "string":
        stream.advance()
        return token.value, False
    if token.kind == "number":
        stream.advance()
        return _number(token), False
    if token.kind == "ident":
        if token.is_keyword("true"):
            stream.advance()
            return True, False
        if token.is_keyword("false"):
            stream.advance()
            return False, False
        stream.advance()
        return token.value, True  # attribute reference
    raise stream.error("expected a literal or an attribute name")


def _parse_aggregate_params(
    stream: TokenStream,
) -> tuple[list[str], list[AggregateSpec]]:
    """``g1, g2 ; func(attr) as name, ...`` (group list may be empty)."""
    group_by: list[str] = []
    if not stream.current.is_punct(";"):
        group_by.append(stream.expect_ident().value)
        while stream.accept_punct(","):
            group_by.append(stream.expect_ident().value)
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
# Formulas
# ---------------------------------------------------------------------------


def _parse_or(stream: TokenStream) -> Formula:
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
        inner = _parse_or(stream)
        stream.expect_punct(")")
        return inner
    if stream.current.is_keyword("true") and _is_bare_true(stream):
        stream.advance()
        return TrueFormula()
    return _parse_comparison(stream)


def _is_bare_true(stream: TokenStream) -> bool:
    """``true`` is the constant formula only when not part of a comparison
    (``sent = true`` uses it as a literal)."""
    follower = stream.peek()
    if follower.kind == "punct" and follower.value in _COMPARATORS:
        return False
    return not follower.is_keyword("contains")


def _parse_comparison(stream: TokenStream) -> Formula:
    left, left_is_attr = _parse_operand(stream)
    token = stream.current
    if token.kind == "punct" and token.value in _COMPARATORS:
        op = token.value
        stream.advance()
    elif token.is_keyword("contains"):
        op = "contains"
        stream.advance()
    else:
        raise stream.error("expected a comparison operator")
    right, right_is_attr = _parse_operand(stream)
    return Comparison(left, op, right, left_is_attr, right_is_attr)


def _parse_operand(stream: TokenStream) -> tuple[object, bool]:
    token = stream.current
    if token.kind == "string":
        stream.advance()
        return token.value, False
    if token.kind == "number":
        stream.advance()
        return _number(token), False
    if token.kind == "ident":
        if token.is_keyword("true"):
            stream.advance()
            return True, False
        if token.is_keyword("false"):
            stream.advance()
            return False, False
        stream.advance()
        return token.value, True
    raise stream.error("expected an attribute, number, string or boolean")


def _number(token: Token) -> object:
    text = token.value
    try:
        if any(ch in text for ch in ".eE"):
            return float(text)
        return int(text)
    except ValueError:
        raise ParseError(f"bad number literal {text!r}", token.line, token.column) from None
