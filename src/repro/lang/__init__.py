"""Language layer: four front ends over one algebra — the Serena DDL
(Tables 1–2), the Serena Algebra Language (Section 5.1), Serena SQL
(Section 1.1) and the rule calculus (Section 7) — sharing one lexer and
its token readers, plus plan pretty-printers."""

from repro.lang.datalog import ConjunctiveRule, compile_rule, parse_rule
from repro.lang.ddl import ServiceDeclaration, execute_ddl, parse_ddl
from repro.lang.printer import explain, to_dot, to_math, to_sal
from repro.lang.sal import parse_formula, parse_query
from repro.lang.sql import compile_sql

__all__ = [
    "ConjunctiveRule",
    "ServiceDeclaration",
    "compile_rule",
    "compile_sql",
    "parse_rule",
    "execute_ddl",
    "explain",
    "parse_ddl",
    "parse_formula",
    "parse_query",
    "to_dot",
    "to_math",
    "to_sal",
]
