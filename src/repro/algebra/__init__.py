"""The Serena algebra (Section 3): operators, queries, equivalence and
rewriting over relational pervasive environments.  The optimizer is
:func:`rewrite_fixpoint` over :data:`PUSHDOWN_RULES` (Section 3.3)."""

from repro.algebra.actions import Action, ActionSet
from repro.algebra.builder import PlanBuilder, scan
from repro.algebra.context import EvaluationContext
from repro.algebra.equivalence import (
    EquivalenceReport,
    check_equivalence,
    equivalent_on,
)
from repro.algebra.formula import And, Comparison, Formula, Not, Or, TrueFormula, col
from repro.algebra.operators import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
    Assignment,
    Difference,
    Intersection,
    Invocation,
    NaturalJoin,
    Operator,
    Projection,
    Renaming,
    Scan,
    Selection,
    Streaming,
    StreamingInvocation,
    StreamType,
    Union,
    Window,
)
from repro.algebra.query import NodeProfile, Query, QueryProfile, QueryResult
from repro.algebra.fingerprint import canonical_plan, plan_fingerprint
from repro.algebra.normalize import (
    normalize,
    normalize_formula,
    syntactically_equivalent,
)
from repro.algebra.rewriting import (
    DEFAULT_RULES,
    PUSHDOWN_RULES,
    RewriteRule,
    RewriteTrace,
    apply_rule,
    rewrite_fixpoint,
    rule_by_name,
)

__all__ = [
    "Action",
    "ActionSet",
    "Aggregate",
    "AggregateFunction",
    "AggregateSpec",
    "And",
    "Assignment",
    "Comparison",
    "DEFAULT_RULES",
    "Difference",
    "EquivalenceReport",
    "EvaluationContext",
    "Formula",
    "Intersection",
    "Invocation",
    "NaturalJoin",
    "NodeProfile",
    "Not",
    "Operator",
    "Or",
    "PUSHDOWN_RULES",
    "PlanBuilder",
    "Projection",
    "Query",
    "QueryProfile",
    "QueryResult",
    "Renaming",
    "RewriteRule",
    "RewriteTrace",
    "Scan",
    "Selection",
    "StreamType",
    "Streaming",
    "StreamingInvocation",
    "TrueFormula",
    "Union",
    "Window",
    "apply_rule",
    "check_equivalence",
    "col",
    "equivalent_on",
    "canonical_plan",
    "normalize",
    "normalize_formula",
    "plan_fingerprint",
    "rewrite_fixpoint",
    "rule_by_name",
    "scan",
    "syntactically_equivalent",
]
