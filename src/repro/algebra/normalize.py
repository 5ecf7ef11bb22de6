"""Plan normalization: a canonical form for syntactic equivalence.

Definition 9 equivalence is semantic (quantifies over all environments);
proving it in general needs the calculus the paper leaves as future work
(Section 7).  What *can* be decided cheaply is equivalence up to the
rewrite rules: two plans are **syntactically equivalent** when they
normalize to the same tree under

1. selection merging and pushdown to a fixed point (the Table 5 /
   classical rules — every step preserves Definition 9),
2. projection-cascade collapsing,
3. canonical selection formulas: conjunctions and disjunctions are
   flattened, deduplicated and re-nested left-deep in sorted render order
   (∧/∨ are associative, commutative and idempotent over booleans).

Join/union operand order is deliberately *not* normalized: commuting a
join permutes the output schema's attribute order, which our strict
X-Relation equality (and Definition 9 as we evaluate it) distinguishes.

Uses: the shared-plan registry's keys (it lowers the normal form, so the
pushdown fixpoint is the plan that runs), and tests that want "same
query, written differently" to compare equal.
"""

from __future__ import annotations

from repro.algebra.formula import And, Formula, Not, Or
from repro.algebra.operators.base import Operator
from repro.algebra.operators.selection import Selection
from repro.algebra.query import Query
from repro.algebra.rewriting import PUSHDOWN_RULES, rewrite_fixpoint

__all__ = ["normalize", "normalize_formula", "syntactically_equivalent"]


def normalize_formula(formula: Formula) -> Formula:
    """Canonicalize a selection formula (see module docstring)."""
    if isinstance(formula, Not):
        return Not(normalize_formula(formula.operand))
    if isinstance(formula, (And, Or)):
        connective = type(formula)
        terms = _flatten(formula, connective)
        normalized = sorted(
            {normalize_formula(term) for term in terms},
            key=lambda term: term.render(),
        )
        result = normalized[0]
        for term in normalized[1:]:
            result = connective(result, term)
        return result
    return formula


def _flatten(formula: Formula, connective: type) -> list[Formula]:
    if isinstance(formula, connective):
        return _flatten(formula.left, connective) + _flatten(
            formula.right, connective
        )
    return [formula]


def _canonicalize_formulas(node: Operator) -> Operator:
    children = [_canonicalize_formulas(child) for child in node.children]
    if children != list(node.children):
        node = node.with_children(children)
    if isinstance(node, Selection):
        canonical = normalize_formula(node.formula)
        if canonical != node.formula:
            node = Selection(node.children[0], canonical)
    return node


def normalize(plan: Operator | Query) -> Operator | Query:
    """Normalize a plan (or a query, preserving its name)."""
    if isinstance(plan, Query):
        normalized = normalize(plan.root)
        assert isinstance(normalized, Operator)
        return Query(normalized, plan.name)
    pushed = rewrite_fixpoint(plan, PUSHDOWN_RULES)
    assert isinstance(pushed, Operator)
    return _canonicalize_formulas(pushed)


def syntactically_equivalent(a: Operator | Query, b: Operator | Query) -> bool:
    """True iff the plans normalize to the same tree.

    Sound but incomplete for Definition 9: a ``True`` verdict guarantees
    equivalence (every normalization step preserves it); ``False`` only
    means the rules cannot relate the plans.
    """
    left = normalize(a)
    right = normalize(b)
    left_root = left.root if isinstance(left, Query) else left
    right_root = right.root if isinstance(right, Query) else right
    return left_root == right_root
