"""Query rewriting rules (Section 3.3, Table 5).

Each rule is a *directed* transformation on plan trees that preserves
equivalence in the sense of Definition 9: the rewritten query produces the
same resulting X-Relation and the same action set on every environment.

The active/passive opposition drives the legality of rules involving the
invocation operator: like non-deterministic UDFs in standard SQL, an
invocation of an *active* binding pattern must happen for exactly the same
input tuples before and after rewriting.  Rules that change which tuples
reach an invocation operator (pushing a selection below it, pushing it
through a join) therefore require the binding pattern to be *passive*;
rules that preserve the invoked tuple set modulo duplicate collapsing
(projection commutation, where the pattern's attributes are all kept) are
legal for active patterns too, because action sets are *sets* (Def. 8).

The engine is deliberately simple: :func:`apply_rule` rewrites the topmost
applicable node, :func:`apply_everywhere` lists every one-step rewrite,
:func:`rewrite_fixpoint` iterates a rule list to a fixed point, and
:class:`RewriteTrace` records what fired for the shell's ``.optimize``.
``rewrite_fixpoint`` over :data:`PUSHDOWN_RULES` is the optimizer: the
shared-plan registry lowers its result (:mod:`repro.algebra.normalize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.algebra.formula import And
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.selection import Selection
from repro.algebra.query import Query
from repro.errors import InvalidOperatorError, SchemaError

__all__ = [
    "RewriteRule",
    "RewriteTrace",
    "apply_everywhere",
    "apply_rule",
    "rewrite_fixpoint",
    "DEFAULT_RULES",
    "PUSHDOWN_RULES",
    "rule_by_name",
]


@dataclass(frozen=True)
class RewriteRule:
    """A named, directed plan transformation.

    ``transform`` returns the rewritten node, or None when the rule does
    not apply at this node.  Transformations must be *local*: they only
    inspect and rebuild the node and its immediate children.
    """

    name: str
    description: str
    transform: Callable[[Operator], Operator | None]

    def apply(self, node: Operator) -> Operator | None:
        return self.transform(node)


@dataclass
class RewriteTrace:
    """Which rules fired, in order, during a rewrite session."""

    steps: list[str] = field(default_factory=list)

    def record(self, rule: RewriteRule) -> None:
        self.steps.append(rule.name)

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Rule implementations
# ---------------------------------------------------------------------------
#
# Naming: ``X_below_Y`` moves operator X below operator Y in the tree
# (i.e. X is applied earlier).  All rules take the *current* node and
# return its replacement.


def _selection_below_assignment(node: Operator) -> Operator | None:
    """σ_F(α_{A:=·}(r)) → α(σ_F(r))   if A ∉ attrs(F)   [Table 5, row 2]."""
    if not isinstance(node, Selection):
        return None
    (child,) = node.children
    if not isinstance(child, Assignment):
        return None
    if child.attribute in node.formula.attributes():
        return None
    (grandchild,) = child.children
    return child.with_children((Selection(grandchild, node.formula),))


def _assignment_below_selection(node: Operator) -> Operator | None:
    """α(σ_F(r)) → σ_F(α(r))   if A ∉ attrs(F)   [Table 5, row 2, reverse]."""
    if not isinstance(node, Assignment):
        return None
    (child,) = node.children
    if not isinstance(child, Selection):
        return None
    if node.attribute in child.formula.attributes():
        return None
    (grandchild,) = child.children
    return Selection(node.with_children((grandchild,)), child.formula)


def _selection_below_invocation(node: Operator) -> Operator | None:
    """σ_F(β_bp(r)) → β_bp(σ_F(r))   if bp passive and attrs(F) are real
    below β   [Table 5, invocation column].

    Requires the binding pattern to be passive: pushing the selection
    changes which tuples are invoked, which would alter the action set of
    an active pattern (this is exactly the Q1 vs Q1′ non-equivalence).
    """
    if not isinstance(node, Selection):
        return None
    (child,) = node.children
    if not isinstance(child, Invocation):
        return None
    if child.binding_pattern.active:
        return None
    if node.formula.attributes() & child.binding_pattern.output_names:
        return None
    (grandchild,) = child.children
    try:
        pushed = Selection(grandchild, node.formula)
    except (InvalidOperatorError, SchemaError):
        return None
    return child.with_children((pushed,))


def _selection_below_projection(node: Operator) -> Operator | None:
    """σ_F(π_L(r)) → π_L(σ_F(r))   [classical].

    π has no side effects, and attrs(F) ⊆ L are real below it too, so the
    selection sees the same values on either side.
    """
    if not isinstance(node, Selection):
        return None
    (child,) = node.children
    if not isinstance(child, Projection):
        return None
    (grandchild,) = child.children
    try:
        return child.with_children((Selection(grandchild, node.formula),))
    except (InvalidOperatorError, SchemaError):
        return None


def _invocation_below_selection(node: Operator) -> Operator | None:
    """β_bp(σ_F(r)) → σ_F(β_bp(r))   if bp passive   [reverse direction].

    Legal for passive patterns only: the hoisted invocation runs on *more*
    tuples, which is invisible in the result (the selection removes them
    afterwards) and leaves an empty action set unchanged.
    """
    if not isinstance(node, Invocation):
        return None
    if node.binding_pattern.active:
        return None
    (child,) = node.children
    if not isinstance(child, Selection):
        return None
    (grandchild,) = child.children
    try:
        hoisted = node.with_children((grandchild,))
    except (InvalidOperatorError, SchemaError):
        return None
    return Selection(hoisted, child.formula)


def _projection_below_assignment(node: Operator) -> Operator | None:
    """π_L(α_{A:=B}(r)) → α(π_L(r))   if A (and B) ∈ L   [Table 5, row 1]."""
    if not isinstance(node, Projection):
        return None
    (child,) = node.children
    if not isinstance(child, Assignment):
        return None
    kept = set(node.names)
    if child.attribute not in kept:
        return None
    if child.from_attribute and child.value not in kept:
        return None
    (grandchild,) = child.children
    try:
        pushed = Projection(grandchild, node.names)
        return child.with_children((pushed,))
    except (InvalidOperatorError, SchemaError):
        return None


def _projection_below_invocation(node: Operator) -> Operator | None:
    """π_L(β_bp(r)) → β_bp(π_L(r))   if every attribute bp references ∈ L.

    Legal for active patterns too: the action set only contains the
    pattern's service reference and input attributes, all of which are in
    L, and action sets collapse duplicates (Definition 8).  Duplicate
    collapsing by the pushed projection may *reduce* the number of
    physical invocations of an active pattern; the action set stays the
    same because the projection is lossless on the pattern's inputs.
    """
    if not isinstance(node, Projection):
        return None
    (child,) = node.children
    if not isinstance(child, Invocation):
        return None
    if not child.binding_pattern.referenced_names <= set(node.names):
        return None
    (grandchild,) = child.children
    try:
        pushed = Projection(grandchild, node.names)
        return child.with_children((pushed,))
    except (InvalidOperatorError, SchemaError):
        return None


def _selection_below_join(node: Operator) -> Operator | None:
    """σ_F(r1 ⋈ r2) → σ_F(r1) ⋈ r2   if attrs(F) ⊆ realSchema(R1)
    (and symmetrically)   [classical pushdown, Table 5 row 3 analogue]."""
    if not isinstance(node, Selection):
        return None
    (child,) = node.children
    if not isinstance(child, NaturalJoin):
        return None
    left, right = child.children
    needed = node.formula.attributes()
    if needed <= left.schema.real_names:
        return NaturalJoin(Selection(left, node.formula), right)
    if needed <= right.schema.real_names:
        return NaturalJoin(left, Selection(right, node.formula))
    return None


def _assignment_below_join(node: Operator) -> Operator | None:
    """α_{A:=·}(r1 ⋈ r2) → α(r1) ⋈ r2   if the assignment concerns only
    R1's attributes and A is not real in R2   [Table 5, row 3]."""
    if not isinstance(node, Assignment):
        return None
    (child,) = node.children
    if not isinstance(child, NaturalJoin):
        return None
    left, right = child.children
    for side, other in ((left, right), (right, left)):
        in_side = node.attribute in side.schema
        source_ok = (not node.from_attribute) or (
            isinstance(node.value, str) and node.value in side.schema.real_names
        )
        # A must still be virtual in the join output, which the Assignment
        # constructor has already checked; pushing is sound only if A does
        # not appear real in the other operand and pushing does not create
        # a new join predicate (A must not appear in the other operand at
        # all, otherwise realizing it on one side adds a join attribute).
        if in_side and source_ok and node.attribute not in other.schema:
            try:
                pushed = node.with_children((side,))
            except (InvalidOperatorError, SchemaError):
                continue
            if side is left:
                return NaturalJoin(pushed, right)
            return NaturalJoin(left, pushed)
    return None


def _invocation_below_join(node: Operator) -> Operator | None:
    """β_bp(r1 ⋈ r2) → β_bp(r1) ⋈ r2   if bp is passive and entirely
    within R1 (and its outputs do not occur in R2)   [Table 5, row 3]."""
    if not isinstance(node, Invocation):
        return None
    if node.binding_pattern.active:
        return None
    (child,) = node.children
    if not isinstance(child, NaturalJoin):
        return None
    left, right = child.children
    bp = node.binding_pattern
    for side, other in ((left, right), (right, left)):
        if bp not in side.schema.binding_patterns:
            continue
        if bp.output_names & other.schema.name_set:
            continue
        try:
            pushed = node.with_children((side,))
        except (InvalidOperatorError, SchemaError):
            continue
        if side is left:
            return NaturalJoin(pushed, right)
        return NaturalJoin(left, pushed)
    return None


def _merge_selections(node: Operator) -> Operator | None:
    """σ_F(σ_G(r)) → σ_{G ∧ F}(r)   [classical]."""
    if not isinstance(node, Selection):
        return None
    (child,) = node.children
    if not isinstance(child, Selection):
        return None
    (grandchild,) = child.children
    return Selection(grandchild, And(child.formula, node.formula))


def _cascade_projections(node: Operator) -> Operator | None:
    """π_L(π_M(r)) → π_L(r)   if L ⊆ M   [classical]."""
    if not isinstance(node, Projection):
        return None
    (child,) = node.children
    if not isinstance(child, Projection):
        return None
    if not set(node.names) <= set(child.names):
        return None
    (grandchild,) = child.children
    return Projection(grandchild, node.names)


# ---------------------------------------------------------------------------
# Rule catalog
# ---------------------------------------------------------------------------

_RULES = [
    RewriteRule(
        "selection_below_assignment",
        "push σ below α when the realized attribute is not in the formula",
        _selection_below_assignment,
    ),
    RewriteRule(
        "assignment_below_selection",
        "hoist σ above α (reverse of selection_below_assignment)",
        _assignment_below_selection,
    ),
    RewriteRule(
        "selection_below_invocation",
        "push σ below a passive β: filter before invoking (saves calls)",
        _selection_below_invocation,
    ),
    RewriteRule(
        "invocation_below_selection",
        "hoist σ above a passive β (reverse direction)",
        _invocation_below_selection,
    ),
    RewriteRule(
        "selection_below_projection",
        "push σ below π (π has no side effects)",
        _selection_below_projection,
    ),
    RewriteRule(
        "projection_below_assignment",
        "push π below α when it keeps the assigned attributes",
        _projection_below_assignment,
    ),
    RewriteRule(
        "projection_below_invocation",
        "push π below β when it keeps all attributes β references",
        _projection_below_invocation,
    ),
    RewriteRule(
        "selection_below_join",
        "push σ into the join operand that owns its attributes",
        _selection_below_join,
    ),
    RewriteRule(
        "assignment_below_join",
        "push α into the join operand that owns its attributes",
        _assignment_below_join,
    ),
    RewriteRule(
        "invocation_below_join",
        "push a passive β into the join operand that binds it",
        _invocation_below_join,
    ),
    RewriteRule(
        "merge_selections",
        "merge stacked selections into one conjunction",
        _merge_selections,
    ),
    RewriteRule(
        "cascade_projections",
        "collapse stacked projections",
        _cascade_projections,
    ),
]

_RULE_INDEX = {rule.name: rule for rule in _RULES}

#: All rules (both directions); use :data:`PUSHDOWN_RULES` for optimization.
DEFAULT_RULES: tuple[RewriteRule, ...] = tuple(_RULES)

#: The subset that monotonically moves selections down and defers
#: invocations — the heuristic of Section 3.3, and the one optimizer.
#: Order matters, because :func:`rewrite_fixpoint` fires the first rule
#: that applies: every σ push comes before merging, so a selection that
#: can move is not glued to one that cannot (say, one reading β's
#: outputs, or both join operands).
PUSHDOWN_RULES: tuple[RewriteRule, ...] = tuple(
    _RULE_INDEX[name]
    for name in (
        "selection_below_invocation",
        "selection_below_projection",
        "selection_below_assignment",
        "selection_below_join",
        "merge_selections",
        "cascade_projections",
    )
)


def rule_by_name(name: str) -> RewriteRule:
    """Look up a rule by its name."""
    try:
        return _RULE_INDEX[name]
    except KeyError:
        raise KeyError(
            f"unknown rewrite rule {name!r}; known: {sorted(_RULE_INDEX)}"
        ) from None


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def apply_rule(root: Operator, rule: RewriteRule) -> Operator | None:
    """Apply ``rule`` at the topmost applicable node of the tree.

    Returns the rewritten tree or None if the rule applies nowhere.
    """
    replacement = rule.apply(root)
    if replacement is not None:
        return replacement
    for position, child in enumerate(root.children):
        rewritten = apply_rule(child, rule)
        if rewritten is not None:
            children = list(root.children)
            children[position] = rewritten
            return root.with_children(children)
    return None


def apply_everywhere(root: Operator, rule: RewriteRule) -> list[Operator]:
    """Every tree obtained by applying ``rule`` at exactly one node."""
    results: list[Operator] = []
    replacement = rule.apply(root)
    if replacement is not None:
        results.append(replacement)
    for position, child in enumerate(root.children):
        for rewritten_child in apply_everywhere(child, rule):
            children = list(root.children)
            children[position] = rewritten_child
            results.append(root.with_children(children))
    return results


def rewrite_fixpoint(
    root: Operator | Query,
    rules: Sequence[RewriteRule] = PUSHDOWN_RULES,
    max_steps: int = 200,
    trace: RewriteTrace | None = None,
) -> Operator | Query:
    """Apply ``rules`` repeatedly until none fires (or ``max_steps``).

    Accepts and returns either a bare plan or a :class:`Query` (preserving
    its name).  The default rule set terminates: σ only moves down, and
    merging and cascading only shrink the tree.  Arbitrary rule sets are
    guarded by ``max_steps``.
    """
    if isinstance(root, Query):
        rewritten = rewrite_fixpoint(root.root, rules, max_steps, trace)
        assert isinstance(rewritten, Operator)
        return Query(rewritten, root.name)
    node = root
    for _ in range(max_steps):
        for rule in rules:
            rewritten = apply_rule(node, rule)
            if rewritten is not None:
                if trace is not None:
                    trace.record(rule)
                node = rewritten
                break
        else:
            return node
    return node
