"""Serena conjunctive calculus: a Datalog-style front-end (Section 7).

The paper's future work includes "studying the equivalence of the Serena
algebra with some logic-based query languages in order to define a
corresponding calculus".  This module realizes the *conjunctive fragment*
of that calculus and its translation into the algebra::

    ans(s, t) :- sensors(s, 'office', t), t > 25.0;

A rule has a head ``ans(x1, …, xn)`` and a body of:

* **relational atoms** ``rel(term, …)`` — one term per attribute of the
  relation's *full* schema (virtual attributes included), each term a
  variable, a constant, or ``_`` (anonymous);
* **comparison atoms** ``x > 5``, ``x != y``, ``title contains 'war'`` —
  over variables and constants, read by SAL's comparison grammar
  (:func:`repro.lang.sal.read_comparison`).

Semantics, by translation to the algebra (each step is a Table 3
operator, so the calculus inherits the algebra's semantics exactly):

1. each relational atom compiles to a scan with constants filtered (σ)
   and attributes renamed to variable names (ρ);
2. a variable bound to a **virtual** attribute forces its *realization*:
   the translator inserts the invocation (β) of the binding pattern whose
   outputs cover it — this is how service calls enter the calculus: using
   a virtual position in a rule *is* asking for the invocation;
3. atoms are combined by natural join (⋈) — repeated variables across
   atoms become join predicates;
4. comparison atoms compile to selections (σ) over the join;
5. the head compiles to a projection (π) onto the head variables.

Safety (checked before translation): every head variable and every
variable in a comparison must occur in some relational atom
(range-restriction), and a virtual attribute can only be realized if its
binding pattern's *input* attributes are bound in the same atom.

Active binding patterns are rejected: a logic rule has no evaluation
order, so the action set of an active invocation would be
implementation-defined — the calculus covers the passive (side-effect
free) fragment, which is also the fragment where algebraic equivalence is
meaningful without action sets (Definition 9 degenerates to result
equality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.formula import Comparison
from repro.algebra.operators.base import Operator
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.query import Query
from repro.errors import ParseError
from repro.lang.lexer import TokenStream, tokenize
from repro.lang.sal import read_comparison
from repro.model.environment import PervasiveEnvironment

__all__ = ["parse_rule", "compile_rule", "ConjunctiveRule"]


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A term of a relational atom: variable, constant or anonymous."""

    kind: str  # "var" | "const" | "any"
    value: object = None


@dataclass(frozen=True)
class RelationAtom:
    relation: str
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class ConjunctiveRule:
    """``head(vars) :- atoms, comparisons;``"""

    head_name: str
    head_vars: tuple[str, ...]
    atoms: tuple[RelationAtom, ...]
    comparisons: tuple[Comparison, ...]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def parse_rule(text: str) -> ConjunctiveRule:
    """Parse ``head(x, y) :- atom, …, comparison, …;`` (the ``;`` is optional)."""
    stream = TokenStream(tokenize(text))
    head_name = stream.expect_ident().value
    head_vars = stream.identifiers(parenthesized=True)
    stream.expect_punct(":")
    stream.expect_punct("-")
    atoms: list[RelationAtom] = []
    comparisons: list[Comparison] = []
    while True:
        item = _parse_body_item(stream)
        if isinstance(item, RelationAtom):
            atoms.append(item)
        else:
            comparisons.append(item)
        if not stream.accept_punct(","):
            break
    stream.accept_punct(";")
    if not stream.at_end():
        raise stream.error("unexpected trailing input")
    if not atoms:
        raise ParseError("a rule needs at least one relational atom")
    return ConjunctiveRule(
        head_name, tuple(head_vars), tuple(atoms), tuple(comparisons)
    )


def _parse_body_item(stream: TokenStream) -> RelationAtom | Comparison:
    # relational atom: ident '(' ... ')'; comparison: operand op operand
    if stream.current.kind == "ident" and stream.peek().is_punct("("):
        name = stream.expect_ident().value
        stream.expect_punct("(")
        terms: list[Term] = []
        if not stream.current.is_punct(")"):
            while True:
                terms.append(_parse_term(stream))
                if not stream.accept_punct(","):
                    break
        stream.expect_punct(")")
        return RelationAtom(name, tuple(terms))
    start = stream.current
    comparison = read_comparison(stream)
    if "_" in comparison.attributes():
        raise ParseError("'_' cannot appear in comparisons", start.line, start.column)
    return comparison


def _parse_term(stream: TokenStream) -> Term:
    token = stream.current
    if token.is_name():
        stream.advance()
        return Term("any") if token.value == "_" else Term("var", token.value)
    return Term("const", stream.literal("a variable, constant or '_'"))


# ---------------------------------------------------------------------------
# Translation to the algebra
# ---------------------------------------------------------------------------


def compile_rule(
    text_or_rule: str | ConjunctiveRule,
    environment: PervasiveEnvironment,
) -> Query:
    """Compile a conjunctive rule into an algebra :class:`Query`."""
    rule = (
        parse_rule(text_or_rule)
        if isinstance(text_or_rule, str)
        else text_or_rule
    )
    _check_safety(rule)

    plan: Operator | None = None
    for index, atom in enumerate(rule.atoms):
        node = _compile_atom(atom, index, rule, environment)
        plan = node if plan is None else NaturalJoin(plan, node)
    assert plan is not None

    for comparison in rule.comparisons:
        plan = Selection(plan, comparison)

    return Query(Projection(plan, rule.head_vars), rule.head_name)


def _check_safety(rule: ConjunctiveRule) -> None:
    bound = {
        term.value
        for atom in rule.atoms
        for term in atom.terms
        if term.kind == "var"
    }
    for variable in rule.head_vars:
        if variable not in bound:
            raise ParseError(
                f"unsafe rule: head variable {variable!r} does not occur "
                "in any relational atom"
            )
    seen = set()
    for variable in rule.head_vars:
        if variable in seen:
            raise ParseError(
                f"head variable {variable!r} repeated; project once"
            )
        seen.add(variable)
    for comparison in rule.comparisons:
        unbound = comparison.attributes() - bound
        if unbound:
            raise ParseError(
                f"unsafe rule: comparison variable {min(unbound)!r} does "
                "not occur in any relational atom"
            )


def _compile_atom(
    atom: RelationAtom,
    index: int,
    rule: ConjunctiveRule,
    environment: PervasiveEnvironment,
) -> Operator:
    """scan → (β for used virtual positions) → σ constants → ρ to vars →
    π used positions."""
    schema = environment.schema(atom.relation).with_name(atom.relation)
    if environment.is_stream(atom.relation):
        raise ParseError(
            f"atom {atom.relation!r}: streams cannot appear in rules "
            "(window them into a finite relation first)"
        )
    names = schema.names
    if len(atom.terms) != len(names):
        raise ParseError(
            f"atom {atom.relation!r} has {len(atom.terms)} terms but the "
            f"schema has {len(names)} attributes {names}"
        )

    node: Operator = Scan(atom.relation, schema)

    # Which attribute positions does the rule actually use?
    used: dict[str, Term] = {}
    for name, term in zip(names, atom.terms):
        if term.kind != "any":
            used[name] = term

    # Realize used virtual attributes by invoking their binding patterns.
    # Needs close transitively: a pattern whose output we need may itself
    # take virtual inputs (e.g. takePhoto needs the quality that
    # checkPhoto realizes), so those inputs become needed too.
    needed = {name for name in used if name in schema.virtual_names}
    changed = True
    while changed:
        changed = False
        for bp in schema.binding_patterns:
            if bp.output_names & needed:
                for input_name in bp.input_names:
                    if input_name in schema.virtual_names and input_name not in needed:
                        needed.add(input_name)
                        changed = True
    needed_virtual = sorted(needed)
    while needed_virtual:
        progressed = False
        for bp in node.schema.binding_patterns:
            covered = set(needed_virtual) & bp.output_names
            if not covered:
                continue
            if bp.active:
                raise ParseError(
                    f"atom {atom.relation!r}: virtual attribute(s) "
                    f"{sorted(covered)} belong to the ACTIVE pattern "
                    f"{bp.prototype.name!r}; the calculus covers the "
                    "passive fragment only"
                )
            if not bp.input_names <= node.schema.real_names:
                continue  # inputs not realizable here
            node = Invocation(node, bp)
            needed_virtual = [
                name for name in needed_virtual if name not in bp.output_names
            ]
            progressed = True
            break
        if not progressed:
            raise ParseError(
                f"atom {atom.relation!r}: cannot realize virtual "
                f"attribute(s) {sorted(needed_virtual)} — no passive "
                "binding pattern with bound inputs covers them"
            )

    # Constants become selections.
    for name, term in used.items():
        if term.kind == "const":
            node = Selection(
                node, Comparison(name, "=", term.value, True, False)
            )

    # Variables become renamings (attribute → variable name); a variable
    # repeated inside ONE atom is expressed by an extra selection first.
    renames: list[tuple[str, str]] = []
    variable_first: dict[str, str] = {}
    for name, term in used.items():
        if term.kind != "var":
            continue
        variable = str(term.value)
        if variable in variable_first:
            node = Selection(
                node,
                Comparison(variable_first[variable], "=", name, True, True),
            )
        else:
            variable_first[variable] = name
            renames.append((name, variable))

    # Project onto the used variable positions, then rename to variables —
    # in two phases via temporaries, since a target variable name may
    # collide with an attribute that is itself about to be renamed
    # (e.g. rule variables swapping two attribute names).
    keep = [name for name, _ in renames]
    if not keep:
        raise ParseError(
            f"atom {atom.relation!r} binds no variables; use at least one"
        )
    node = Projection(node, keep)
    temporaries: list[tuple[str, str]] = []
    for position, (name, variable) in enumerate(renames):
        if name == variable:
            temporaries.append((name, variable))
            continue
        temp = f"__v{index}_{position}"
        node = Renaming(node, name, temp)
        temporaries.append((temp, variable))
    for temp, variable in temporaries:
        if temp != variable:
            node = Renaming(node, temp, variable)
    return node
