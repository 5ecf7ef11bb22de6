"""Compiled closures: the executors' per-row code, generated once.

Compile-at-lowering convention: anything evaluated per row per tick —
selection formulas, projection and assignment row gathers, join key
gathers, join output combiners — is specialized to a closure when its
executor is built, exactly once.  Ticking then runs those closures over
whole delta sides with no per-row interpretation: a selection formula
interpreted per row costs a dict build plus an AST walk; compiled, the
whole batch is one Python frame evaluating an inline expression over the
raw tuples.

The generated source binds constants (and any helper) through the eval
namespace (``_v1``, ``_v2``, …), never via ``repr``, so arbitrary values
survive — and so every formula of one *shape* generates the same source
text whatever its constants.  Source text → code object goes through
:func:`_code`, a bounded cache: registering the 160th ``σ(load > c)``
pays for a namespace dict and one ``eval`` of a cached code object, not
for a parse.  Each closure still owns its namespace, with
``__builtins__`` emptied because the expressions need none.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from repro.algebra.formula import (
    And,
    Comparison,
    Formula,
    Not,
    Or,
    TrueFormula,
)
from repro.model.xschema import ExtendedRelationSchema

__all__ = [
    "compile_combiner",
    "compile_filter",
    "compile_gather",
    "compile_key",
]


@lru_cache(maxsize=512)
def _code(source: str):
    """The code object of one generated lambda expression.

    Bounded at ``maxsize=512`` distinct source texts, evicted least
    recently used.  Only the *code* is cached, never a function: the
    key is source text whose constants are namespace names, so the cache
    holds no reference to any plan, schema or constant, and every caller
    evaluates the shared code against its own namespace."""
    return compile(source, "<serena-compiled>", "eval")


def _closure(source: str, namespace: dict) -> Callable:
    return eval(_code(source), namespace)  # noqa: S307 — source built here


def _bind(namespace: dict, value: object) -> str:
    name = f"_v{len(namespace)}"
    namespace[name] = value
    return name


def _emit(
    formula: Formula, schema: ExtendedRelationSchema, namespace: dict
) -> str:
    if isinstance(formula, TrueFormula):
        return "True"
    if isinstance(formula, Comparison):
        left = (
            f"t[{schema.real_position(formula.left)}]"
            if formula.left_is_attr
            else _bind(namespace, formula.left)
        )
        right = (
            f"t[{schema.real_position(formula.right)}]"
            if formula.right_is_attr
            else _bind(namespace, formula.right)
        )
        if formula.op == "contains":
            # Native ``in``: on the scalar attribute domain a non-string
            # operand raises TypeError, which callers replay through the
            # interpreter path — the ordering-comparison convention.
            return f"({right} in {left})"
        op = "==" if formula.op == "=" else formula.op
        return f"({left} {op} {right})"
    if isinstance(formula, And):
        return (
            f"({_emit(formula.left, schema, namespace)}"
            f" and {_emit(formula.right, schema, namespace)})"
        )
    if isinstance(formula, Or):
        return (
            f"({_emit(formula.left, schema, namespace)}"
            f" or {_emit(formula.right, schema, namespace)})"
        )
    if isinstance(formula, Not):
        return f"(not {_emit(formula.operand, schema, namespace)})"
    # Unknown formula subtype: interpret it (still one closure, merely
    # calling back into Formula.evaluate over an inline dict row).
    helper = _bind(namespace, formula.evaluate)
    row = ", ".join(
        f"{name!r}: t[{schema.real_position(name)}]"
        for name in sorted(formula.attributes())
    )
    return f"{helper}({{{row}}})"


def compile_filter(
    formula: Formula, schema: ExtendedRelationSchema
) -> tuple[Callable[[Iterable[tuple]], list], Callable[[tuple], bool]]:
    """Compile a selection formula against a schema, once.

    Returns ``(fast_batch, slow)``.  ``fast_batch(rows)`` is a single
    code-generated comprehension with the predicate expression inlined
    (Python's own short-circuit ``and``/``or``, identical to the
    interpreter's) — the batch pays no per-row function call at all, only
    the comparisons themselves.  But ordering a mixed-type pair, or
    ``contains`` on a non-string, raises a bare ``TypeError`` there where
    the interpreter raises :class:`~repro.errors.FormulaError`.  Callers
    therefore run ``fast_batch`` inside ``try`` and, on
    ``TypeError``/``FormulaError``, replay the batch row by row through
    ``slow`` — the interpreter path, which raises the canonical error."""
    namespace: dict = {"__builtins__": {}}
    expression = _emit(formula, schema, namespace)
    fast_batch = _closure(
        f"lambda rows: [t for t in rows if {expression}]", namespace
    )

    positions = {
        name: schema.real_position(name)
        for name in sorted(formula.attributes())
    }
    evaluate = formula.evaluate

    def slow(t: tuple) -> bool:
        return evaluate({name: t[p] for name, p in positions.items()})

    return fast_batch, slow


def compile_gather(
    positions: Sequence[int | None], constant: object = None
) -> Callable[[Iterable[tuple]], list]:
    """Compile a row gather ``rows → one output tuple per row``: output
    attribute *i* is the input row's ``positions[i]``, or ``constant``
    where the position is ``None``.  One generated comprehension with
    the positions inlined — projection keeps a subset of positions,
    assignment splices a copied position or the constant into the full
    range."""
    namespace: dict = {"__builtins__": {}}
    filler = _bind(namespace, constant) if None in positions else None
    parts = "".join(
        f"{filler}, " if p is None else f"t[{p}], " for p in positions
    )
    return _closure(f"lambda rows: [({parts}) for t in rows]", namespace)


def compile_key(positions: Sequence[int]) -> Callable[[Iterable[tuple]], list]:
    """Compile a join-key gather: ``rows → key per row``, one generated
    comprehension with the positions inlined.

    Single-attribute keys gather the bare value; composite keys build
    the key tuple inline.  The keys only ever index the join's own two
    hash indexes, so their shape (scalar vs tuple) is private to it."""
    if len(positions) == 1:
        source = f"lambda rows: [t[{positions[0]}] for t in rows]"
        return _closure(source, {"__builtins__": {}})
    return compile_gather(positions)


def compile_combiner(
    out_sources: Sequence[tuple[bool, int]],
) -> Callable[[tuple, tuple], tuple]:
    """Compile a join output builder ``(left row, right row) → out row``
    from the ``(from_left, position)`` source list."""
    parts = "".join(
        f"lt[{position}], " if from_left else f"rt[{position}], "
        for from_left, position in out_sources
    )
    return _closure(f"lambda lt, rt: ({parts})", {"__builtins__": {}})
