"""Lowering: logical Serena plans → physical executor trees.

The lowering pass is the seam between the two layers: the optimizer
rewrites *logical* trees (:mod:`repro.algebra`), and once a plan is
chosen, :func:`lower` translates each logical node into its incremental
executor (:mod:`repro.exec.executors`).

Lowering is *total*: a logical operator with no registered executor is
wrapped in a :class:`~repro.exec.executors.FallbackExec`, which evaluates
that whole subtree with the naive engine each tick and diffs the results
— new logical operators keep working on the physical engine, merely
without the delta speedup.  :func:`supported_operator` reports whether a
node has a native incremental executor, which the cost model uses to
decide whether a plan's steady-state tick cost scales with deltas or with
cardinalities.

Node sharing is preserved: a logical node reachable through several plan
branches is lowered to a *single* executor (memoized by ``Operator.uid``),
mirroring the naive engine's per-node evaluation memo.

Backends
--------
Two physical backends share this pass.  ``backend="row"`` (the default)
lowers every node to the tuple-at-a-time executors; ``backend="columnar"``
swaps the hot relational core — scan, σ, π, ρ, α, ⋈ — for the
batch-evaluating executors of :mod:`repro.exec.vectorized`, which move
:class:`~repro.exec.columnar.ColumnarDelta` batches instead of tuple
sets.  All remaining operators (set ops, γ, β, β∞, S[type], W[period],
fallback) lower to their row executors under either backend — the delta
contract is backend-neutral, so the two kinds compose freely in one tree.

Compile-at-lowering convention: anything evaluated per row per tick —
selection formulas, join key gathers, join output combiners — is
specialized to a closure *here*, exactly once, when the executor is
built.  The columnar executors then run those closures over batches with
no per-row interpretation (no dict rows, no formula-AST walks).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.algebra.formula import (
    And,
    Comparison,
    Formula,
    Not,
    Or,
    TrueFormula,
)
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import Aggregate
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import BaseRelation, Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.setops import Difference, Intersection, Union
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming
from repro.algebra.operators.window import Window
from repro.errors import SerenaError
from repro.exec import executors as x
from repro.model.xschema import ExtendedRelationSchema

__all__ = [
    "BACKENDS",
    "COLUMNAR_ACCELERATED",
    "ENGINES",
    "check_engine",
    "columnar_operator",
    "compile_combiner",
    "compile_key",
    "compile_predicate",
    "lower",
    "lowering_summary",
    "lowerings_for",
    "supported_operator",
]

#: The execution engines of a continuous query: ``"naive"`` re-evaluates
#: the logical plan each instant (the paper's semantics, kept as the
#: oracle); ``"shared"`` runs the lowered physical plan.  Every ``engine=``
#: parameter in the code base validates against this one tuple.
ENGINES = ("naive", "shared")

#: The physical executor backends the lowering pass can target.
BACKENDS = ("row", "columnar")


def check_engine(engine: str, accepted: tuple[str, ...] = ENGINES) -> None:
    """Raise a :class:`SerenaError` naming the accepted values unless
    ``engine`` is one of them."""
    if engine not in accepted:
        raise SerenaError(
            f"unknown execution engine {engine!r} (expected one of "
            f"{', '.join(accepted)})"
        )


# Logical operator class → executor factory taking (node, *child executors).
_LOWERINGS: dict[type, Callable[..., x.Executor]] = {
    Scan: lambda node: x.ScanExec(node),
    BaseRelation: lambda node: x.BaseRelationExec(node),
    Selection: x.SelectionExec,
    Projection: x.ProjectionExec,
    Renaming: x.RenamingExec,
    Assignment: x.AssignmentExec,
    NaturalJoin: x.JoinExec,
    Union: x.UnionExec,
    Intersection: x.IntersectionExec,
    Difference: x.DifferenceExec,
    Aggregate: x.AggregateExec,
    Invocation: x.InvocationExec,
    StreamingInvocation: x.StreamingInvocationExec,
    Streaming: x.StreamingExec,
    Window: x.WindowExec,
}

#: Logical operators with a native *columnar* executor; everything else
#: runs its row executor under either backend.  The cost model scales
#: these nodes' per-delta-tuple cost down under backend="columnar".
COLUMNAR_ACCELERATED = frozenset(
    {Scan, Selection, Projection, Renaming, Assignment, NaturalJoin}
)

_BACKEND_LOWERINGS: dict[str, dict[type, Callable[..., x.Executor]]] = {
    "row": _LOWERINGS
}


def _columnar_lowerings() -> dict[type, Callable[..., x.Executor]]:
    # Imported lazily: vectorized.py uses the compile_* helpers below, so
    # a module-level import here would be circular.
    from repro.exec import vectorized as v

    merged = dict(_LOWERINGS)
    merged.update(
        {
            Scan: lambda node: v.ColumnarScanExec(node),
            Selection: v.ColumnarSelectionExec,
            Projection: v.ColumnarProjectionExec,
            Renaming: v.ColumnarRenamingExec,
            Assignment: v.ColumnarAssignmentExec,
            NaturalJoin: v.ColumnarJoinExec,
        }
    )
    return merged


def lowerings_for(backend: str) -> dict[type, Callable[..., x.Executor]]:
    """The operator → executor-factory table of ``backend``."""
    table = _BACKEND_LOWERINGS.get(backend)
    if table is None:
        if backend not in BACKENDS:
            raise SerenaError(
                f"unknown executor backend {backend!r}: choose from "
                f"{', '.join(BACKENDS)}"
            )
        table = _columnar_lowerings()
        _BACKEND_LOWERINGS[backend] = table
    return table


def supported_operator(node: Operator) -> bool:
    """True iff ``node`` (this node alone, not its subtree) has a native
    incremental executor.  Backend-independent: both backends cover the
    same operator set."""
    return type(node) in _LOWERINGS


def columnar_operator(node: Operator) -> bool:
    """True iff ``node`` has a native columnar (batch) executor."""
    return type(node) in COLUMNAR_ACCELERATED


def lower(
    node: Operator,
    memo: dict[int, x.Executor] | None = None,
    backend: str = "row",
) -> x.Executor:
    """Translate a logical plan into its physical executor tree.

    ``memo`` maps ``Operator.uid`` to the already-built executor so shared
    subplans advance once per instant, exactly like the logical
    evaluation memo.  ``backend`` selects the executor table (see
    :data:`BACKENDS`); one tree never mixes tables, so the memo is safe to
    share only across same-backend lowerings.
    """
    table = lowerings_for(backend)
    if memo is None:
        memo = {}
    return _lower(node, memo, table)


def _lower(
    node: Operator,
    memo: dict[int, x.Executor],
    table: Mapping[type, Callable[..., x.Executor]],
) -> x.Executor:
    built = memo.get(node.uid)
    if built is not None:
        return built
    factory = table.get(type(node))
    if factory is None:
        executor = x.FallbackExec(node)
    else:
        children = [_lower(child, memo, table) for child in node.children]
        executor = factory(node, *children)
    memo[node.uid] = executor
    return executor


def lowering_summary(node: Operator) -> dict[str, int]:
    """How much of a plan lowers natively: counts of ``native`` vs
    ``fallback`` nodes (a fallback node subsumes its whole subtree)."""
    native = fallback = 0
    stack = [node]
    while stack:
        current = stack.pop()
        if supported_operator(current):
            native += 1
            stack.extend(current.children)
        else:
            fallback += 1
    return {"native": native, "fallback": fallback}


# ---------------------------------------------------------------------------
# Compiled closures (the columnar backend's per-row code)
# ---------------------------------------------------------------------------
#
# A selection formula interpreted per row costs a dict build plus an AST
# walk; compiled, it is one Python frame evaluating an inline expression
# over the raw tuple.  The generated source binds constants (and any
# helper) through the eval namespace, never via repr, so arbitrary values
# survive; ``__builtins__`` is emptied because the expression needs none.


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


def compile_predicate(
    formula: Formula, schema: ExtendedRelationSchema
) -> tuple[Callable[[tuple], bool], Callable[[tuple], bool]]:
    """Compile a selection formula against a schema, once.

    Returns ``(fast, slow)``.  ``fast`` is the code-generated tuple
    predicate: inline comparisons with Python's own short-circuit
    ``and``/``or`` (identical to the interpreter's), but ordering a
    mixed-type pair raises a bare ``TypeError`` where the interpreter
    raises :class:`~repro.errors.FormulaError`.  Callers therefore run
    ``fast`` over a whole batch inside ``try`` and, on
    ``TypeError``/``FormulaError``, replay the batch through ``slow`` —
    the interpreter path, which raises the canonical error."""
    namespace: dict = {"__builtins__": {}}
    source = f"lambda t: {_emit(formula, schema, namespace)}"
    fast = eval(source, namespace)  # noqa: S307 — source built above

    positions = {
        name: schema.real_position(name)
        for name in sorted(formula.attributes())
    }
    evaluate = formula.evaluate

    def slow(t: tuple) -> bool:
        return evaluate({name: t[p] for name, p in positions.items()})

    return fast, slow


def compile_filter(
    formula: Formula, schema: ExtendedRelationSchema
) -> tuple[Callable[[Iterable], list], Callable[[tuple], bool]]:
    """Compile a whole-batch filter against a schema, once.

    Returns ``(fast_batch, slow)``.  ``fast_batch(rows)`` is a single
    code-generated comprehension with the predicate expression inlined —
    the batch pays no per-row function call at all, only the comparisons
    themselves.  Error semantics are those of :func:`compile_predicate`:
    on ``TypeError``/``FormulaError`` the caller replays the batch
    row-by-row through ``slow``, the interpreter path, so the canonical
    :class:`~repro.errors.FormulaError` surfaces."""
    namespace: dict = {"__builtins__": {}}
    expression = _emit(formula, schema, namespace)
    source = f"lambda rows: [t for t in rows if {expression}]"
    fast_batch = eval(source, namespace)  # noqa: S307 — source built above
    _, slow = compile_predicate(formula, schema)
    return fast_batch, slow


def compile_key(
    positions: Sequence[int],
) -> Callable[[Sequence[tuple]], list]:
    """Compile a join-key gather: ``rows → key per row``, one generated
    comprehension with the positions inlined (no per-row function call,
    and no need to transpose the non-key attributes at all).

    Single-attribute keys gather the bare value; composite keys build
    the key tuple inline.  The returned values are only ever interned
    into a :class:`~repro.exec.columnar.ValuePool`, so their shape
    (scalar vs tuple) is private to the join."""
    if not positions:
        source = "lambda rows: [()] * len(rows)"
    elif len(positions) == 1:
        source = f"lambda rows: [t[{positions[0]}] for t in rows]"
    else:
        parts = ", ".join(f"t[{p}]" for p in positions)
        source = f"lambda rows: [({parts}) for t in rows]"
    return eval(source, {"__builtins__": {"len": len}})  # noqa: S307


def compile_combiner(
    out_sources: Sequence[tuple[bool, int]],
) -> Callable[[tuple, tuple], tuple]:
    """Compile a join output builder ``(left row, right row) → out row``
    from the ``(from_left, position)`` source list."""
    parts = ", ".join(
        f"lt[{position}]" if from_left else f"rt[{position}]"
        for from_left, position in out_sources
    )
    if len(out_sources) == 1:
        parts += ","
    source = f"lambda lt, rt: ({parts})"
    return eval(source, {"__builtins__": {}})  # noqa: S307 — source built above
