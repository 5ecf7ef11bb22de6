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
"""

from __future__ import annotations

from typing import Callable

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

__all__ = [
    "ENGINES",
    "LOWERINGS",
    "check_engine",
    "lower",
    "lowering_summary",
    "supported_operator",
]

#: The execution engines of a continuous query: ``"naive"`` re-evaluates
#: the logical plan each instant (the paper's semantics, kept as the
#: oracle); ``"shared"`` runs the lowered physical plan.  Every ``engine=``
#: parameter in the code base validates against this one tuple.
ENGINES = ("naive", "shared")


def check_engine(engine: str) -> None:
    """Raise a :class:`SerenaError` naming :data:`ENGINES` unless
    ``engine`` is one of them."""
    if engine not in ENGINES:
        raise SerenaError(
            f"unknown execution engine {engine!r} (expected one of "
            f"{', '.join(ENGINES)})"
        )


#: Logical operator class → executor factory taking (node, *child
#: executors): the one operator table, read by :func:`lower` and by the
#: shared-plan registry.
LOWERINGS: dict[type, Callable[..., x.Executor]] = {
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

def supported_operator(node: Operator) -> bool:
    """True iff ``node`` (this node alone, not its subtree) has a native
    incremental executor."""
    return type(node) in LOWERINGS


def lower(
    node: Operator, memo: dict[int, x.Executor] | None = None
) -> x.Executor:
    """Translate a logical plan into its physical executor tree.

    ``memo`` maps ``Operator.uid`` to the already-built executor so shared
    subplans advance once per instant, exactly like the logical
    evaluation memo.
    """
    if memo is None:
        memo = {}
    built = memo.get(node.uid)
    if built is not None:
        return built
    factory = LOWERINGS.get(type(node))
    if factory is None:
        executor = x.FallbackExec(node)
    else:
        executor = factory(node, *(lower(child, memo) for child in node.children))
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

