"""Lowering: the operator table that maps logical Serena operators to
their incremental executors.

The optimizer rewrites *logical* trees (:mod:`repro.algebra`); once a
plan is chosen, :meth:`~repro.exec.shared.SharedPlanRegistry.acquire`
walks it once, in post-order, and builds each node's executor from
:data:`LOWERINGS` — leasing the shareable subtrees from the registry.
That walk is the only place executors are built: the shared engine runs
it, and ``.explain physical`` prints what it builds.

A window directly over a scan is lowered to a *leaf*: ``W`` requires a
stream operand, and a stream scan only ever names an infinite
XD-Relation, whose journal holds exactly the tuples ``W[n]`` is defined
over (§4.1–4.2).  The window reads that journal itself, so no scan
executor is built under it (:func:`operands`).
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
from repro.algebra.operators.scan import Scan
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
    "operands",
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
#: executors): the one operator table, read by the shared-plan
#: registry's walk.
LOWERINGS: dict[type, Callable[..., x.Executor]] = {
    Scan: x.ScanExec,
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


def operands(node: Operator) -> tuple[Operator, ...]:
    """The children whose executors feed ``node``'s executor: none for a
    window over a scan, which reads the stream's journal itself, and
    ``node.children`` otherwise."""
    if type(node) is Window and isinstance(node.children[0], Scan):
        return ()
    return node.children
