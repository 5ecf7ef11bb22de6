"""Serena algebra operators (Table 3 + Section 4.2 + extensions)."""

from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.extensions import (
    Aggregate,
    AggregateFunction,
    AggregateSpec,
)
from repro.algebra.operators.invocation import Invocation
from repro.algebra.operators.join import NaturalJoin
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.algebra.operators.setops import Difference, Intersection, Union
from repro.algebra.operators.stream_invocation import StreamingInvocation
from repro.algebra.operators.streaming import Streaming, StreamType
from repro.algebra.operators.window import Window

__all__ = [
    "Aggregate",
    "AggregateFunction",
    "AggregateSpec",
    "Assignment",
    "Difference",
    "Intersection",
    "Invocation",
    "NaturalJoin",
    "Operator",
    "Projection",
    "Renaming",
    "Scan",
    "Selection",
    "Streaming",
    "StreamingInvocation",
    "StreamType",
    "Union",
    "Window",
]
