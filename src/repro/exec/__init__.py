"""Physical execution layer for the Serena algebra.

The logical algebra (:mod:`repro.algebra`) defines *what* a plan means —
schema derivation, rewriting, equivalence.  This package defines *how* a
registered continuous query runs: a logical operator tree is lowered
(:mod:`repro.exec.lowering`) into a tree of incremental executors
(:mod:`repro.exec.executors`) that consume ``(inserted, deleted)`` delta
sets from their children and maintain per-node state (hash indexes,
support counts, invocation caches, window buffers), so steady-state tick
cost is proportional to the *changes* in the environment rather than to
relation sizes.  There is one physical engine:
:class:`~repro.exec.shared.SharedEngine` drives the executor tree instant
by instant and produces the same per-tick
:class:`~repro.algebra.query.QueryResult` as the naive re-evaluating
engine, which is kept as a differential-testing oracle
(:data:`~repro.exec.lowering.ENGINES` names the two).

The engine leases its plan from a
:class:`~repro.exec.shared.SharedPlanRegistry`: structurally equivalent
subplans of different registered queries run on the same executor
instances (refcounted) — a standalone query simply gets a private
registry — and :mod:`repro.exec.scheduler` skips queries whose sources
provably did not change since their last tick.
"""

from repro.exec.delta import EMPTY_DELTA, Delta
from repro.exec.executors import Executor
from repro.exec.lowering import lower, lowering_summary, supported_operator
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedEngine, SharedPlan, SharedPlanRegistry

__all__ = [
    "Delta",
    "EMPTY_DELTA",
    "Executor",
    "SharedEngine",
    "SharedPlan",
    "SharedPlanRegistry",
    "TickScheduler",
    "lower",
    "lowering_summary",
    "supported_operator",
]
