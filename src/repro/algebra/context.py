"""Evaluation context for Serena algebra plans.

A context binds a plan evaluation to a relational pervasive environment and
a time instant (Section 3.2: query evaluation occurs at a given instant;
all service invocations in a query occur, formally, simultaneously).

The context also carries:

* the collected :class:`~repro.algebra.actions.Action` objects (Definition 8),
* a per-node state store used by the continuous extension (Section 4.2):
  invocation caches ("a binding pattern is actually invoked only for newly
  inserted tuples") and window/streaming buffers.  One-shot evaluation uses
  a fresh store, which degenerates to the pure Table 3 semantics.

The physical engine (:mod:`repro.exec`) keeps its state in its executors
and reads XD-Relation journals from the environment: it puts no cache here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.algebra.actions import Action, ActionSet
from repro.model.environment import PervasiveEnvironment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.operators.base import Operator

__all__ = ["EvaluationContext"]


class EvaluationContext:
    """Mutable evaluation state threaded through a plan evaluation."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        instant: int = 0,
        states: dict[int, dict[str, Any]] | None = None,
        continuous: bool = False,
    ):
        self.environment = environment
        self.instant = instant
        self.actions: list[Action] = []
        # True under a ContinuousQuery: per-node state persists across
        # instants, so operators with time-dependent behaviour (deferred
        # invocations) may spread their work over several instants.
        # One-shot evaluation is instantaneous by definition (Section 3.2),
        # so those operators degrade to synchronous behaviour.
        self.continuous = continuous
        # Node-id → state dict.  Supplied by ContinuousQuery to persist
        # across instants; one-shot evaluation leaves it None and gets a
        # fresh, throw-away store.
        self._states: dict[int, dict[str, Any]] = states if states is not None else {}

    def state(self, node: "Operator") -> dict[str, Any]:
        """Per-node mutable state (empty dict on first access)."""
        return self._states.setdefault(node.uid, {})

    def record_action(self, action: Action) -> None:
        self.actions.append(action)

    @property
    def action_set(self) -> ActionSet:
        """The action set collected so far (duplicates collapse, Def. 8)."""
        return ActionSet(self.actions)

    def at_instant(self, instant: int) -> "EvaluationContext":
        """A context for another instant sharing the same state store.

        Used by the continuous engine to advance time while keeping
        invocation caches and window buffers.  Collected actions are *not*
        shared: each instant has its own action list.
        """
        return EvaluationContext(
            self.environment, instant, self._states, self.continuous
        )
