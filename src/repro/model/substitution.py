"""Semantic service substitution over prototypes.

When a bound service dies permanently (quarantine that never lifts, or a
lease that never renews), the environment — not the user — heals the
binding ("Semantic Service Substitution in Pervasive Environments",
Ibrahim, Le Mouël, Frénot; see PAPERS.md).  This module is the model-layer
half of that machinery: a declarative *substitution relation* over
prototypes plus the bookkeeping the registry and the core ERM consult when
they reroute invocations.

One rule relates a prototype ``psi`` to a substitute: the substitute
offers a prototype ``via`` whose typed output attributes include
``psi``'s, whose typed input attributes are among ``psi``'s and which is
active exactly when ``psi`` is.  The
invocation is narrowed to ``via``'s inputs and its results are projected
down to ``psi``'s output order.  An identical-interface substitute is
written ``via=psi``, whose projection is the identity.  Composing
functionalities needs no rule of its own: a chain of β over accumulated
attributes is already a Serena plan.

Determinism (Section 3.2 convention): rules are resolved and ranked only
inside the core ERM's tick sweep, from health stamps that are strictly
earlier than the instant being evaluated, and ranking ties break on the
substitute reference ordering — so every engine sees the same binding
table for a given instant regardless of evaluation order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.model.invocation_policy import HealthState
from repro.model.prototypes import Prototype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (services imports us)
    from repro.model.services import ServiceRegistry

__all__ = [
    "SubstitutionRule",
    "MAX_CHAIN",
    "REBIND_HISTORY_SIZE",
    "ResolvedBinding",
    "Rebind",
    "SubstitutionState",
]

#: Maximum substitution depth when bindings route through services that
#: are themselves substituted: the cycle guard of last resort (the ERM
#: refuses to install a cyclic binding up front).
MAX_CHAIN = 4

#: Rebinds kept in :attr:`SubstitutionState.history`, newest last (the
#: ``.substitutions`` surface); older ones are dropped.
REBIND_HISTORY_SIZE = 256


@dataclass(frozen=True)
class SubstitutionRule:
    """One declared edge of the substitution relation: ``substitute``
    serves ``prototype`` through its prototype named ``via``.

    ``reference`` restricts the rule to one failing service (``None`` =
    any provider of the prototype).  The rule resolves only while
    ``substitute`` offers a ``via`` whose typed attributes cover
    ``prototype``'s (:meth:`SubstitutionState.resolve`).
    """

    prototype: str
    substitute: str
    via: str
    reference: str | None = None

    def describe(self) -> str:
        scope = self.reference or "*"
        return (
            f"{self.prototype}[{scope}] specializes {self.substitute}/{self.via}"
        )


@dataclass(frozen=True)
class ResolvedBinding:
    """An executable substitution plan for one ``(prototype, reference)``:
    invoke ``via`` on ``target`` with the inputs narrowed to ``via``'s,
    and keep the columns at ``projection`` — the positions of
    ``prototype``'s outputs inside ``via``'s (the identity when ``via`` is
    ``prototype``).
    """

    rule: SubstitutionRule
    prototype: Prototype
    reference: str
    via: Prototype
    target: str
    projection: tuple[int, ...]

    def describe(self) -> str:
        return f"specializes {self.target}/{self.via.name}"


@dataclass(frozen=True)
class Rebind:
    """One entry of the rebind history (surfaced by ``.substitutions``)."""

    instant: int
    prototype: str
    reference: str
    target: str
    reason: str
    epoch: int

    def describe(self) -> str:
        return (
            f"@{self.instant} {self.prototype}[{self.reference}] "
            f"{self.target} ({self.reason})"
        )


class SubstitutionState:
    """Registry-side substitution bookkeeping.

    The state machine has two tables, both only ever mutated by the core
    ERM's tick sweep (so they are frozen for the duration of an instant):

    * ``bindings`` — durable ("sticky") reroutes installed after the sweep
      observed a quarantine or lease expiry; consulted by
      :meth:`ServiceRegistry.invoke` *before* the quarantine gate, so the
      dead device is never contacted again while bound.  A binding holds
      until its substitute itself fails: an original re-admitted on
      probation does not reclaim it.
    * ``failover`` — per-tick pre-scored candidate plans for every
      substitutable ``(prototype, reference)``; consulted on the failure
      path of :meth:`ServiceRegistry.invoke`, which is what serves the
      crash instant itself with zero missed ticks.

    Every install/drop bumps a global monotone ``epoch`` and stamps the
    rebound reference; invocation executors cache results per operand
    tuple, so they call :meth:`rebound_since` each tick and emit
    delete-of-old-rows / insert-of-new-rows for rebound references —
    the rebind-instant delta protocol that keeps all engines
    tuple-identical.
    """

    def __init__(self):
        self._rules: list[SubstitutionRule] = []
        self.bindings: dict[tuple[str, str], ResolvedBinding] = {}
        self.failover: dict[tuple[str, str], tuple[ResolvedBinding, ...]] = {}
        self.epoch = 0
        # prototype name -> reference -> epoch of its latest rebind (install
        # or drop: both change what an invocation of that pair returns).
        self._rebound: dict[str, dict[str, int]] = {}
        self.history: deque[Rebind] = deque(maxlen=REBIND_HISTORY_SIZE)

    # -- declaration ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True once any rule is declared; all hot paths gate on this so a
        substitution-free environment pays a single attribute read."""
        return bool(self._rules)

    def declare(self, rule: SubstitutionRule) -> None:
        """Add a rule to the substitution relation (idempotent)."""
        if rule not in self._rules:
            self._rules.append(rule)

    @property
    def rules(self) -> tuple[SubstitutionRule, ...]:
        return tuple(self._rules)

    def rules_for(
        self, prototype_name: str, reference: str
    ) -> list[SubstitutionRule]:
        """Rules applicable to ``reference`` failing as a provider of
        ``prototype_name`` (specific-reference rules first, then
        wildcards, declaration order preserved within each group)."""
        specific = [
            r
            for r in self._rules
            if r.prototype == prototype_name and r.reference == reference
        ]
        wildcard = [
            r
            for r in self._rules
            if r.prototype == prototype_name and r.reference is None
        ]
        return specific + wildcard

    @property
    def prototype_names(self) -> frozenset[str]:
        """Prototypes covered by at least one rule."""
        return frozenset(rule.prototype for rule in self._rules)

    # -- binding table -------------------------------------------------------

    def binding(self, prototype_name: str, reference: str) -> ResolvedBinding | None:
        return self.bindings.get((prototype_name, reference))

    def bound_references(self) -> frozenset[str]:
        """References with at least one active binding (these stay
        registered and never park while bound)."""
        return frozenset(reference for _, reference in self.bindings)

    def bound_keys_for(self, reference: str) -> list[tuple[str, str]]:
        return sorted(key for key in self.bindings if key[1] == reference)

    def install(
        self, plan: ResolvedBinding, instant: int, reason: str
    ) -> Rebind:
        key = (plan.prototype.name, plan.reference)
        self.bindings[key] = plan
        return self._stamp(key, instant, plan.describe(), reason)

    def drop(
        self, prototype_name: str, reference: str, instant: int, reason: str
    ) -> Rebind | None:
        plan = self.bindings.pop((prototype_name, reference), None)
        if plan is None:
            return None
        return self._stamp(
            (prototype_name, reference), instant, "released", reason
        )

    def _stamp(
        self, key: tuple[str, str], instant: int, target: str, reason: str
    ) -> Rebind:
        self.epoch += 1
        prototype_name, reference = key
        self._rebound.setdefault(prototype_name, {})[reference] = self.epoch
        record = Rebind(instant, prototype_name, reference, target, reason, self.epoch)
        self.history.append(record)
        return record

    def rebound_since(self, prototype_name: str, epoch: int) -> frozenset[str]:
        """References of ``prototype_name`` rebound (bound *or* released)
        after ``epoch`` — the executor-side cache invalidation set."""
        stamps = self._rebound.get(prototype_name)
        if not stamps:
            return frozenset()
        return frozenset(
            reference for reference, at in stamps.items() if at > epoch
        )

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, registry: "ServiceRegistry", prototype: Prototype, reference: str
    ) -> list[ResolvedBinding]:
        """Resolve every applicable rule into an executable plan against
        the *current* registry contents; unresolvable rules (substitute
        not registered, no ``via`` whose typed attributes cover
        ``prototype``'s) are silently skipped — they may resolve at a
        later sweep."""
        plans: list[ResolvedBinding] = []
        for rule in self.rules_for(prototype.name, reference):
            plan = self._resolve_rule(registry, rule, prototype, reference)
            if plan is not None:
                plans.append(plan)
        return plans

    def _resolve_rule(
        self,
        registry: "ServiceRegistry",
        rule: SubstitutionRule,
        prototype: Prototype,
        reference: str,
    ) -> ResolvedBinding | None:
        target = rule.substitute
        if target == reference or target not in registry:
            return None
        via = next(
            (p for p in registry.get(target).prototypes if p.name == rule.via),
            None,
        )
        if via is None:
            return None
        # Typed attributes, not names: a same-named attribute of another
        # type would hand ``prototype``'s callers wrongly typed rows.  An
        # active ``via`` under a passive ``prototype`` (or the reverse)
        # would add or drop a side effect the action set does not record.
        if not (
            via.active == prototype.active
            and set(prototype.output_schema.attributes)
            <= set(via.output_schema.attributes)
            and set(via.input_schema.attributes)
            <= set(prototype.input_schema.attributes)
        ):
            return None
        projection = tuple(
            via.output_schema.position(name)
            for name in prototype.output_schema.names
        )
        return ResolvedBinding(rule, prototype, reference, via, target, projection)

    # -- ranking -------------------------------------------------------------

    def rank(
        self, registry: "ServiceRegistry", plans: Iterable[ResolvedBinding]
    ) -> list[ResolvedBinding]:
        """Order candidate plans best-first.

        The score is a lexicographic tuple per plan: the target's
        health-state rank (UP before SUSPECT; QUARANTINED targets are
        excluded outright), its observed failure-rate decile from the
        health totals, and finally the target reference — the
        deterministic tie-break required by the §3.2 convention.  Nothing
        wall-clock enters the score, so every engine and every run ranks
        alike.
        """
        scored: list[tuple[tuple, ResolvedBinding]] = []
        for plan in plans:
            score = self._score(registry, plan)
            if score is not None:
                scored.append((score, plan))
        scored.sort(key=lambda pair: pair[0])
        return [plan for _, plan in scored]

    def _score(
        self, registry: "ServiceRegistry", plan: ResolvedBinding
    ) -> tuple | None:
        health = registry.health
        target = plan.target
        if target not in registry:
            return None
        state = health.state(target)
        if state is HealthState.QUARANTINED:
            return None
        decile = 0
        if target in health.known():
            record = health.health(target)
            attempts = record.total_successes + record.total_failures
            if attempts:
                decile = int(10 * record.total_failures / attempts)
        return (1 if state is HealthState.SUSPECT else 0, decile, target)

    def routes_through(
        self, plan: ResolvedBinding, reference: str
    ) -> bool:
        """True iff executing ``plan`` would (transitively, through the
        currently installed bindings) invoke ``reference`` — the
        install-time cycle guard.  A target that is itself bound routes
        on through its own binding, so the walk follows one chain."""
        seen: set[tuple[str, str]] = set()
        key: tuple[str, str] | None = (plan.via.name, plan.target)
        while key is not None and key not in seen:
            if key[1] == reference:
                return True
            seen.add(key)
            nested = self.bindings.get(key)
            key = None if nested is None else (nested.via.name, nested.target)
        return False

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """Snapshot for the CLI / ERM surface (plain data, sorted)."""
        return {
            "epoch": self.epoch,
            "rules": [rule.describe() for rule in self._rules],
            "bindings": {
                f"{prototype}[{reference}]": plan.describe()
                for (prototype, reference), plan in sorted(self.bindings.items())
            },
            "failover": {
                f"{prototype}[{reference}]": [p.describe() for p in plans]
                for (prototype, reference), plans in sorted(self.failover.items())
            },
            "history": [record.describe() for record in self.history],
        }
