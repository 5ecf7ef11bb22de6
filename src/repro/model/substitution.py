"""Semantic service substitution over prototypes.

When a bound service dies permanently (quarantine that never lifts, or a
lease that never renews), the environment — not the user — heals the
binding ("Semantic Service Substitution in Pervasive Environments",
Ibrahim, Le Mouël, Frénot; see PAPERS.md).  This module is the model-layer
half of that machinery: a declarative *substitution relation* over
prototypes plus the bookkeeping the registry and the core ERM consult when
they reroute invocations.

Three rule kinds relate a prototype ``psi`` to its substitutes:

``equivalent_to``
    Another reference implements the *same* prototype; invocations are
    forwarded verbatim.
``specializes``
    The substitute offers a richer prototype ``via`` whose output schema is
    a superset of ``schema(Output_psi)`` and whose input schema is a subset
    of ``schema(Input_psi)``; results are projected down to ``psi``'s
    output order.
``composed_of``
    An explicit composition of live services implements ``psi``: the steps
    run in sequence, each step reading its input attributes from the
    accumulated environment (initially ``psi``'s inputs) and contributing
    its outputs, with Cartesian semantics over multi-row step results.

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

from repro.errors import SchemaError
from repro.model.invocation_policy import HealthState
from repro.model.prototypes import Prototype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (services imports us)
    from repro.model.services import ServiceRegistry

__all__ = [
    "CompositionStep",
    "SubstitutionRule",
    "MAX_CHAIN",
    "ResolvedBinding",
    "Rebind",
    "SubstitutionState",
]

#: Rule kinds in preference order: a direct equivalent beats a projection,
#: which beats assembling a composition (Section 4 of the substitution
#: paper orders candidates the same way: identical interface first).
RULE_KINDS = ("equivalent_to", "specializes", "composed_of")
_KIND_RANK = {kind: rank for rank, kind in enumerate(RULE_KINDS)}

#: Maximum substitution depth when bindings route through services that
#: are themselves substituted: the cycle guard of last resort (the ERM
#: refuses to install a cyclic binding up front).
MAX_CHAIN = 4


@dataclass(frozen=True)
class CompositionStep:
    """One step of a ``composed_of`` rule: invoke ``prototype`` on
    ``reference``, feeding inputs from the accumulated attribute
    environment and merging outputs back into it."""

    prototype: str
    reference: str


@dataclass(frozen=True)
class SubstitutionRule:
    """One declared edge of the substitution relation.

    ``prototype`` names the functionality being substituted; ``reference``
    restricts the rule to one failing service (``None`` = any provider of
    the prototype).  Exactly one of the kind-specific payloads is set:
    ``substitute`` (+ ``via`` for ``specializes``) or ``steps``.
    """

    kind: str
    prototype: str
    reference: str | None = None
    substitute: str | None = None
    via: str | None = None
    steps: tuple[CompositionStep, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise SchemaError(
                f"substitution rule kind {self.kind!r} not in {RULE_KINDS}"
            )
        if self.kind == "composed_of":
            if not self.steps:
                raise SchemaError("composed_of rule needs at least one step")
            if self.substitute is not None or self.via is not None:
                raise SchemaError("composed_of rule takes steps, not a substitute")
        else:
            if not self.substitute:
                raise SchemaError(f"{self.kind} rule needs a substitute reference")
            if self.steps:
                raise SchemaError(f"{self.kind} rule does not take steps")
            if self.kind == "specializes" and not self.via:
                raise SchemaError(
                    "specializes rule needs the richer prototype name (via=)"
                )
            if self.kind == "equivalent_to" and self.via is not None:
                raise SchemaError("equivalent_to rule does not take via=")

    # -- declarative constructors -------------------------------------------

    @classmethod
    def equivalent_to(
        cls, prototype: str, substitute: str, reference: str | None = None
    ) -> "SubstitutionRule":
        """``substitute`` implements the same ``prototype``."""
        return cls("equivalent_to", prototype, reference, substitute)

    @classmethod
    def specializes(
        cls,
        prototype: str,
        substitute: str,
        via: str,
        reference: str | None = None,
    ) -> "SubstitutionRule":
        """``substitute`` offers ``via`` (superset outputs, subset inputs);
        results are projected down to ``prototype``'s output schema."""
        return cls("specializes", prototype, reference, substitute, via)

    @classmethod
    def composed_of(
        cls,
        prototype: str,
        steps: Iterable[tuple[str, str] | CompositionStep],
        reference: str | None = None,
    ) -> "SubstitutionRule":
        """A sequential composition of ``(prototype, reference)`` steps
        implements ``prototype``."""
        normalized = tuple(
            step if isinstance(step, CompositionStep) else CompositionStep(*step)
            for step in steps
        )
        return cls("composed_of", prototype, reference, steps=normalized)

    def describe(self) -> str:
        scope = self.reference or "*"
        if self.kind == "composed_of":
            chain = " -> ".join(f"{s.prototype}@{s.reference}" for s in self.steps)
            return f"{self.prototype}[{scope}] composed_of {chain}"
        if self.kind == "specializes":
            return (
                f"{self.prototype}[{scope}] specializes "
                f"{self.substitute}/{self.via}"
            )
        return f"{self.prototype}[{scope}] equivalent_to {self.substitute}"


@dataclass(frozen=True)
class ResolvedBinding:
    """An executable substitution plan for one ``(prototype, reference)``.

    ``targets`` is the invocation recipe: one ``(Prototype, reference)``
    pair for ``equivalent_to`` (the original prototype) and
    ``specializes`` (the richer ``via`` prototype), or the full step
    sequence for ``composed_of``.  ``projection`` carries the positions of
    the original output attributes inside the ``via`` output schema for
    ``specializes`` plans.
    """

    rule: SubstitutionRule
    prototype: Prototype
    reference: str
    targets: tuple[tuple[Prototype, str], ...]
    projection: tuple[int, ...] | None = None

    @property
    def target_references(self) -> tuple[str, ...]:
        return tuple(reference for _, reference in self.targets)

    def describe(self) -> str:
        if self.rule.kind == "composed_of":
            chain = " -> ".join(
                f"{proto.name}@{ref}" for proto, ref in self.targets
            )
            return f"composed_of {chain}"
        proto, ref = self.targets[0]
        if self.rule.kind == "specializes":
            return f"specializes {ref}/{proto.name}"
        return f"equivalent_to {ref}"


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
        self.history: deque[Rebind] = deque(maxlen=256)

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
        not registered, schemas incompatible, step chain broken) are
        silently skipped — they may resolve at a later sweep."""
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
        if rule.kind == "equivalent_to":
            target = rule.substitute
            if target == reference or target not in registry:
                return None
            service = registry.get(target)
            if not service.implements(prototype):
                return None
            return ResolvedBinding(rule, prototype, reference, ((prototype, target),))
        if rule.kind == "specializes":
            target = rule.substitute
            if target == reference or target not in registry:
                return None
            service = registry.get(target)
            via = next(
                (p for p in service.prototypes if p.name == rule.via), None
            )
            if via is None:
                return None
            if not (
                via.output_names >= prototype.output_names
                and via.input_names <= prototype.input_names
            ):
                return None
            projection = tuple(
                via.output_schema.position(name)
                for name in prototype.output_schema.names
            )
            return ResolvedBinding(
                rule, prototype, reference, ((via, target),), projection
            )
        # composed_of: thread the attribute environment through the steps.
        available = set(prototype.input_names)
        targets: list[tuple[Prototype, str]] = []
        for step in rule.steps:
            if step.reference == reference or step.reference not in registry:
                return None
            service = registry.get(step.reference)
            step_proto = next(
                (p for p in service.prototypes if p.name == step.prototype), None
            )
            if step_proto is None or not step_proto.input_names <= available:
                return None
            available |= step_proto.output_names
            targets.append((step_proto, step.reference))
        if not prototype.output_names <= available:
            return None
        return ResolvedBinding(rule, prototype, reference, tuple(targets))

    # -- ranking -------------------------------------------------------------

    def rank(
        self, registry: "ServiceRegistry", plans: Iterable[ResolvedBinding]
    ) -> list[ResolvedBinding]:
        """Order candidate plans best-first.

        The score is a lexicographic tuple per plan, worst target taken
        across composition steps: health-state rank (UP before SUSPECT;
        QUARANTINED targets are excluded outright), observed failure-rate
        decile from the health totals, the rule-kind rank, and finally the
        target reference sequence — the deterministic tie-break required
        by the §3.2 convention.  Nothing wall-clock enters the score, so
        every engine and every run ranks alike.
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
        worst_state = 0
        worst_decile = 0
        for _, target in plan.targets:
            if target not in registry:
                return None
            state = health.state(target)
            if state is HealthState.QUARANTINED:
                return None
            worst_state = max(
                worst_state, 1 if state is HealthState.SUSPECT else 0
            )
            if target in health.known():
                record = health.health(target)
                attempts = record.total_successes + record.total_failures
                if attempts:
                    worst_decile = max(
                        worst_decile,
                        int(10 * record.total_failures / attempts),
                    )
        return (
            worst_state,
            worst_decile,
            _KIND_RANK[plan.rule.kind],
            plan.target_references,
        )

    def routes_through(
        self, plan: ResolvedBinding, reference: str
    ) -> bool:
        """True iff executing ``plan`` would (transitively, through the
        currently installed bindings) invoke ``reference`` — the
        install-time cycle guard."""
        seen: set[tuple[str, str]] = set()
        frontier = deque(
            (proto.name, target) for proto, target in plan.targets
        )
        while frontier:
            key = frontier.popleft()
            if key[1] == reference:
                return True
            if key in seen:
                continue
            seen.add(key)
            nested = self.bindings.get(key)
            if nested is not None:
                frontier.extend(
                    (proto.name, target) for proto, target in nested.targets
                )
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
