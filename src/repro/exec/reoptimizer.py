"""Feedback-driven re-optimization of registered continuous queries.

The cost model ranks plans from cardinality *estimates* sampled when a
query is registered; a pervasive environment then drifts — sensors join,
leases expire, substitution rebinds providers — until the estimates no
longer describe the observed workload.  The
:class:`FeedbackReoptimizer` closes the loop:

1. at registration it records the cost model's estimated per-tick delta
   cardinality of the query's plan (fresh environment statistics);
2. every evaluated tick it observes the actual reported-delta size;
3. once a query's observed mean diverges from the estimate by the
   ``divergence`` factor (default 2×, in either direction) over a full
   observation window, it re-runs the cost-based :class:`Optimizer`
   against *fresh* statistics and — if the search finds a structurally
   different plan — swaps the physical plan in place via
   :meth:`~repro.continuous.continuous_query.ContinuousQuery.swap_plan`,
   the same in-place executor replacement the substitution machinery
   relies on (warm shared subtrees keep their lease; the first post-swap
   reported delta is netted against the pre-swap relation, so downstream
   consumers never see a re-materialization).

Only *swappable* queries participate (no stream emissions, no active
binding patterns — see :attr:`ContinuousQuery.swappable`); everything is
deterministic: observation windows are tick-counted, the optimizer search
is breadth-first with a fixed budget, and decisions depend only on the
journals and statistics of strictly earlier instants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.algebra.cost import CostModel, DEFAULT_CHURN
from repro.algebra.optimizer import Optimizer
from repro.algebra.statistics import collect_statistics
from repro.model.environment import PervasiveEnvironment
from repro.obs.observe import Observability

__all__ = ["FeedbackReoptimizer", "ReoptimizationEvent"]


@dataclass(frozen=True)
class ReoptimizationEvent:
    """One re-optimization decision, kept in :attr:`FeedbackReoptimizer.log`."""

    instant: int
    query_name: str
    estimate: float
    observed: float
    swapped: bool  # False: search kept the current plan

    def describe(self) -> str:
        action = "swapped plan" if self.swapped else "kept plan"
        return (
            f"@{self.instant} {self.query_name}: estimated delta "
            f"{self.estimate:.2f}/tick, observed {self.observed:.2f}/tick "
            f"— {action}"
        )


@dataclass
class _Watch:
    """Per-query feedback state."""

    estimate: float
    window: deque = field(default_factory=deque)
    cooldown_until: int = -1


class FeedbackReoptimizer:
    """Watches reported-delta cardinalities and re-lowers divergent plans.

    Parameters
    ----------
    environment:
        Supplies the statistics snapshots the cost model estimates from.
    divergence:
        Trigger factor: re-optimize when ``observed mean >= divergence *
        estimate`` or ``observed mean <= estimate / divergence``.
    min_window:
        Evaluated ticks to observe before a decision is possible (a full
        window is also required again after every decision).
    cooldown:
        Instants to wait after a decision before re-examining the same
        query — re-lowering every tick would thrash executor state.
    plan_budget, churn:
        Passed to the cost-based :class:`Optimizer` search.
    """

    def __init__(
        self,
        environment: PervasiveEnvironment,
        divergence: float = 2.0,
        min_window: int = 8,
        cooldown: int = 16,
        plan_budget: int = 200,
        churn: float = DEFAULT_CHURN,
        observe: "Observability | str | None" = None,
    ):
        if divergence <= 1.0:
            raise ValueError("divergence factor must exceed 1.0")
        if min_window < 1:
            raise ValueError("min_window must be at least 1")
        self.environment = environment
        self.divergence = divergence
        self.min_window = min_window
        self.cooldown = cooldown
        self.plan_budget = plan_budget
        self.churn = churn
        self.obs = (
            Observability.disabled()
            if observe is None
            else Observability.coerce(observe)
        )
        metrics = self.obs.metrics
        self._reopt_total = {
            outcome: metrics.counter(
                "serena_reoptimizations_total",
                "Feedback-driven re-optimization decisions",
                outcome=outcome,
            )
            for outcome in ("swapped", "kept")
        }
        self._watches: dict[str, _Watch] = {}
        #: All decisions, in order (swaps and kept-plan verdicts alike).
        self.log: list[ReoptimizationEvent] = []

    # -- bookkeeping -------------------------------------------------------------

    def _cost_model(self, instant: int) -> CostModel:
        subs = getattr(self.environment.registry, "substitutions", None)
        return CostModel(
            self.environment,
            instant=instant,
            statistics=collect_statistics(self.environment, instant),
            substitutable=subs.prototype_names if subs is not None else None,
        )

    def _estimate(self, query, instant: int) -> float:
        model = self._cost_model(instant)
        return model.delta_cardinality(query.root, churn=self.churn)

    def watch(self, name: str, continuous, instant: int) -> bool:
        """Start observing a registered query; returns False (and does
        nothing) for queries whose plan cannot be swapped."""
        if not continuous.swappable:
            return False
        self._watches[name] = _Watch(
            estimate=self._estimate(continuous.query, instant)
        )
        return True

    def unwatch(self, name: str) -> None:
        self._watches.pop(name, None)

    @property
    def watched(self) -> tuple[str, ...]:
        return tuple(sorted(self._watches))

    def observe(self, name: str, continuous, instant: int) -> None:
        """Record the reported-delta cardinality of one evaluated tick."""
        watch = self._watches.get(name)
        if watch is None:
            return
        delta = continuous.last_reported_delta
        watch.window.append(len(delta.inserted) + len(delta.deleted))
        if len(watch.window) > self.min_window:
            watch.window.popleft()

    # -- the decision ------------------------------------------------------------

    def _divergent(self, watch: _Watch) -> float | None:
        """The observed mean if it diverges ≥ the trigger factor, else None."""
        if len(watch.window) < self.min_window:
            return None
        observed = sum(watch.window) / len(watch.window)
        floor = max(watch.estimate, 1e-9)
        if observed >= self.divergence * floor:
            return observed
        if watch.estimate > 0 and observed <= watch.estimate / self.divergence:
            return observed
        return None

    def reoptimize(self, queries, scheduler, instant: int) -> list[str]:
        """Re-lower every watched query whose observations diverged.

        ``queries`` maps name → ContinuousQuery; ``scheduler`` (may be
        None) is refreshed for swapped plans it indexes.  Returns the
        names whose plans were actually swapped.  Called by the query
        processor after the per-tick evaluation loop, so swaps take
        effect at the *next* instant — decisions only ever consult
        strictly earlier observations (§3.2 determinism).
        """
        swapped: list[str] = []
        for name in sorted(self._watches):
            watch = self._watches[name]
            if instant < watch.cooldown_until:
                continue
            observed = self._divergent(watch)
            if observed is None:
                continue
            continuous = queries.get(name)
            if continuous is None:
                self.unwatch(name)
                continue
            model = self._cost_model(instant)
            optimizer = Optimizer(
                model,
                plan_budget=self.plan_budget,
                engine=continuous.engine,
                churn=self.churn,
            )
            result = optimizer.optimize(continuous.query)
            changed = result.query.root != continuous.query.root
            if changed:
                continuous.swap_plan(result.query)
                if scheduler is not None and name in scheduler:
                    scheduler.refresh(name, continuous)
                swapped.append(name)
            event = ReoptimizationEvent(
                instant, name, watch.estimate, observed, changed
            )
            self.log.append(event)
            self._reopt_total["swapped" if changed else "kept"].inc()
            if self.obs.tracing_on:
                self.obs.tracer.event(
                    "reoptimize",
                    instant,
                    query=name,
                    estimate=round(watch.estimate, 4),
                    observed=round(observed, 4),
                    swapped=changed,
                )
            # Either way, restart the feedback loop against the plan that
            # is now running: fresh estimate, empty window, cooldown.
            watch.estimate = self._estimate(continuous.query, instant)
            watch.window.clear()
            watch.cooldown_until = instant + self.cooldown
        return swapped

    def report(self) -> dict:
        """Introspection payload (the CLI's ``.reopt``-style dumps)."""
        return {
            "watched": {
                name: {
                    "estimate": watch.estimate,
                    "window": list(watch.window),
                    "cooldown_until": watch.cooldown_until,
                }
                for name, watch in sorted(self._watches.items())
            },
            "decisions": [event.describe() for event in self.log],
        }

    def __repr__(self) -> str:
        return (
            f"FeedbackReoptimizer({len(self._watches)} watched, "
            f"{len(self.log)} decisions)"
        )
