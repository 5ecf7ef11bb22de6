"""The gather executor: merging per-shard deltas at the coordinator.

A scatterable subtree (σ/π/ρ/α chains over one partitioned scan) runs as
one shard subplan per routed zone; :class:`GatherExec` stands in for the
whole subtree in the coordinator plan and merges the shard deltas under
the two-delta contract.

Correctness of the support-count merge: zone partitions are
tuple-disjoint, but projection (and attribute overwrite) can collapse
*distinct* partition rows from different zones onto the *same* output
row.  The gathered result is therefore the union of the shard results,
and a row is a member iff its **support** — the number of zones whose
shard result contains it — is positive.  Each shard's change delta moves
that zone's membership by exactly ±1 per row, so netting the per-row
support change against the maintained count yields the exact membership
delta: insert iff support went 0 → positive, delete iff it went positive
→ 0.  With a single routed zone (partition pruning) this degrades to
pass-through.

Shard deltas come from one of two places, decided by the owning
:class:`~repro.fed.registry.FederatedPlanRegistry`: in lockstep
mode the gather ticks the shard root in-process (a memoized no-op when
the barrier already advanced it); in process-parallel mode the shard state lives in a forked worker, and the gather consumes
the delta the worker shipped back (accumulated across carried instants
by the registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.algebra.context import EvaluationContext
from repro.algebra.operators.base import Operator
from repro.exec.delta import Delta
from repro.exec.executors import Executor
from repro.exec.shared import SharedPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fed.registry import FederatedPlanRegistry
    from repro.fed.zone import Zone

__all__ = ["GatherExec", "Shard"]

_EMPTY: frozenset[tuple] = frozenset()


@dataclass(frozen=True)
class Shard:
    """One zone's half of a scattered subtree."""

    zone: "Zone"
    plan: SharedPlan
    digest: str

    @property
    def executor(self) -> Executor:
        return self.plan.root


class GatherExec(Executor):
    """Merges the routed shards of one scattered subtree."""

    def __init__(
        self,
        node: Operator,
        shards: Sequence[Shard],
        registry: "FederatedPlanRegistry",
    ):
        super().__init__(node, children=())
        self.shards = tuple(shards)
        self.registry = registry
        #: Output row → number of zones whose shard result contains it.
        self._counts: dict[tuple, int] = {}

    @property
    def zones(self) -> tuple[str, ...]:
        return tuple(shard.zone.name for shard in self.shards)

    def _shard_delta(
        self, shard: Shard, ctx: EvaluationContext
    ) -> tuple[frozenset[tuple], frozenset[tuple]]:
        registry = self.registry
        remote = registry.take_remote(shard.zone.name, shard.digest)
        if remote is not None:
            inserted, deleted = remote
            if self.is_first_tick:
                # The shard lives in a forked worker and only its deltas
                # ship: a gather created after the worker advanced would
                # miss the shard's standing rows.  Replay the maintained
                # remote view — the remote-path equivalent of the warm
                # in-process shard's fresh_view() catch-up below (the
                # pending delta just consumed is already folded into it).
                view = registry.remote_view(shard.zone.name, shard.digest)
                if view is not None:
                    inserted, deleted = view, _EMPTY
        else:
            root_was_fresh = shard.executor.is_first_tick
            change = shard.zone.tick(shard.executor, ctx.instant)
            if self.is_first_tick and not root_was_fresh:
                # Same catch-up a parent's _pull performs: a warm
                # shard contributes its full view as insertions.
                inserted, deleted = shard.executor.fresh_view(), _EMPTY
            else:
                inserted, deleted = change.inserted, change.deleted
        inserted = frozenset(inserted)
        deleted = frozenset(deleted)
        # Count after deduplication: a shipped remote delta may carry
        # duplicates, and EXPLAIN ANALYZE cardinalities are tuple counts.
        stats = self.stats
        stats.input_inserted += len(inserted)
        stats.input_deleted += len(deleted)
        return inserted, deleted

    def _advance(self, ctx: EvaluationContext) -> Delta:
        if len(self.shards) == 1:
            # Pruned (or single-zone) scatter: one shard's net delta IS
            # the gathered delta — no cross-zone collapse is possible, so
            # the support counts would all be 0/1.  Pass it through.
            inserted, deleted = self._shard_delta(self.shards[0], ctx)
            return Delta(inserted, deleted)
        delta_counts: dict[tuple, int] = {}
        for shard in self.shards:
            inserted, deleted = self._shard_delta(shard, ctx)
            for row in inserted:
                delta_counts[row] = delta_counts.get(row, 0) + 1
            for row in deleted:
                delta_counts[row] = delta_counts.get(row, 0) - 1
        counts = self._counts
        ins: list[tuple] = []
        dels: list[tuple] = []
        for row, moved in delta_counts.items():
            if moved == 0:
                continue
            old = counts.get(row, 0)
            new = old + moved
            if new > 0:
                counts[row] = new
            else:
                counts.pop(row, None)
            if old == 0 and new > 0:
                ins.append(row)
            elif old > 0 and new <= 0:
                dels.append(row)
        return Delta(frozenset(ins), frozenset(dels))

    def __repr__(self) -> str:
        return (
            f"GatherExec({self.node.symbol()}, zones={list(self.zones)!r}, "
            f"{len(self.current)} rows)"
        )
