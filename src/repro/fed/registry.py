"""The federated plan registry: scatter/gather over zone shards.

Extends the coordinator's :class:`~repro.exec.shared.SharedPlanRegistry`
with one new lease shape: a **scatterable** subtree — a σ/π/ρ/α chain
over exactly one scan of a partitioned relation — is not lowered at the
coordinator.  Instead the canonical subtree is leased once *per routed
zone* in that zone's own registry (the query-processor shard), and the
coordinator holds a single :class:`~repro.fed.gather.GatherExec` entry
that merges the shard deltas.  Everything else — joins, windows, set
operations, invocations — lowers at the coordinator exactly as in the
shared engine, consuming gather outputs through the ordinary executor
contract.

Scattering hooks a single method: ``_lease``.  Both registry paths that
can reach a shareable subtree — ``_build``'s shareable branch and
``_lease``'s own child recursion — dispatch through ``self._lease``
polymorphically, so the override intercepts every scatterable subtree at
its *maximal* extent (parents are considered before children during the
build descent) with no changes to the base class.

Partition pruning: a selection in the chain that pins the partition
attribute to a constant (``sector = "s3"`` under any conjunction) routes
the scatter to the single owning zone instead of all zones.  The pin is
traced through renamings, projections and assignments between the scan
and the selection; pruning is conservative — when in doubt the scatter
fans out to every zone, which is always correct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.algebra.formula import And, Comparison, Formula
from repro.algebra.operators.assignment import Assignment
from repro.algebra.operators.base import Operator
from repro.algebra.operators.projection import Projection
from repro.algebra.operators.renaming import Renaming
from repro.algebra.operators.scan import Scan
from repro.algebra.operators.selection import Selection
from repro.errors import SerenaError
from repro.exec.executors import Executor
from repro.exec.shared import SharedPlanRegistry, _digest, _Entry
from repro.fed.gather import GatherExec, Shard
from repro.model.environment import PervasiveEnvironment
from repro.obs.observe import Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fed.table_manager import FederatedTableManager
    from repro.fed.zone import Zone

__all__ = ["FederatedPlanRegistry"]

#: Operator kinds a scattered chain may contain above its scan.
_CHAIN_KINDS = (Selection, Projection, Renaming, Assignment)

#: A remote delta: (inserted, deleted) for one (zone, subtree) pair.
RemoteDelta = tuple[frozenset, frozenset]


def _equality_pins(formula: Formula, name: str) -> set:
    """Constants ``c`` such that ``formula`` implies ``name = c``.

    Conjunctions union their branches' pins; disjunctions, negations and
    non-equality comparisons pin nothing (conservative).  Two distinct
    pins mean a contradictory formula — the result is empty, so routing
    to any single zone stays correct.
    """
    if isinstance(formula, Comparison):
        if formula.op != "=":
            return set()
        if (
            formula.left_is_attr
            and formula.left == name
            and not formula.right_is_attr
        ):
            return {formula.right}
        if (
            formula.right_is_attr
            and formula.right == name
            and not formula.left_is_attr
        ):
            return {formula.left}
        return set()
    if isinstance(formula, And):
        return _equality_pins(formula.left, name) | _equality_pins(
            formula.right, name
        )
    return set()


def compose_deltas(first: RemoteDelta, second: RemoteDelta) -> RemoteDelta:
    """The net delta of applying ``first`` then ``second``."""
    ins1, del1 = first
    ins2, del2 = second
    return (
        frozenset((ins1 - del2) | (ins2 - del1)),
        frozenset((del1 - ins2) | (del2 - ins1)),
    )


class _GatherEntry(_Entry):
    """A registry entry whose executor gathers remote shards."""

    __slots__ = ("shards",)

    def __init__(self, executor: Executor, fingerprint: str, shards):
        super().__init__(executor, fingerprint)
        self.shards = shards


class FederatedPlanRegistry(SharedPlanRegistry):
    """The coordinator registry of a :class:`~repro.fed.pems.FederatedPEMS`."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        zones: Mapping[str, "Zone"],
        tables: "FederatedTableManager",
        observe: "Observability | str | None" = None,
    ):
        super().__init__(environment, observe=observe)
        self.zones = dict(zones)
        self.tables = tables
        #: True while forked shard workers hold the zone executor state:
        #: new scatters would silently diverge (the workers never learn
        #: about them), so creating one raises instead.
        self.frozen = False
        #: True when shard deltas arrive from workers instead of being
        #: computed in-process (``parallelism="processes"``).
        self.remote_mode = False
        #: (zone name, subtree digest) → delta accumulated over the
        #: instants since the owning gather last consumed it.
        self._pending: dict[tuple[str, str], RemoteDelta] = {}
        #: Zone name → digests of the subtrees its forked worker computes
        #: (frozen at fork; workers never learn about later subtrees).
        self._worker_digests: dict[str, frozenset[str]] = {}
        #: (zone name, subtree digest) → the shard's full current view,
        #: maintained from the shipped deltas (seeded at fork).  This is
        #: what lets a gather created *after* the workers advanced replay
        #: the warm shard's standing rows — the first-tick catch-up the
        #: in-process path gets from ``fresh_view()``.
        self._remote_views: dict[tuple[str, str], frozenset] = {}
        metrics = self.obs.metrics
        self._scatter_total = metrics.counter(
            "serena_fed_scatter_total",
            "Scatterable subtrees lowered across zone shards",
        )
        self._pruned_total = metrics.counter(
            "serena_fed_pruned_total",
            "Scatters routed to a strict subset of zones by partition pruning",
        )
        self._scattered_gauge = metrics.gauge(
            "serena_fed_scattered_subplans",
            "Scattered subtrees currently live at the coordinator",
        )
        self._shards_gauge = metrics.gauge(
            "serena_fed_shards_total",
            "Zone shard subplans backing the live scattered subtrees",
        )

    # -- scatterability ----------------------------------------------------------

    def _scatterable(self, node: Operator) -> bool:
        """True iff ``node`` heads a σ/π/ρ/α chain over exactly one scan
        of a finite partitioned relation."""
        if not isinstance(node, _CHAIN_KINDS):
            return False
        cur = node
        while isinstance(cur, _CHAIN_KINDS):
            cur = cur.children[0]
        if not isinstance(cur, Scan):
            return False
        federated = self.tables.federated.get(cur.name)
        return federated is not None and not federated.infinite

    def _route_zones(self, node: Operator) -> tuple[str, ...]:
        """The zones a scatterable subtree must run in: all of them, or a
        single zone when a selection pins the partition attribute."""
        chain: list[Operator] = []
        cur = node
        while not isinstance(cur, Scan):
            chain.append(cur)
            cur = cur.children[0]
        federated = self.tables.federated[cur.name]
        attribute = federated.partition_attribute
        if attribute is None:
            return tuple(self.zones)
        pins: set = set()
        name: str | None = attribute
        for op in reversed(chain):  # bottom-up, tracking the attr's name
            if name is None:
                break
            if isinstance(op, Selection):
                pins |= _equality_pins(op.formula, name)
            elif isinstance(op, Renaming):
                if op.old == name:
                    name = op.new
                elif op.new == name:
                    name = None
            elif isinstance(op, Projection):
                if name not in op.names:
                    name = None
            elif isinstance(op, Assignment):
                if op.attribute == name:
                    name = None
        if not pins:
            return tuple(self.zones)
        # Multiple distinct pins = contradictory conjunction = empty
        # result, so any single deterministic choice is correct.
        value = sorted(pins, key=repr)[0]
        zone = federated.zone_for_value(value)
        return (zone,) if zone is not None else tuple(self.zones)

    # -- the scatter lease -------------------------------------------------------

    def _lease(
        self, node: Operator, leased: dict[Operator, None]
    ) -> Executor:
        if self._scatterable(node):
            return self._lease_gather(node, leased)
        return super()._lease(node, leased)

    def _lease_gather(
        self, node: Operator, leased: dict[Operator, None]
    ) -> Executor:
        entry = self._entries.get(node)
        if entry is None:
            digest = _digest(node)
            routed = self._route_zones(node)
            if self.frozen and not all(
                digest in self._worker_digests.get(name, frozenset())
                for name in routed
            ):
                raise SerenaError(
                    "federated registry is frozen: shard worker processes "
                    "are running and cannot learn about new scattered "
                    "subtrees; register all federated queries before the "
                    "first parallel tick (or use parallelism=None)"
                )
            self._lease_misses_total.inc()
            self._scatter_total.inc()
            if len(routed) < len(self.zones):
                self._pruned_total.inc()
            shards = tuple(
                Shard(
                    self.zones[name],
                    self.zones[name].plans.acquire_subtree(node),
                    digest,
                )
                for name in routed
            )
            executor = GatherExec(node, shards, self)
            entry = _GatherEntry(executor, digest, shards)
            self._entries[node] = entry
        else:
            self._lease_hits_total.inc()
            # No child re-leasing: the subtree's inner nodes live in the
            # zone registries, and the shard leases are held by the entry
            # itself (released when its refcount drops to zero).
        if node not in leased:
            entry.refcount += 1
            leased[node] = None
        self._sync_gauges()
        return entry.executor

    def _release(self, leases: tuple[Operator, ...]) -> None:
        for node in leases:
            entry = self._entries.get(node)
            if entry is None:
                continue
            entry.refcount -= 1
            if entry.refcount <= 0:
                del self._entries[node]
                if isinstance(entry, _GatherEntry):
                    for shard in entry.shards:
                        shard.plan.release()
                    for zone_name in (s.zone.name for s in entry.shards):
                        self._pending.pop(
                            (zone_name, entry.fingerprint), None
                        )
        self._sync_gauges()

    # -- remote shard deltas (process workers) -----------------------------------

    def freeze_for_workers(self) -> None:
        """Switch to remote (process-worker) mode at fork time: record
        which subtrees each worker computes — the worker's zone-registry
        contents, nested child subtrees included — and seed the per-shard
        remote views from the coordinator executors' state, which the fork
        inherited verbatim.  Only subtrees recorded here may be scattered
        after the freeze (the workers never learn about new ones)."""
        self.frozen = True
        self.remote_mode = True
        for zone_name, zone in self.zones.items():
            entries = list(zone.plans._entries.values())
            self._worker_digests[zone_name] = frozenset(
                entry.fingerprint for entry in entries
            )
            for entry in entries:
                self._remote_views[(zone_name, entry.fingerprint)] = (
                    frozenset(entry.executor.current)
                )

    def take_remote(self, zone_name: str, digest: str) -> RemoteDelta | None:
        """The accumulated worker delta for one shard, or None when shard
        execution is in-process (gather then ticks the shard itself)."""
        if not self.remote_mode:
            return None
        empty: RemoteDelta = (frozenset(), frozenset())
        return self._pending.pop((zone_name, digest), empty)

    def remote_view(self, zone_name: str, digest: str) -> frozenset | None:
        """The shard's full current view as maintained from the shipped
        worker deltas — the remote-path equivalent of
        ``shard.executor.fresh_view()`` (None outside remote mode or for
        a subtree no worker computes)."""
        return self._remote_views.get((zone_name, digest))

    def install_remote(
        self, zone_name: str, deltas: Mapping[str, RemoteDelta]
    ) -> None:
        """Fold one worker barrier's deltas into the pending store,
        composing with anything not yet consumed (queries carried across
        instants consume one composed delta spanning the gap).  The
        per-shard remote views advance for *every* shipped subtree — live
        at the coordinator or not — so a gather re-created later can
        still replay the warm shard's standing rows."""
        live = {
            entry.fingerprint
            for entry in self._entries.values()
            if isinstance(entry, _GatherEntry)
        }
        views = self._remote_views
        for digest, delta in deltas.items():
            inserted, deleted = delta
            view_key = (zone_name, digest)
            view = views.get(view_key, frozenset())
            views[view_key] = (view - frozenset(deleted)) | frozenset(inserted)
            if digest not in live:
                continue
            key = (zone_name, digest)
            old = self._pending.get(key)
            self._pending[key] = (
                delta if old is None else compose_deltas(old, delta)
            )

    def gather_entries(self) -> list[_GatherEntry]:
        return [
            entry
            for entry in self._entries.values()
            if isinstance(entry, _GatherEntry)
        ]

    # -- introspection -----------------------------------------------------------

    def scatter_summary(self) -> list[dict]:
        """One row per live scattered subtree (the ``.explain federated``
        and ``.shards`` data source)."""
        rows = []
        for node, entry in self._entries.items():
            if not isinstance(entry, _GatherEntry):
                continue
            rows.append(
                {
                    "fingerprint": entry.fingerprint,
                    "operator": node.symbol(),
                    "refcount": entry.refcount,
                    "zones": [s.zone.name for s in entry.shards],
                    "pruned": len(entry.shards) < len(self.zones),
                }
            )
        rows.sort(key=lambda r: r["fingerprint"])
        return rows

    def _sync_gauges(self) -> None:
        super()._sync_gauges()
        gathers = self.gather_entries()
        self._scattered_gauge.set(len(gathers))
        self._shards_gauge.set(sum(len(e.shards) for e in gathers))
