"""The federated PEMS facade: zones behind the single-PEMS API.

A :class:`FederatedPEMS` exposes the exact :class:`~repro.pems.pems.PEMS`
surface — ``create_local_erm``, ``tables``, ``queries``, ``tick`` — so
scenarios and the CLI switch between the shared engine and the sharded
federation with one constructor call.  Internally the environment is
partitioned into ``zones`` lockstep shards on the one virtual clock:

* services route to zones by consistent hashing on the service
  reference (via :class:`~repro.fed.local_erm.FederatedLocalERM`);
* relations are partitioned per zone and unioned by
  :class:`~repro.fed.relation.FederatedRelation`;
* scatterable query subtrees run inside zone registries and are merged
  by gather executors (:mod:`repro.fed.registry`);
* cross-zone discovery rides the :class:`~repro.fed.gossip.GossipRelay`
  from zone bus segments onto the coordinator bus.

Tick-listener order mirrors the single PEMS — coordinator ERM, zone
ERMs, stream sources, query processor, Local ERMs — so lockstep
federation is tuple-identical to the ``shared`` engine on the same
scenario (the differential tests pin this over 55 ticks).
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import SerenaError
from repro.fed.gossip import GossipRelay
from repro.fed.hashing import HashRing
from repro.fed.local_erm import FederatedLocalERM
from repro.fed.query_processor import FederatedQueryProcessor
from repro.fed.table_manager import FederatedTableManager
from repro.fed.zone import Zone
from repro.model.invocation_policy import InvocationPolicy
from repro.obs.observe import Observability
from repro.pems.pems import PEMS

__all__ = ["FederatedPEMS"]


class FederatedPEMS(PEMS):
    """A PEMS partitioned into lockstep zones.

    Parameters
    ----------
    zones:
        Zone count (named ``zone-0`` … ``zone-N``) or an iterable of zone
        names.
    parallelism:
        Shard execution mode: ``None`` (lockstep, default) or
        ``"processes"`` — see
        :class:`~repro.fed.query_processor.FederatedQueryProcessor`.
    partition_by:
        Relation name → partition attribute, overriding the default
        first-SERVICE-attribute partitioning.
    """

    def __init__(
        self,
        zones: int | list[str] | tuple[str, ...] = 4,
        policy: InvocationPolicy | None = None,
        observe: "Observability | str | None" = None,
        parallelism: str | None = None,
        partition_by: Mapping[str, str] | None = None,
    ):
        if isinstance(zones, int):
            if zones < 1:
                raise SerenaError("a federation needs at least one zone")
            zone_names = tuple(f"zone-{i}" for i in range(zones))
        else:
            zone_names = tuple(zones)
        # Set before PEMS.__init__: its factory hooks build the federated
        # parts from these.
        self.ring = HashRing(zone_names)
        self._policy = policy
        self._partition_by = partition_by
        self._parallelism = parallelism
        super().__init__("shared", policy, observe)

    def _make_tables(self) -> FederatedTableManager:
        # Zone ERMs subscribe to the clock here — after the coordinator
        # ERM, before the stream sources (see module doc).
        self.zones: dict[str, Zone] = {
            name: Zone(name, self.clock, policy=self._policy, observe=self.obs)
            for name in self.ring.zones
        }
        self.gossip = GossipRelay(
            self.bus, (zone.bus for zone in self.zones.values())
        )
        return FederatedTableManager(
            self.environment,
            self.clock,
            self.zones,
            self.ring,
            partition_by=self._partition_by,
        )

    def _make_queries(self, engine: str) -> FederatedQueryProcessor:
        return FederatedQueryProcessor(
            self.environment,
            self.clock,
            self.erm,
            self.tables,
            self.zones,
            engine=engine,
            observe=self.obs,
            parallelism=self._parallelism,
        )

    # -- topology -------------------------------------------------------------------

    def create_local_erm(
        self, name: str, lease: int | None = None
    ) -> FederatedLocalERM:
        """A Local ERM facade routing registrations to zone shards."""
        if name in self._local_erms:
            return self._local_erms[name]
        local = FederatedLocalERM(name, self, lease=lease)
        self._local_erms[name] = local
        return local

    # -- introspection --------------------------------------------------------------

    @property
    def parallelism(self) -> str | None:
        return self.queries.parallelism

    def shard_summary(self) -> dict:
        """The ``.shards`` payload: per-zone state plus the scattered
        subtrees currently live at the coordinator."""
        report = self.erm.substitution_report()
        return {
            "zones": [
                self.zones[name].summary() for name in sorted(self.zones)
            ],
            "parallelism": self.parallelism,
            "scattered": self.queries.shared.scatter_summary(),
            "gossip_relayed": self.gossip.relayed,
            # Substitution happens at the coordinator registry (invocation
            # hub), but its candidates arrive from any zone via gossip —
            # surface the active bindings next to the shard state.
            "substitutions": report["bindings"],
        }

    def shutdown(self) -> None:
        """Stop shard workers (idempotent; lockstep is a no-op)."""
        self.queries.shutdown()

    def close(self) -> None:
        """Full teardown (idempotent): stop shard workers *and*
        detach the gossip relay from every zone bus segment, so no relay
        callback outlives the federation.  The subscription server's
        shutdown path calls this."""
        self.shutdown()
        self.gossip.close()

    def __repr__(self) -> str:
        mode = self.parallelism or "lockstep"
        return (
            f"FederatedPEMS({len(self.zones)} zones, {mode}, "
            f"instant={self.clock.now}, "
            f"services={len(self.environment.registry)}, "
            f"relations={len(self.environment.relation_names)})"
        )
