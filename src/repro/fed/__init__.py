"""Sharded PEMS federation (DESIGN.md §11).

Partitions a pervasive environment into *zones*, each owning an ERM
shard, a discovery-bus segment and a query-processor shard.  A
:class:`FederatedPEMS` coordinator plans queries spanning shards:
scan/selection/projection subplans are scattered to the shards owning
the underlying relation partitions, per-shard deltas are gathered and
merged under the two-delta contract, and cross-zone discovery rides a
gossip relay between bus segments.

Phase 1 runs every shard in deterministic lockstep on the shared
virtual clock — tuple-identical to the ``shared`` engine.  Phase 2 is
the opt-in parallel shard executor (``parallelism="processes"``) with a
per-tick barrier that preserves determinism.
"""

from repro.fed.gather import GatherExec
from repro.fed.gossip import GossipRelay
from repro.fed.hashing import HashRing
from repro.fed.local_erm import FederatedLocalERM
from repro.fed.pems import FederatedPEMS
from repro.fed.query_processor import FederatedQueryProcessor
from repro.fed.registry import FederatedPlanRegistry
from repro.fed.relation import FederatedRelation
from repro.fed.table_manager import FederatedTableManager
from repro.fed.zone import Zone

__all__ = [
    "FederatedLocalERM",
    "FederatedPEMS",
    "FederatedPlanRegistry",
    "FederatedQueryProcessor",
    "FederatedRelation",
    "FederatedTableManager",
    "GatherExec",
    "GossipRelay",
    "HashRing",
    "Zone",
]
