"""The federated query processor: lockstep shards and the process barrier.

Extends the coordinator :class:`~repro.pems.query_processor.QueryProcessor`
in exactly two places:

* :meth:`_make_registry` substitutes the
  :class:`~repro.fed.registry.FederatedPlanRegistry`, so scatterable
  subtrees lower into zone shards instead of the coordinator;
* :meth:`_before_plan` advances every shard to the current instant
  between discovery sync and query scheduling — the per-tick barrier.

Two shard-execution modes share that barrier:

* ``parallelism=None`` (lockstep) — shards advance eagerly, one after
  another, on the coordinator thread.  Deterministic by construction and
  tuple-identical to the ``shared`` engine.
* ``parallelism="processes"`` — each zone lives in a forked worker
  process.  Per barrier the coordinator ships each worker the journal
  slice of its partitions since the last barrier, the worker replays it,
  advances its shard executors, and ships back per-subtree deltas, which
  accumulate (composed across carried instants) until the owning gather
  consumes them.  Workers fork at the first parallel barrier; the
  registry freezes then — queries must be registered before it.

In both modes the barrier runs *before* the scheduler plans the tick, so
shard results for instant τ are (or will deterministically be) the ones
a single shared engine would compute at τ over the same journals.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Mapping

from repro.continuous.time import VirtualClock
from repro.errors import SerenaError
from repro.exec.shared import SharedPlanRegistry
from repro.fed.registry import FederatedPlanRegistry
from repro.model.environment import PervasiveEnvironment
from repro.obs.observe import Observability
from repro.pems.erm import EnvironmentResourceManager
from repro.pems.query_processor import QueryProcessor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fed.table_manager import FederatedTableManager
    from repro.fed.zone import Zone

__all__ = ["FederatedQueryProcessor"]

PARALLELISM_MODES = (None, "processes")


def _worker_loop(zone: "Zone", conn) -> None:
    """Runs in a forked shard worker: replay journal slices, advance the
    zone's executors, ship the per-subtree deltas back."""
    while True:
        message = conn.recv()
        if message is None:
            conn.close()
            return
        instant, slices = message
        zone.apply_slices(slices)
        zone.advance(instant)
        conn.send(zone.shard_deltas())


class FederatedQueryProcessor(QueryProcessor):
    """Drives coordinator queries over zone shards."""

    def __init__(
        self,
        environment: PervasiveEnvironment,
        clock: VirtualClock,
        erm: EnvironmentResourceManager,
        tables: "FederatedTableManager",
        zones: Mapping[str, "Zone"],
        engine: str = "shared",
        observe: "Observability | str | None" = None,
        parallelism: str | None = None,
    ):
        if parallelism not in PARALLELISM_MODES:
            raise SerenaError(
                f"unknown parallelism {parallelism!r}; "
                f"expected one of {PARALLELISM_MODES!r}"
            )
        # Set before super().__init__: the base constructor calls
        # _make_registry, which needs the zones.
        self._zones = dict(zones)
        self.parallelism = parallelism
        self._workers: dict[str, tuple] | None = None
        #: Zone → relation → journal ship mark (same discipline as
        #: ScanExec._consumed: entries at or above the mark may still
        #: change through same-instant writes and are re-sent; the worker
        #: applies them idempotently).
        self._marks: dict[str, dict[str, int]] = {}
        self._fork_relations: frozenset[str] = frozenset()
        self._shut_down = False
        super().__init__(
            environment,
            clock,
            erm,
            tables,
            engine=engine,
            observe=observe,
        )

    def _make_registry(
        self, environment: PervasiveEnvironment
    ) -> SharedPlanRegistry:
        return FederatedPlanRegistry(
            environment, self._zones, self.tables, observe=self.obs
        )

    # -- the per-tick barrier ----------------------------------------------------

    def _before_plan(self, instant: int) -> None:
        if self._shut_down:
            return
        if self.parallelism is None:
            self._advance_lockstep(instant)
        else:
            self._advance_processes(instant)
        for zone in self._zones.values():
            zone.sync_gauges()

    def _advance_lockstep(self, instant: int) -> None:
        for name in sorted(self._zones):
            with self.obs.tracer.span("shard.advance", instant, zone=name):
                self._zones[name].advance(instant)

    def _advance_processes(self, instant: int) -> None:
        if self._workers is None:
            self._fork_workers(instant)
        with self.obs.tracer.span(
            "shard.barrier", instant, mode="processes", zones=len(self._workers)
        ):
            self._barrier_processes(instant)

    def _fork_workers(self, instant: int) -> None:
        """Fork one persistent worker per zone.  The fork inherits the
        full coordinator state — partitions, shard executors, journals —
        so only writes after this instant need shipping.  From here on
        the coordinator's own zone executors are stale and unused, and
        the registry refuses new scattered subtrees."""
        ctx = multiprocessing.get_context("fork")
        self._workers = {}
        for name in sorted(self._zones):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_loop,
                args=(self._zones[name], child_conn),
                daemon=True,
                name=f"shard-{name}",
            )
            process.start()
            child_conn.close()
            self._workers[name] = (process, parent_conn)
            # The worker already holds every write ≤ this instant; the
            # first slice re-sends this instant's writes, which XD-Relation
            # journaling applies idempotently.
            self._marks[name] = {
                relation: instant for relation in self.tables.federated
            }
        # Relations created after the fork don't exist in the workers (and
        # can't be scattered either — the registry is frozen): never ship.
        self._fork_relations = frozenset(self.tables.federated)
        self.shared.freeze_for_workers()

    def _barrier_processes(self, instant: int) -> None:
        registry = self.shared
        for name, (_, conn) in self._workers.items():
            conn.send((instant, self._slices_for(name, instant)))
        for name, (_, conn) in self._workers.items():
            deltas = conn.recv()
            registry.install_remote(name, deltas)

    def _slices_for(self, zone_name: str, instant: int) -> dict:
        slices: dict[str, list] = {}
        marks = self._marks[zone_name]
        for name in self._fork_relations:
            partition = self.tables.federated[name].partitions[zone_name]
            chunk = partition.changes_between(marks[name], instant)
            if chunk:
                slices[name] = chunk
            last = partition.last_instant
            marks[name] = last if last <= instant else instant + 1
        return slices

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._shut_down:
            return
        self._shut_down = True
        if self._workers is not None:
            for _, conn in self._workers.values():
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for process, conn in self._workers.values():
                process.join(timeout=5)
                conn.close()
            self._workers = None

    def __repr__(self) -> str:
        mode = self.parallelism or "lockstep"
        return (
            f"FederatedQueryProcessor({len(self._zones)} zones, {mode}, "
            f"{len(self._continuous)} continuous queries)"
        )
