"""Unit tests for the federation layer: ring, relation, routing, gather.

The sharded-PEMS building blocks in isolation — consistent hashing,
the partitioned XD-Relation, partition pruning in the federated
registry, gather support counting, the Local-ERM facade, frozen-registry
semantics under the process executor, scatter sharing, shard-aware
costing, and the ``.shards`` / ``.explain federated`` surfaces.  The
end-to-end determinism claims live in ``test_fed_differential.py``.
"""

import pytest

from repro.algebra import col, scan
from repro.algebra.cost import CostModel
from repro.algebra.fingerprint import canonical_plan
from repro.devices.scenario import sensors_schema, temperatures_schema
from repro.devices.sensors import TemperatureSensor
from repro.errors import SchemaError, SerenaError, UnknownServiceError
from repro.fed import FederatedPEMS, FederatedRelation, HashRing
from repro.fed.hashing import VIRTUAL_NODES
from repro.pems.pems import PEMS

ZONES = ("zone-0", "zone-1", "zone-2", "zone-3")


@pytest.fixture
def fed():
    pems = FederatedPEMS(zones=4)
    pems.tables.create_relation(sensors_schema())
    return pems


def refs_in_distinct_zones(pems, count=2):
    """Service references routed to pairwise distinct zones."""
    picked, zones = [], set()
    for i in range(200):
        ref = f"svc-{i}"
        zone = pems.ring.zone_for(ref)
        if zone not in zones:
            zones.add(zone)
            picked.append(ref)
            if len(picked) == count:
                return picked
    raise AssertionError("ring failed to spread 200 keys")


class TestHashRing:
    def test_deterministic_across_instances(self):
        a, b = HashRing(ZONES), HashRing(ZONES)
        keys = [f"service-{i}" for i in range(100)]
        assert [a.zone_for(k) for k in keys] == [b.zone_for(k) for k in keys]

    def test_every_zone_owns_keys(self):
        ring = HashRing(ZONES)
        owners = {ring.zone_for(f"service-{i}") for i in range(200)}
        assert owners == set(ZONES)

    def test_adding_a_zone_moves_only_an_arc(self):
        small, big = HashRing(ZONES), HashRing(ZONES + ("zone-4",))
        keys = [f"service-{i}" for i in range(500)]
        moved = sum(small.zone_for(k) != big.zone_for(k) for k in keys)
        assert 0 < moved < len(keys) // 2  # consistent, not rehash-everything

    def test_non_string_keys_route_by_repr(self):
        ring = HashRing(ZONES)
        assert ring.zone_for(42) == ring.zone_for(42)
        assert ring.zone_for((1, "a")) == ring.zone_for((1, "a"))

    def test_empty_and_duplicate_zones_rejected(self):
        with pytest.raises(SerenaError):
            HashRing(())
        with pytest.raises(SerenaError):
            HashRing(("z", "z"))

    def test_virtual_nodes(self):
        ring = HashRing(ZONES)
        assert len(ring._points) == len(ZONES) * VIRTUAL_NODES


class TestFederatedRelation:
    def test_partition_attribute_defaults_to_service_column(self, fed):
        relation = fed.tables.relation("sensors")
        assert isinstance(relation, FederatedRelation)
        assert relation.partition_attribute == "sensor"

    def test_writes_route_and_reads_merge(self, fed):
        relation = fed.tables.relation("sensors")
        a, b = refs_in_distinct_zones(fed)
        rows = [
            {"sensor": a, "location": "hall"},
            {"sensor": b, "location": "roof"},
        ]
        relation.insert_mappings(rows, instant=1)
        # Each tuple lives in exactly one partition, the one the ring picks.
        for row in rows:
            values = relation.schema.tuple_from_mapping(row)
            owner = relation.zone_of(values)
            assert owner == fed.ring.zone_for(row["sensor"])
            holders = [
                z
                for z, part in relation.partitions.items()
                if values in part.instantaneous(1).tuples
            ]
            assert holders == [owner]
        assert len(relation) == 2
        assert relation.last_instant == 1
        # The merged journal is what one XD-Relation would report.
        [(instant, inserted, deleted)] = relation.changes_between(0, 5)
        assert instant == 1
        assert len(inserted) == 2 and not deleted
        relation.delete_mappings(rows[:1], instant=3)
        assert len(relation.instantaneous(3).tuples) == 1
        assert relation.revision == 3  # two partition revisions summed

    def test_delete_on_stream_rejected(self, fed):
        fed.tables.create_relation(temperatures_schema(), infinite=True)
        stream = fed.tables.relation("temperatures")
        stream.insert_mappings(
            [{"sensor": "s", "location": "x", "temperature": 1.0, "at": 1}],
            instant=1,
        )
        with pytest.raises(SerenaError):
            stream.delete(list(stream.instantaneous(1).tuples), instant=2)

    def test_failed_batch_leaves_every_partition_untouched(self, fed):
        """The facade validates the batch once, up front: a bad row —
        wherever it would have been routed — refuses the whole write."""
        relation = fed.tables.relation("sensors")
        a, b, c = refs_in_distinct_zones(fed, count=3)
        relation.insert_mappings([{"sensor": a, "location": "hall"}], instant=1)

        def fingerprint():
            return (
                len(relation),
                relation.revision,
                relation.last_instant,
                relation.changes_between(0, 100),
                {z: (len(p), p.revision, p.last_instant)
                 for z, p in relation.partitions.items()},
            )

        before = fingerprint()
        good = {"sensor": b, "location": "roof"}
        for bad in (
            {"sensor": c, "location": 7},
            {"sensor": c},
            {"sensor": c, "location": "lab", "temperature": 1.0},  # virtual given
        ):
            with pytest.raises(SchemaError):
                relation.insert_mappings([good, bad], instant=2)
            with pytest.raises(SchemaError):
                relation.delete_mappings([good, bad], instant=2)
            assert fingerprint() == before
        with pytest.raises(SchemaError):
            relation.insert([(b, "roof"), (c, 7)], instant=2)
        with pytest.raises(SchemaError):
            relation.delete([(a, "hall"), (c,)], instant=2)
        assert fingerprint() == before

    def test_out_of_order_batch_is_refused_before_any_partition_writes(self, fed):
        relation = fed.tables.relation("sensors")
        a, b = refs_in_distinct_zones(fed)
        relation.insert([(a, "hall")], instant=5)  # only a's zone is at 5
        with pytest.raises(SerenaError, match="non-decreasing"):
            relation.insert([(b, "roof"), (a, "attic")], instant=3)
        assert len(relation) == 1 and relation.revision == 1

    def test_zone_for_value_is_the_pruning_hook(self, fed):
        relation = fed.tables.relation("sensors")
        assert relation.zone_for_value("svc-1") == fed.ring.zone_for("svc-1")


class TestPartitionPruning:
    def route(self, fed, builder):
        return fed.queries.shared._route_zones(canonical_plan(builder.query()))

    def test_pinned_selection_routes_to_one_zone(self, fed):
        plan = scan(fed.environment, "sensors").select(col("sensor").eq("svc-7"))
        assert self.route(fed, plan) == (fed.ring.zone_for("svc-7"),)

    def test_pin_survives_renaming(self, fed):
        plan = (
            scan(fed.environment, "sensors")
            .rename("sensor", "device")
            .select(col("device").eq("svc-7"))
        )
        assert self.route(fed, plan) == (fed.ring.zone_for("svc-7"),)

    def test_unpinned_selection_fans_out(self, fed):
        plan = scan(fed.environment, "sensors").select(
            col("location").eq("hall")
        )
        assert set(self.route(fed, plan)) == set(ZONES)

    def test_projection_dropping_the_attribute_blocks_pruning(self, fed):
        plan = (
            scan(fed.environment, "sensors")
            .project("location")
            .select(col("location").eq("hall"))
        )
        assert set(self.route(fed, plan)) == set(ZONES)


class TestGatherSupportCounting:
    def test_projection_collapses_across_zones(self, fed):
        """π[location] over rows in two zones: the merged row appears
        once and survives until *every* supporting zone deletes it."""
        relation = fed.tables.relation("sensors")
        a, b = refs_in_distinct_zones(fed)
        cq = fed.queries.register_continuous(
            scan(fed.environment, "sensors").project("location").query(),
            name="where",
        )
        relation.insert_mappings(
            [
                {"sensor": a, "location": "hall"},
                {"sensor": b, "location": "hall"},
            ],
            instant=1,
        )
        fed.tick()
        assert cq.last_result.relation.tuples == {("hall",)}
        relation.delete_mappings([{"sensor": a, "location": "hall"}], instant=2)
        fed.tick()
        assert cq.last_result.relation.tuples == {("hall",)}
        assert not cq._engine.reported.deleted  # still supported by zone b
        relation.delete_mappings([{"sensor": b, "location": "hall"}], instant=3)
        fed.tick()
        assert cq.last_result.relation.tuples == set()
        assert cq._engine.reported.deleted == frozenset({("hall",)})

    def test_pruned_query_is_marked_and_correct(self, fed):
        relation = fed.tables.relation("sensors")
        a, b = refs_in_distinct_zones(fed)
        relation.insert_mappings(
            [
                {"sensor": a, "location": "hall"},
                {"sensor": b, "location": "roof"},
            ],
            instant=1,
        )
        cq = fed.queries.register_continuous(
            scan(fed.environment, "sensors")
            .select(col("sensor").eq(a))
            .query(),
            name="pinned",
        )
        fed.tick()
        assert cq.last_result.relation.tuples == {(a, "hall")}
        [row] = fed.queries.shared.scatter_summary()
        assert row["pruned"]
        assert list(row["zones"]) == [fed.ring.zone_for(a)]


class TestFederatedLocalERM:
    def test_registrations_route_by_reference(self, fed):
        local = fed.create_local_erm("building")
        names = [f"sensor-{i}" for i in range(12)]
        for name in names:
            local.register(TemperatureSensor(name, "hall").as_service())
        assert {s.reference for s in local.services} == set(names)
        for name in names:
            assert local.zone_of(name) == fed.ring.zone_for(name)
        # The coordinator registry sees every service through gossip.
        fed.tick()
        assert set(names) <= fed.environment.registry.references

    def test_deregister_unknown_raises(self, fed):
        local = fed.create_local_erm("building")
        with pytest.raises(UnknownServiceError):
            local.deregister("ghost")

    def test_deregister_routes_to_owner(self, fed):
        local = fed.create_local_erm("building")
        local.register(TemperatureSensor("s1", "hall").as_service())
        fed.tick()
        local.deregister("s1")
        fed.tick()
        assert "s1" not in fed.environment.registry


class TestScatterSharing:
    def test_identical_subtrees_share_one_gather_entry(self, fed):
        make = lambda: (  # noqa: E731
            scan(fed.environment, "sensors")
            .select(col("location").eq("hall"))
            .query()
        )
        fed.queries.register_continuous(make(), name="one")
        per_zone = {
            name: len(zone.plans._entries) for name, zone in fed.zones.items()
        }
        fed.queries.register_continuous(make(), name="two")
        [row] = fed.queries.shared.scatter_summary()
        assert row["refcount"] == 2
        assert set(row["zones"]) == set(ZONES)
        # Each zone runs the chain once, not once per query.
        assert per_zone == {
            name: len(zone.plans._entries) for name, zone in fed.zones.items()
        }
        fed.queries.deregister_continuous("one")
        [row] = fed.queries.shared.scatter_summary()
        assert row["refcount"] == 1
        fed.queries.deregister_continuous("two")
        assert fed.queries.shared.scatter_summary() == []
        for zone in fed.zones.values():
            assert not zone.plans._entries  # shard leases cascaded


class TestProcessExecutor:
    def test_registry_freezes_after_fork(self):
        pems = FederatedPEMS(zones=2, parallelism="processes")
        try:
            pems.tables.create_relation(sensors_schema())
            pems.queries.register_continuous(
                scan(pems.environment, "sensors")
                .select(col("location").eq("hall"))
                .query(),
                name="early",
            )
            pems.tick()  # forks the zone workers
            with pytest.raises(SerenaError):
                pems.queries.register_continuous(
                    scan(pems.environment, "sensors")
                    .project("location")
                    .query(),
                    name="late",
                )
        finally:
            pems.shutdown()
            pems.shutdown()  # idempotent

    def test_rejects_unknown_parallelism(self):
        with pytest.raises(SerenaError):
            FederatedPEMS(zones=2, parallelism="gpu")


class TestShardAwareCosting:
    def test_scatter_chain_cost_drops_with_shards(self, fed):
        fed.tables.relation("sensors").insert_mappings(
            [{"sensor": f"svc-{i}", "location": "hall"} for i in range(20)],
            instant=1,
        )
        model = CostModel(fed.environment, instant=1)
        plan = (
            scan(fed.environment, "sensors")
            .select(col("location").eq("hall"))
            .project("location")
            .query()
        )
        costs = [
            model.tick_cost(plan, engine="shared", shards=n).total
            for n in (1, 2, 4, 8)
        ]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] < costs[0]

    def test_single_shard_matches_unsharded(self, fed):
        fed.tables.relation("sensors").insert_mappings(
            [{"sensor": f"svc-{i}", "location": "hall"} for i in range(20)],
            instant=1,
        )
        model = CostModel(fed.environment, instant=1)
        plan = scan(fed.environment, "sensors").project("location").query()
        base = model.tick_cost(plan, engine="shared")
        assert model.tick_cost(plan, engine="shared", shards=1) == base


class TestExplainAndShell:
    def test_explain_federated_marks_scatter_and_pruning(self, fed):
        from repro.lang.printer import explain_federated

        text = explain_federated(
            scan(fed.environment, "sensors")
            .select(col("sensor").eq("svc-7"))
            .query(),
            fed.queries.shared,
        )
        assert "scatter to" in text
        assert "(pruned)" in text
        assert "[shard]" in text

    def test_explain_federated_degrades_on_plain_registry(self):
        from repro.lang.printer import explain_federated

        pems = PEMS()
        pems.tables.create_relation(sensors_schema())
        text = explain_federated(
            scan(pems.environment, "sensors").query(), pems.queries.shared
        )
        assert "not a federated PEMS" in text

    def test_shards_command(self, capsys):
        from repro.cli import SerenaShell

        shell = SerenaShell()
        shell.execute(".demo temperature federated")
        shell.execute(".tick 3")
        shell.execute(".shards")
        out = capsys.readouterr().out
        assert "4 zones, lockstep" in out
        assert "zone-0:" in out

    def test_shards_command_on_plain_pems(self, capsys):
        from repro.cli import SerenaShell

        shell = SerenaShell()
        shell.execute(".shards")
        assert "not a federated PEMS" in capsys.readouterr().out
