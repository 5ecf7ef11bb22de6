"""Tests for the Query Processor: one-shot, continuous and discovery
queries driven by the PEMS tick loop."""

import pytest

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.prototypes import GET_TEMPERATURE, STANDARD_PROTOTYPES
from repro.devices.scenario import sensors_schema
from repro.devices.sensors import TemperatureSensor
from repro.errors import SerenaError, UnknownAttributeError, UnknownRelationError
from repro.pems.pems import PEMS


@pytest.fixture
def pems():
    system = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        system.environment.declare_prototype(prototype)
    system.tables.create_relation(sensors_schema())
    return system


def plug_sensor(pems, reference, location="office"):
    local = pems.create_local_erm("field")
    local.register(TemperatureSensor(reference, location).as_service())


class TestOneShot:
    def test_execute_at_current_instant(self, pems):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.run(2)
        result = pems.queries.execute(
            scan(pems.environment, "sensors").invoke("getTemperature").query()
        )
        assert result.instant == 2
        assert len(result.relation) == 1


class TestContinuousRegistration:
    def test_registered_queries_run_each_tick(self, pems):
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        pems.run(3)
        assert cq.last_result is not None
        assert cq.last_result.instant == 3

    def test_duplicate_name_rejected(self, pems):
        pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        with pytest.raises(SerenaError, match="already registered"):
            pems.queries.register_continuous(
                scan(pems.environment, "sensors").query(), name="watch"
            )

    def test_deregister_stops_evaluation(self, pems):
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        pems.run(1)
        pems.queries.deregister_continuous("watch")
        last = cq.last_result
        pems.run(2)
        assert cq.last_result is last

    def test_unnamed_queries_never_reuse_a_taken_name(self, pems):
        def unnamed():
            return pems.queries.register_continuous_sql(
                "SELECT sensor, location FROM sensors"
            )

        pems.queries.register_continuous_sql(
            "SELECT sensor FROM sensors", name="query-2"
        )
        first, second = unnamed(), unnamed()
        assert pems.queries.continuous_query("query-1") is first
        assert pems.queries.continuous_query("query-3") is second
        pems.queries.deregister_continuous("query-1")
        third = unnamed()  # the count shrank; the sequence did not
        assert pems.queries.continuous_query("query-4") is third
        assert set(pems.queries.continuous_queries) == {
            "query-2",
            "query-3",
            "query-4",
        }

    def test_lookup(self, pems):
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        assert pems.queries.continuous_query("watch") is cq
        with pytest.raises(SerenaError):
            pems.queries.continuous_query("ghost")


class TestDiscoveryQueries:
    def test_initial_sync(self, pems):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        relation = pems.environment.instantaneous("sensors", pems.clock.now)
        assert relation.column("sensor") == ["sensor01"]

    def test_new_service_appears_in_table(self, pems):
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        plug_sensor(pems, "sensor01", "corridor")
        pems.run(1)
        relation = pems.environment.instantaneous("sensors", pems.clock.now)
        (row,) = relation.to_mappings()
        assert row == {"sensor": "sensor01", "location": "corridor"}

    def test_departed_service_removed(self, pems):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.run(1)
        pems.create_local_erm("field").deregister("sensor01")
        pems.run(1)
        assert len(pems.environment.instantaneous("sensors", pems.clock.now)) == 0

    def test_crashed_service_reaped_via_lease(self, pems):
        local = pems.create_local_erm("field", lease=4)
        local.register(TemperatureSensor("sensor01", "office").as_service())
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        local.crash()
        pems.run(12)
        assert len(pems.environment.instantaneous("sensors", pems.clock.now)) == 0

    def test_service_attribute_must_exist(self, pems):
        with pytest.raises(UnknownAttributeError):
            pems.queries.register_discovery("getTemperature", "sensors", "nope")

    def test_continuous_query_sees_updated_table_without_restart(self, pems):
        """The Section 5.2 experiment: new sensors integrate into running
        queries without stopping them."""
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        cq = pems.queries.register_continuous(
            scan(pems.environment, "sensors").invoke("getTemperature").query(),
            name="all-temps",
        )
        plug_sensor(pems, "sensor01")
        pems.run(1)
        assert len(cq.last_result.relation) == 1
        plug_sensor(pems, "sensor02")
        pems.run(1)
        assert len(cq.last_result.relation) == 2


class TestDiscoverySyncProportionalToChange:
    """The diff runs only when the registry's membership (or the rows
    tracked for the relation) moved since the last sync."""

    def count_scans(self, pems, monkeypatch):
        calls = []
        available = pems.erm.available

        def counting(prototype):
            calls.append(prototype.name)
            return available(prototype)

        monkeypatch.setattr(pems.erm, "available", counting)
        return calls

    def test_quiet_ticks_do_not_rescan_the_registry(self, pems, monkeypatch):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        calls = self.count_scans(pems, monkeypatch)
        pems.run(10)  # lease renewals re-announce the same service object
        assert calls == []
        plug_sensor(pems, "sensor02")
        pems.run(3)
        assert calls == ["getTemperature"]
        relation = pems.environment.instantaneous("sensors", pems.clock.now)
        assert relation.column("sensor") == ["sensor01", "sensor02"]
        pems.create_local_erm("field").deregister("sensor01")
        pems.run(3)
        assert calls == ["getTemperature"] * 2
        relation = pems.environment.instantaneous("sensors", pems.clock.now)
        assert relation.column("sensor") == ["sensor02"]

    def test_same_reference_replaced_by_another_service_is_rediffed(
        self, pems, monkeypatch
    ):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        calls = self.count_scans(pems, monkeypatch)
        plug_sensor(pems, "sensor01", "attic")  # new object, same reference
        pems.run(1)
        assert calls == ["getTemperature"]
        # discovery rows are announced-at-appearance snapshots: unchanged
        relation = pems.environment.instantaneous("sensors", pems.clock.now)
        assert relation.column("location") == ["office"]

    def test_two_discovery_queries_keep_their_own_sync_state(self, pems, monkeypatch):
        from repro.devices.scenario import cameras_schema

        pems.tables.create_relation(cameras_schema())
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        pems.queries.register_discovery("checkPhoto", "cameras", "camera")
        calls = self.count_scans(pems, monkeypatch)
        plug_sensor(pems, "sensor01")
        pems.run(2)
        assert sorted(calls) == ["checkPhoto", "getTemperature"]
        assert len(pems.environment.instantaneous("sensors", pems.clock.now)) == 1
        assert len(pems.environment.instantaneous("cameras", pems.clock.now)) == 0


class TestFailureRetention:
    """The failure log is bounded (one flaky service must not grow it
    without limit) and clearable."""

    def doomed_query(self, pems):
        # A query whose relation is dropped after registration: evaluation
        # raises UnknownRelationError every tick.
        query = (
            scan(pems.environment, "sensors").invoke("getTemperature").query("doomed")
        )
        pems.queries.register_continuous(query)
        pems.tables.drop_relation("sensors")

    def test_failure_log_is_capped(self, pems):
        from repro.pems.query_processor import FAILURE_LOG_SIZE

        self.doomed_query(pems)
        overflow = 10
        pems.run(FAILURE_LOG_SIZE + overflow)
        failures = pems.queries.failures
        assert len(failures) == FAILURE_LOG_SIZE
        # Oldest entries were dropped silently; newest retained.
        assert failures[0].instant == overflow + 1
        assert failures[-1].instant == FAILURE_LOG_SIZE + overflow
        assert all(f.query_name == "doomed" for f in failures)
        assert all(f.error_type is UnknownRelationError for f in failures)

    def test_clear_failures(self, pems):
        self.doomed_query(pems)
        pems.run(3)
        assert len(pems.queries.failures) == 3
        pems.queries.clear_failures()
        assert pems.queries.failures == []
        pems.run(1)
        assert len(pems.queries.failures) == 1


class TestSharedDeregistration:
    """Satellite coverage: deregistering one query of a shared plan
    releases only its own refcounts; co-owned subplans keep running."""

    def watch(self, pems, name):
        return pems.queries.register_continuous(
            scan(pems.environment, "sensors")
            .select(col("location").ne("void"))
            .query(),
            name=name,
        )

    def churn(self, pems, instant):
        pems.tables.insert(
            "sensors", [{"sensor": f"s{instant}", "location": f"room{instant}"}]
        )

    def test_deregister_releases_only_own_refcounts(self, pems):
        registry = pems.queries.shared
        self.watch(pems, "a")
        counts_single = dict(registry.refcounts())
        assert counts_single and all(c == 1 for c in counts_single.values())
        self.watch(pems, "b")
        assert all(c == 2 for c in registry.refcounts().values())
        pems.queries.deregister_continuous("a")
        assert dict(registry.refcounts()) == counts_single
        pems.queries.deregister_continuous("b")
        assert len(registry) == 0  # no leaked entries

    def test_survivor_keeps_running_after_co_owner_leaves(self, pems):
        a = self.watch(pems, "a")
        b = self.watch(pems, "b")
        oracle = ContinuousQuery(
            scan(pems.environment, "sensors")
            .select(col("location").ne("void"))
            .query(),
            pems.environment,
            engine="naive",
        )
        self.churn(pems, 0)
        for _ in range(2):
            pems.tick()
            oracle.evaluate_at(pems.clock.now)
        pems.queries.deregister_continuous("a")
        for _ in range(3):
            self.churn(pems, pems.clock.now)
            pems.tick()
            oracle.evaluate_at(pems.clock.now)
            assert (
                b.last_result.relation.tuples
                == oracle.last_result.relation.tuples
            )
            delta = b.last_reported_delta
            naive_delta = oracle.last_reported_delta
            assert frozenset(delta.inserted) == frozenset(naive_delta.inserted)
            assert frozenset(delta.deleted) == frozenset(naive_delta.deleted)
        assert a.last_result.instant < pems.clock.now  # a stopped ticking

    def test_reregistered_identical_query_reshares(self, pems):
        b = self.watch(pems, "b")
        self.watch(pems, "a")
        pems.run(2)
        pems.queries.deregister_continuous("a")
        a2 = self.watch(pems, "a")
        assert a2.sharing_summary["shared"] > 0
        shared_ids = {id(e) for e in b.executors()}
        assert any(id(e) in shared_ids for e in a2.executors())
        self.churn(pems, pems.clock.now)
        pems.run(1)
        assert a2.last_result.relation.tuples == b.last_result.relation.tuples

    def test_sharing_summary_shape(self, pems):
        a = self.watch(pems, "a")
        summary = a.sharing_summary
        assert summary["executors"] == summary["shared"] + summary["private"]
        assert summary["fingerprint"]
        assert all(
            lease["refcount"] >= 1 and lease["operator"] for lease in summary["leases"]
        )


class TestInstantInvocationMemo:
    """Identical invocations issued by different queries within one tick
    reach the device once (per-instant memo in the service registry)."""

    def test_duplicate_queries_invoke_once(self, pems):
        plug_sensor(pems, "sensor01")
        pems.queries.register_discovery("getTemperature", "sensors", "sensor")
        query = scan(pems.environment, "sensors").invoke("getTemperature")
        a = pems.queries.register_continuous(query.query(), name="a")
        # Same call shape, different (unshareable) private β executor:
        b = pems.queries.register_continuous(
            query.project("sensor", "temperature").query(), name="b"
        )
        registry = pems.environment.registry
        before = registry.invocation_count
        pems.run(1)
        assert registry.invocation_count == before + 1
        assert registry.memo_hits >= 1
        assert a.last_result.relation.tuples
        assert b.last_result.relation.tuples
        # Outside the tick loop the memo is off: a one-shot invocation
        # issued between ticks reaches the device again.
        result = pems.queries.execute(query.query())
        assert registry.invocation_count == before + 2
        assert len(result.relation) == 1


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(SerenaError, match="unknown execution engine"):
            PEMS(engine="quantum")
