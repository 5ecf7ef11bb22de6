"""Tests for tick-loop failure isolation in the query processor."""

import pytest

from repro.algebra import scan
from repro.devices.prototypes import STANDARD_PROTOTYPES
from repro.devices.scenario import sensors_schema
from repro.devices.sensors import TemperatureSensor
from repro.errors import UnknownRelationError
from repro.pems.pems import PEMS


@pytest.fixture
def pems():
    system = PEMS()
    for prototype in STANDARD_PROTOTYPES:
        system.environment.declare_prototype(prototype)
    system.tables.create_relation(sensors_schema())
    system.tables.insert(
        "sensors", [{"sensor": "ghost", "location": "nowhere"}]
    )
    return system


def doomed_query(pems, name):
    """A query over its own relation, which is then dropped: every
    evaluation raises UnknownRelationError until the relation is
    re-created.  (A failed invocation is no query failure: it only
    contributes no tuples.)"""
    pems.tables.create_relation(sensors_schema(), name="doomed")
    query = pems.queries.register_continuous(
        scan(pems.environment, "doomed").invoke("getTemperature").query(),
        name=name,
    )
    pems.tables.drop_relation("doomed")
    return query


class TestFailureIsolation:
    def test_failing_query_is_logged_not_fatal(self, pems):
        doomed_query(pems, "bad")
        pems.run(3)
        failures = pems.queries.failures
        assert len(failures) == 3
        assert all(f.query_name == "bad" for f in failures)
        assert all(f.error_type is UnknownRelationError for f in failures)
        assert all("doomed" in f.error_message for f in failures)
        assert all("UnknownRelationError" in f.error_repr for f in failures)
        assert pems.clock.now == 3  # the clock kept running

    def test_retained_failure_does_not_pin_executor_state(self, pems):
        """A QueryFailure must not keep the failed query's executors alive:
        storing the live exception would pin them through its traceback
        frames for up to FAILURE_LOG_SIZE entries."""
        import gc
        import weakref

        bad = doomed_query(pems, "bad")
        pems.run(1)
        (failure,) = pems.queries.failures
        executor_refs = [weakref.ref(e) for e in bad.executors()]
        assert executor_refs
        pems.queries.deregister_continuous("bad")
        del bad
        gc.collect()
        # The failure record is still retained, yet no executor survives —
        # i.e. the record holds no live exception/traceback referring back
        # into the engine.
        assert pems.queries.failures == [failure]
        assert all(ref() is None for ref in executor_refs)
        referrers = gc.get_referrers(failure)
        assert all(not isinstance(r, BaseException) for r in referrers)

    def test_other_queries_keep_evaluating(self, pems):
        doomed_query(pems, "bad")
        good = pems.queries.register_continuous(
            scan(pems.environment, "sensors").query(), name="watch"
        )
        pems.run(2)
        assert good.last_result is not None
        assert good.last_result.instant == 2

    def test_failed_query_recovers_when_cause_disappears(self, pems):
        bad = doomed_query(pems, "flaky")
        pems.run(1)
        assert len(pems.queries.failures) == 1
        # The relation comes back with a row whose service is registered:
        # the query starts succeeding.
        pems.tables.create_relation(sensors_schema(), name="doomed")
        pems.tables.insert("doomed", [{"sensor": "ghost", "location": "nowhere"}])
        pems.environment.register_service(
            TemperatureSensor("ghost", "nowhere").as_service()
        )
        pems.run(1)
        assert len(pems.queries.failures) == 1  # no new failures
        assert bad.last_result is not None
        assert len(bad.last_result.relation) == 1

    def test_no_failures_in_healthy_system(self, pems):
        pems.environment.register_service(
            TemperatureSensor("ghost", "nowhere").as_service()
        )
        pems.queries.register_continuous(
            scan(pems.environment, "sensors").invoke("getTemperature").query(),
            name="fine",
        )
        pems.run(5)
        assert pems.queries.failures == []
