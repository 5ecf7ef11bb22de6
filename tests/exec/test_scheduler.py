"""Unit tests for the quiescence-aware tick scheduler."""

import pytest

from repro.continuous.continuous_query import ContinuousQuery
from repro.errors import SerenaError, UnknownRelationError
from repro.exec.scheduler import TickScheduler, _plan_dependencies
from repro.exec.shared import SharedPlanRegistry
from repro.model.services import Service
from repro.pems.erm import DiscoveryEvent

from tests.exec.test_shared import ECHO, build_env, prefix

from repro.algebra import col, scan


def make_rig():
    env, items = build_env()
    registry = SharedPlanRegistry(env)
    scheduler = TickScheduler(env)
    return env, items, registry, scheduler


def add(env, registry, scheduler, name, query, engine="shared"):
    cq = ContinuousQuery(
        query, env, engine=engine,
        shared=registry if engine == "shared" else None,
    )
    scheduler.register(name, cq)
    return cq


def drive(scheduler, queries, instant):
    """One processor-style tick: evaluate the affected, skip the rest."""
    affected = scheduler.plan(instant)
    for name, cq in queries.items():
        if name in affected:
            try:
                cq.evaluate_at(instant)
            except Exception:
                scheduler.evaluated(name, False)
            else:
                scheduler.evaluated(name, True)
        else:
            cq.carry_forward(instant)
            scheduler.skipped(name)
    return affected


class TestDependencies:
    def test_relations_and_prototypes_extracted(self):
        env, _ = build_env()
        plan = prefix(env).invoke("echo").query().root
        relations, prototypes = _plan_dependencies(plan)
        assert relations == frozenset({"items"})
        assert prototypes == frozenset({"echo"})

    def test_join_collects_both_scans(self):
        env, _ = build_env()
        plan = (
            scan(env, "readings")
            .window(2)
            .join(scan(env, "items"))
            .query()
            .root
        )
        relations, _ = _plan_dependencies(plan)
        assert relations == frozenset({"items", "readings"})


class TestScheduling:
    def test_fresh_query_is_affected_then_quiesces(self):
        env, items, registry, scheduler = make_rig()
        q = {"a": add(env, registry, scheduler, "a", prefix(env).query())}
        assert "a" in drive(scheduler, q, 1)
        assert "a" not in drive(scheduler, q, 2)  # nothing changed
        assert scheduler.stats == {"scheduled": 1, "evaluations": 1, "skips": 1}

    def test_relation_write_wakes_dependents(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "a": add(env, registry, scheduler, "a", prefix(env).query()),
            "b": add(
                env, registry, scheduler, "b",
                scan(env, "items").select(col("value").ge(4.0)).query(),
            ),
        }
        drive(scheduler, q, 1)
        items.insert([("fresh", "dev", 9.0)], instant=2)
        assert drive(scheduler, q, 2) == {"a", "b"}
        assert drive(scheduler, q, 3) == set()
        assert q["a"].last_result.relation.tuples == frozenset(
            t for t in items.instantaneous(3).tuples if t[2] >= 2.0
        )

    def test_noop_write_does_not_wake(self):
        env, items, registry, scheduler = make_rig()
        q = {"a": add(env, registry, scheduler, "a", prefix(env).query())}
        drive(scheduler, q, 1)
        # Inserting an already-present tuple is a journal no-op: the
        # revision must not move, so the query stays quiescent.
        items.insert([("item0", "dev", 0.0)], instant=2)
        assert drive(scheduler, q, 2) == set()

    def test_carried_result_advances_instant_with_empty_delta(self):
        env, items, registry, scheduler = make_rig()
        q = {"a": add(env, registry, scheduler, "a", prefix(env).query())}
        drive(scheduler, q, 1)
        drive(scheduler, q, 2)
        cq = q["a"]
        assert cq.last_result.instant == 2
        delta = cq.last_reported_delta
        assert not delta.inserted and not delta.deleted
        assert not cq.last_result.actions

    def test_window_query_is_always_live(self):
        env, items, registry, scheduler = make_rig()
        readings = env.relation("readings")
        readings.insert([("r1", 1.0)], instant=0)
        q = {
            "w": add(
                env, registry, scheduler, "w",
                scan(env, "readings").window(2).query(),
            )
        }
        for instant in range(1, 6):
            assert "w" in drive(scheduler, q, instant)
        # Window contents expire even with a silent source.
        assert q["w"].last_result.relation.tuples == frozenset()

    def test_stream_query_is_always_live(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "s": add(
                env, registry, scheduler, "s",
                prefix(env).stream("insertion").query(),
            )
        }
        for instant in range(1, 4):
            assert "s" in drive(scheduler, q, instant)

    def test_invocation_query_quiesces_once_cache_is_warm(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "i": add(
                env, registry, scheduler, "i",
                prefix(env).invoke("echo").query(),
            )
        }
        before = env.registry.invocation_count
        drive(scheduler, q, 1)
        warm = env.registry.invocation_count
        assert warm > before
        assert drive(scheduler, q, 2) == set()
        assert env.registry.invocation_count == warm

    def test_naive_query_is_never_skipped(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "n": add(
                env, registry, scheduler, "n", prefix(env).query(),
                engine="naive",
            )
        }
        for instant in range(1, 4):
            assert "n" in drive(scheduler, q, instant)
        assert scheduler.skips == 0

    def test_failed_query_retries_every_tick(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "f": add(
                env, registry, scheduler, "f",
                prefix(env).invoke("echo").query(),
            )
        }
        env.remove_relation("items")  # evaluating the scan now raises
        failures = 0
        for instant in range(1, 5):
            affected = scheduler.plan(instant)
            assert "f" in affected  # retried while the cause persists
            try:
                q["f"].evaluate_at(instant)
            except UnknownRelationError:
                failures += 1
                scheduler.evaluated("f", False)
            else:
                scheduler.evaluated("f", True)
        assert failures == 4

    def test_discovery_event_wakes_prototype_dependents(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "i": add(
                env, registry, scheduler, "i",
                prefix(env).invoke("echo").query(),
            ),
            "p": add(env, registry, scheduler, "p", prefix(env).query()),
        }
        drive(scheduler, q, 1)
        service = env.registry.get("dev")
        scheduler.on_discovery_event(DiscoveryEvent("appeared", service, 1))
        affected = drive(scheduler, q, 2)
        assert "i" in affected  # invokes echo: woken
        assert "p" not in affected  # pure relational query: quiescent

    def test_duplicate_registration_rejected(self):
        env, items, registry, scheduler = make_rig()
        cq = add(env, registry, scheduler, "a", prefix(env).query())
        with pytest.raises(SerenaError, match="already scheduled"):
            scheduler.register("a", cq)

    def test_deregister_cleans_all_indexes(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "a": add(
                env, registry, scheduler, "a",
                prefix(env).invoke("echo").query(),
            )
        }
        drive(scheduler, q, 1)
        scheduler.deregister("a")
        assert "a" not in scheduler
        assert len(scheduler) == 0
        items.insert([("fresh", "dev", 9.0)], instant=2)
        assert scheduler.plan(2) == set()
        scheduler.deregister("a")  # idempotent


class TestLivenessDowngrade:
    """A once-live query must leave the live set when its streaming or
    pending invocations drain — otherwise it is re-evaluated every tick
    forever, defeating quiescence."""

    def test_async_live_then_drained_then_carried_forward(self):
        env, items, registry, scheduler = make_rig()
        q = {
            "a": add(
                env, registry, scheduler, "a",
                prefix(env).invoke("echo", delay=2).query(),
            )
        }
        drive(scheduler, q, 1)                  # requests issued, due at 3
        assert "a" in drive(scheduler, q, 2)    # in flight: live
        assert "a" in drive(scheduler, q, 3)    # responses land
        assert "a" not in drive(scheduler, q, 4)  # drained: carried forward
        assert q["a"].last_result.instant == 4
        assert len(q["a"].last_result.relation) == 4

    def test_skip_pending_keeps_query_live(self):
        """Pinned: a failed call is retried every instant while its tuple
        stays present — the query never quiesces."""
        env, items, registry, scheduler = make_rig()
        items.insert([("ghost", "nodev", 9.0)], instant=0)
        q = {
            "a": add(
                env, registry, scheduler, "a",
                scan(env, "items").invoke("echo").query(),
            )
        }
        for instant in (1, 2, 3, 4):
            assert "a" in drive(scheduler, q, instant)

    def test_evaluated_failure_recomputes_liveness(self):
        """Regression: the failure path of evaluated() used to early-return
        without the liveness downgrade, leaving a drained query in the
        live set."""
        env, items, registry, scheduler = make_rig()
        q = {
            "a": add(
                env, registry, scheduler, "a",
                prefix(env).invoke("echo", delay=2).query(),
            )
        }
        drive(scheduler, q, 1)
        drive(scheduler, q, 2)
        drive(scheduler, q, 3)                 # responses landed: drained
        assert "a" not in scheduler._live
        scheduler._live.add("a")               # the stale pre-fix state
        scheduler.evaluated("a", False)        # a failed outcome...
        assert "a" not in scheduler._live      # ...must also downgrade
        assert "a" in scheduler._failed
        scheduler.evaluated("a", True)
        assert "a" not in scheduler._failed
