"""Unit tests for plan fingerprinting and the shared-plan registry."""

import pytest

from repro.algebra import Query, Selection, col, plan_fingerprint, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.errors import SerenaError
from repro.exec.executors import (
    InvocationExec,
    ScanExec,
    SelectionExec,
    WindowExec,
)
from repro.exec.shared import SharedEngine, SharedPlanRegistry
from repro.model.attributes import Attribute
from repro.model.binding import BindingPattern
from repro.model.environment import PervasiveEnvironment
from repro.model.prototypes import Prototype
from repro.model.services import Service
from repro.model.types import DataType
from repro.model.xschema import ExtendedRelationSchema

ECHO = Prototype(
    "echo",
    ExtendedRelationSchema("echoIn", [Attribute("item", DataType.STRING)]),
    ExtendedRelationSchema("echoOut", [Attribute("label", DataType.STRING)]),
)


def items_schema():
    return ExtendedRelationSchema(
        "items",
        [
            Attribute("item", DataType.STRING),
            Attribute("device", DataType.SERVICE),
            Attribute("value", DataType.REAL),
            Attribute("label", DataType.STRING),
        ],
        virtual={"label"},
        binding_patterns=[BindingPattern(ECHO, "device")],
    )


def build_env():
    env = PervasiveEnvironment()
    items = XDRelation(items_schema())
    items.insert(
        [(f"item{i}", "dev", float(i)) for i in range(6)], instant=0
    )
    env.add_relation(items)
    readings = XDRelation(
        ExtendedRelationSchema(
            "readings",
            [Attribute("item", DataType.STRING), Attribute("value", DataType.REAL)],
        ),
        infinite=True,
    )
    env.add_relation(readings)
    env.declare_prototype(ECHO)
    env.registry.register(
        Service(
            "dev",
            {ECHO: lambda inputs, instant: [(inputs[0].upper(),)]},
        )
    )
    return env, items


def prefix(env):
    return scan(env, "items").select(col("value").ge(2.0))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_identical_plans_fingerprint_identically(self):
        env, _ = build_env()
        assert plan_fingerprint(prefix(env).query()) == plan_fingerprint(
            prefix(env).query()
        )

    def test_rewrite_equivalent_plans_coincide(self):
        """σ merged vs cascaded, σ above vs below β (Table 5) — one key."""
        env, _ = build_env()
        merged = (
            scan(env, "items")
            .select(col("value").ge(2.0) & col("item").ne("item5"))
            .query()
        )
        cascaded = (
            scan(env, "items")
            .select(col("value").ge(2.0))
            .select(col("item").ne("item5"))
            .query()
        )
        assert plan_fingerprint(merged) == plan_fingerprint(cascaded)
        below = prefix(env).invoke("echo").query()
        inner = scan(env, "items").invoke("echo").node
        above = Query(Selection(inner, col("value").ge(2.0)))
        assert plan_fingerprint(below) == plan_fingerprint(above)

    def test_different_plans_differ(self):
        env, _ = build_env()
        a = scan(env, "items").select(col("value").ge(2.0)).query()
        b = scan(env, "items").select(col("value").ge(3.0)).query()
        assert plan_fingerprint(a) != plan_fingerprint(b)


# ---------------------------------------------------------------------------
# Registry: identity, refcounts, exclusions
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_common_prefix_shares_executor_instances(self):
        env, _ = build_env()
        registry = SharedPlanRegistry(env)
        a = SharedEngine(prefix(env).project("item").query(), env, registry)
        b = SharedEngine(prefix(env).project("value").query(), env, registry)
        shared = registry.lookup(prefix(env).node)
        assert shared is not None
        a_execs = {id(e) for e in a.executors()}
        b_execs = {id(e) for e in b.executors()}
        assert id(shared) in a_execs and id(shared) in b_execs
        assert a.root is not b.root  # distinct projections stay private...
        # ...no: distinct projections are themselves shareable but differ
        # structurally, so each has its own entry.
        assert registry.lookup(prefix(env).project("item").node) is a.root

    def test_rewrite_equivalent_queries_share_the_root(self):
        env, _ = build_env()
        registry = SharedPlanRegistry(env)
        merged = (
            scan(env, "items")
            .select(col("value").ge(2.0) & col("item").ne("item5"))
            .query()
        )
        cascaded = (
            scan(env, "items")
            .select(col("value").ge(2.0))
            .select(col("item").ne("item5"))
            .query()
        )
        a = SharedEngine(merged, env, registry)
        b = SharedEngine(cascaded, env, registry)
        assert a.root is b.root

    def test_refcounts_and_release(self):
        env, _ = build_env()
        registry = SharedPlanRegistry(env)
        a = SharedEngine(prefix(env).query(), env, registry)
        assert len(registry) == 2  # scan + selection
        b = SharedEngine(prefix(env).query(), env, registry)
        assert len(registry) == 2
        assert all(count == 2 for count in registry.refcounts().values())
        a.release()
        assert len(registry) == 2
        assert all(count == 1 for count in registry.refcounts().values())
        a.release()  # idempotent
        assert all(count == 1 for count in registry.refcounts().values())
        b.release()
        assert len(registry) == 0

    def test_invocations_stay_private(self):
        env, _ = build_env()
        registry = SharedPlanRegistry(env)
        query = prefix(env).invoke("echo")
        a = SharedEngine(query.query(), env, registry)
        b = SharedEngine(query.query(), env, registry)
        a_beta = [e for e in a.executors() if isinstance(e, InvocationExec)]
        b_beta = [e for e in b.executors() if isinstance(e, InvocationExec)]
        assert a_beta and b_beta and a_beta[0] is not b_beta[0]
        # ...but the subplan below the invocation is shared.
        assert a_beta[0].children[0] is b_beta[0].children[0]

    def test_window_shared_only_over_journaled_scan(self):
        env, _ = build_env()
        registry = SharedPlanRegistry(env)
        journaled = scan(env, "readings").window(2).query()
        a = SharedEngine(journaled, env, registry)
        b = SharedEngine(scan(env, "readings").window(2).query(), env, registry)
        aw = [e for e in a.executors() if isinstance(e, WindowExec)]
        bw = [e for e in b.executors() if isinstance(e, WindowExec)]
        assert aw[0] is bw[0]
        # The journal-fed window is a leaf: no scan is built under it.
        assert aw[0].children == ()
        assert a.executors() == [aw[0]] and len(registry) == 1
        # A window over a *derived* stream (W over S) has no journal to
        # replay, so it stays private; the stream below it is shared.
        derived = prefix(env).stream("insertion").window(2)
        c = SharedEngine(derived.query(), env, registry)
        d = SharedEngine(derived.query(), env, registry)
        cw = [e for e in c.executors() if isinstance(e, WindowExec)]
        dw = [e for e in d.executors() if isinstance(e, WindowExec)]
        assert cw[0] is not dw[0]  # derived window: private
        assert cw[0].children[0] is dw[0].children[0]

    def test_registry_environment_must_match(self):
        env, _ = build_env()
        other, _ = build_env()
        registry = SharedPlanRegistry(env)
        with pytest.raises(SerenaError, match="different environment"):
            SharedEngine(prefix(other).query(), other, registry)


# ---------------------------------------------------------------------------
# Fresh-over-warm: late registration sees what a fresh query would
# ---------------------------------------------------------------------------


class TestStandaloneQuery:
    def test_private_registry_is_summarized_and_emptied_on_release(self):
        """A query built without a registry runs on a private one: its
        sharing summary is populated and release drops every entry."""
        env, _ = build_env()
        cq = ContinuousQuery(prefix(env).invoke("echo").query("q"), env)
        cq.evaluate_at(1)
        registry = cq._engine.registry
        summary = cq.sharing_summary
        assert (summary["executors"], summary["shared"], summary["private"]) == (
            3,
            2,
            1,  # the β node always stays private
        )
        assert [lease["refcount"] for lease in summary["leases"]] == [1, 1]
        assert len(registry) == 2 and registry.total_refcount == 2
        cq.release()
        assert len(registry) == 0 and registry.total_refcount == 0
        cq.release()  # idempotent
        assert ContinuousQuery(
            prefix(env).query("n"), env, engine="naive"
        ).sharing_summary is None


class TestLateRegistration:
    def churn(self, env, instant):
        items = env.relation("items")
        items.insert([(f"new{instant}", "dev", 10.0 + instant)], instant=instant)
        items.delete([(f"item{instant % 6}", "dev", float(instant % 6))],
                     instant=instant)
        env.relation("readings").insert(
            [(f"r{instant}", float(instant))], instant=instant
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda env: prefix(env).project("item").query(),
            lambda env: prefix(env).query(),
            lambda env: scan(env, "readings").window(3).query(),
            lambda env: prefix(env).stream("insertion").query(),
            lambda env: prefix(env).invoke("echo").query(),
        ],
        ids=["projection", "selection", "window", "stream", "invocation"],
    )
    def test_late_query_matches_fresh_naive(self, make):
        env, items = build_env()
        registry = SharedPlanRegistry(env)
        warm_queries = [
            ContinuousQuery(prefix(env).query(), env, engine="shared",
                            shared=registry),
            ContinuousQuery(scan(env, "readings").window(3).query(), env,
                            engine="shared", shared=registry),
        ]
        for instant in range(1, 5):
            self.churn(env, instant)
            for warm in warm_queries:
                warm.evaluate_at(instant)
        # Instant 5: a structurally overlapping query registers late, over
        # subplans that are already warm.
        self.churn(env, 5)
        late = ContinuousQuery(make(env), env, engine="shared", shared=registry)
        oracle = ContinuousQuery(make(env), env, engine="naive")
        for instant in range(5, 12):
            if instant > 5:
                self.churn(env, instant)
            a = late.evaluate_at(instant)
            b = oracle.evaluate_at(instant)
            for warm in warm_queries:
                warm.evaluate_at(instant)
            assert a.relation.tuples == b.relation.tuples, instant
            assert frozenset(a.actions) == frozenset(b.actions), instant
        assert sorted(late.emitted) == sorted(oracle.emitted)


# ---------------------------------------------------------------------------
# A stream dropped and re-created under the same name
# ---------------------------------------------------------------------------


def test_window_rereads_a_recreated_stream():
    """The journal-fed window forgets the dropped stream's buckets and
    reads the new stream's earlier writes, exactly like the oracle."""
    schema = ExtendedRelationSchema("s", [Attribute("reading", DataType.STRING)])
    env = PervasiveEnvironment()
    old = XDRelation(schema, infinite=True)
    env.add_relation(old)
    engines = [
        ContinuousQuery(scan(env, "s").window(3).query("w"), env, engine=engine)
        for engine in ("shared", "naive")
    ]
    for instant in range(1, 8):
        if instant <= 3:
            old.insert([(f"old{instant}",)], instant=instant)
        if instant == 4:
            env.remove_relation("s")
            new = XDRelation(schema, infinite=True)
            new.insert([("new2",)], instant=2)
            new.insert([("new4",)], instant=4)
            env.add_relation(new)
        shared, naive = (cq.evaluate_at(instant) for cq in engines)
        assert shared.relation.tuples == naive.relation.tuples, instant
        assert engines[0].last_reported_delta == engines[1].last_reported_delta
    assert shared.relation.tuples == frozenset()  # instant 7: all expired
