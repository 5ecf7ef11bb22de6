"""Differential tests: shared-subplan execution vs the naive oracle.

Three layers, per the acceptance criteria (≥ 50 instants, churn along
the way):

* every Table 4 query runs on engine="shared" (private registry) in
  lockstep with the naive engine — same scripts as
  :mod:`tests.exec.test_differential`;
* a *multi-query* workload shares one registry and runs under the
  quiescence-aware :class:`TickScheduler`, with queries registered and
  deregistered mid-run; every instant the relation, reported delta and
  action set of each query must match a naive oracle evaluated every
  tick — while the scheduler demonstrably skips work;
* the Section 5.2 scenarios drive the full PEMS processor path
  (discovery sync, per-instant invocation memo, shared registry) with
  engine="shared".
"""

from repro.algebra import col, scan
from repro.continuous.continuous_query import ContinuousQuery
from repro.devices.faults import FaultInjector, FaultScript
from repro.exec.scheduler import TickScheduler
from repro.exec.shared import SharedPlanRegistry

import pytest

from tests.exec.test_differential import (
    TICKS,
    Rig,
    action_strings,
    camera_churn,
    contact_churn,
    drive_rss_scenario,
    drive_temperature_scenario,
    feed_stream,
    ghost_camera_churn,
    outbox_key,
    q1,
    q1_prime,
    q2,
    q2_prime,
    q3,
    q4,
    run_differential,
)

# ---------------------------------------------------------------------------
# Single-query lockstep: shared engine vs naive
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("make", "scripts"),
    [
        (q1, (contact_churn,)),
        (q1_prime, (contact_churn,)),
        (q2, (camera_churn,)),
        (q3, (feed_stream, contact_churn)),
        (q4, (feed_stream, ghost_camera_churn)),
    ],
    ids=["q1", "q1_prime", "q2", "q3", "q4"],
)
def test_table4_shared_differential(make, scripts):
    rigs, queries = {}, {}
    for engine in ("naive", "shared"):
        rig = Rig()
        rigs[engine] = rig
        queries[engine] = ContinuousQuery(
            make(rig.env), rig.env, engine=engine
        )
    for instant in range(1, TICKS + 1):
        per_engine = {}
        for engine in ("naive", "shared"):
            rig = rigs[engine]
            for script in scripts:
                script(rig, instant)
            result = queries[engine].evaluate_at(instant)
            delta = queries[engine].last_reported_delta
            per_engine[engine] = (
                result.relation.tuples,
                frozenset(delta.inserted),
                frozenset(delta.deleted),
                frozenset(result.actions),
            )
        assert per_engine["shared"] == per_engine["naive"], instant
    assert sorted(queries["shared"].emitted) == sorted(queries["naive"].emitted)
    assert action_strings(queries["shared"].actions) == action_strings(
        queries["naive"].actions
    )
    assert outbox_key(rigs["shared"].paper.outbox) == outbox_key(
        rigs["naive"].paper.outbox
    )


# ---------------------------------------------------------------------------
# Failing calls: a failed invocation contributes no tuples on every engine
# ---------------------------------------------------------------------------

#: webcam07's fault schedule: a crash window, an intermittent failure rate
#: and a malformed-output episode.  The two windows start at instants where
#: camera_churn (re-)inserts its row (1 and 9), so β's first calls on it fail.
WEBCAM_FAULTS = FaultScript(
    crash_windows=((1, 4),), failure_rate=0.3, malformed_windows=((9, 11),)
)
WEBCAM_SEED = "webcam"


def faulty_webcam_churn(rig, instant):
    """camera_churn with webcam07 replaying :data:`WEBCAM_FAULTS`."""
    if instant == 1:
        registry = rig.env.registry
        registry.register(
            FaultInjector(
                registry.get("webcam07"), WEBCAM_FAULTS, seed=WEBCAM_SEED
            ).as_service()
        )
    camera_churn(rig, instant)


FAILING_CALL_SHAPES = {
    "beta": lambda env: scan(env, "cameras").invoke("checkPhoto").query(),
    # `shared` lowers the pushdown fixpoint β(σ(cameras)), so it never
    # calls the failing roof devices that the oracle calls.
    "select-over-beta": lambda env: (
        scan(env, "cameras")
        .invoke("checkPhoto")
        .select(col("area").eq("office"))
        .query()
    ),
    "beta-over-select": lambda env: (
        scan(env, "cameras")
        .select(col("area").eq("roof"))
        .invoke("checkPhoto")
        .query()
    ),
    "project-over-beta": lambda env: (
        scan(env, "cameras").invoke("checkPhoto").project("area", "quality").query()
    ),
    "beta-delayed": lambda env: (
        scan(env, "cameras").invoke("checkPhoto", delay=2).query()
    ),
    "select-over-bindstream": lambda env: (
        scan(env, "cameras")
        .invoke_stream("checkPhoto")
        .window(1)
        .select(col("area").eq("roof"))
        .query()
    ),
}


@pytest.mark.parametrize(
    "churn", [ghost_camera_churn, faulty_webcam_churn], ids=["ghost", "faulty-webcam"]
)
@pytest.mark.parametrize(
    "shape", list(FAILING_CALL_SHAPES), ids=list(FAILING_CALL_SHAPES)
)
def test_engines_agree_where_calls_fail(shape, churn):
    """Definition 9 equivalence holds for every plan: tuples, reported
    deltas, action sets and outboxes agree with the oracle at every
    instant, however many of a plan's calls the pushdown leaves out."""
    run_differential(FAILING_CALL_SHAPES[shape], (churn,))


def test_the_webcam_script_trips_every_fault_kind():
    kinds = {
        WEBCAM_FAULTS.fault_at("webcam07", instant, WEBCAM_SEED)
        for instant in range(1, TICKS + 1)
    }
    assert {"crash", "malformed", "intermittent"} <= kinds


# ---------------------------------------------------------------------------
# Multi-query workload under the scheduler, with registration churn
# ---------------------------------------------------------------------------


class SharedRunner:
    """Shared registry + tick scheduler, the query-processor discipline."""

    def __init__(self):
        self.rig = Rig()
        self.registry = SharedPlanRegistry(self.rig.env)
        self.scheduler = TickScheduler(self.rig.env)
        self.queries: dict[str, ContinuousQuery] = {}

    def register(self, name, make):
        cq = ContinuousQuery(
            make(self.rig.env), self.rig.env, engine="shared",
            shared=self.registry,
        )
        self.queries[name] = cq
        self.scheduler.register(name, cq)

    def deregister(self, name):
        cq = self.queries.pop(name)
        self.scheduler.deregister(name)
        cq.release()

    def tick(self, instant):
        affected = self.scheduler.plan(instant)
        observed = {}
        for name in sorted(self.queries):
            cq = self.queries[name]
            try:
                if name in affected:
                    result = cq.evaluate_at(instant)
                    self.scheduler.evaluated(name, True)
                else:
                    result = cq.carry_forward(instant)
                    self.scheduler.skipped(name)
            except Exception as exc:
                self.scheduler.evaluated(name, False)
                observed[name] = ("failed", type(exc).__name__)
                continue
            delta = cq.last_reported_delta
            observed[name] = (
                result.relation.tuples,
                frozenset(delta.inserted),
                frozenset(delta.deleted),
                frozenset(result.actions),
            )
        return observed


class NaiveRunner:
    """The oracle: every registered query re-evaluated at every instant."""

    def __init__(self):
        self.rig = Rig()
        self.queries: dict[str, ContinuousQuery] = {}

    def register(self, name, make):
        self.queries[name] = ContinuousQuery(
            make(self.rig.env), self.rig.env, engine="naive"
        )

    def deregister(self, name):
        del self.queries[name]

    def tick(self, instant):
        observed = {}
        for name in sorted(self.queries):
            cq = self.queries[name]
            try:
                result = cq.evaluate_at(instant)
            except Exception as exc:
                observed[name] = ("failed", type(exc).__name__)
                continue
            delta = cq.last_reported_delta
            observed[name] = (
                result.relation.tuples,
                frozenset(delta.inserted),
                frozenset(delta.deleted),
                frozenset(result.actions),
            )
        return observed


#: instant → registration ops applied (in order) before that tick runs.
CHURN_OPS = {
    10: [("register", "q1p", q1_prime), ("register", "q2p", q2_prime)],
    20: [("deregister", "q1", None)],
    28: [("register", "q1", q1)],  # re-shares the warm Q1' subplans
    36: [("register", "q4", q4)],
    44: [("deregister", "q2p", None)],
}

SCRIPTS = (feed_stream, contact_churn, ghost_camera_churn)


def test_multi_query_scheduler_differential():
    shared, naive = SharedRunner(), NaiveRunner()
    for runner in (shared, naive):
        runner.register("q1", q1)
        runner.register("q2", q2)
        runner.register("q3", q3)
    for instant in range(1, TICKS + 1):
        for op, name, make in CHURN_OPS.get(instant, ()):
            for runner in (shared, naive):
                if op == "register":
                    runner.register(name, make)
                else:
                    runner.deregister(name)
        for runner in (shared, naive):
            for script in SCRIPTS:
                script(runner.rig, instant)
        expected = naive.tick(instant)
        observed = shared.tick(instant)
        assert observed.keys() == expected.keys()
        for name in expected:
            assert observed[name] == expected[name], (name, instant)
    # End-state parity: streams, actions and the messages actually sent.
    for name in shared.queries:
        cq_s, cq_n = shared.queries[name], naive.queries[name]
        assert sorted(cq_s.emitted) == sorted(cq_n.emitted), name
        assert action_strings(cq_s.actions) == action_strings(cq_n.actions), name
        assert [a.describe() for a in cq_s.action_log] == [
            a.describe() for a in cq_n.action_log
        ], name
    assert outbox_key(shared.rig.paper.outbox) == outbox_key(
        naive.rig.paper.outbox
    )
    # Sharing and quiescence actually happened (or the test proves
    # little): Q1/Q1' and Q2/Q2' are Table 5-equivalent, so the registry
    # holds fewer entries than the sum of private plans would...
    assert shared.registry.total_refcount > len(shared.registry)
    # ...and the relational queries skipped quiescent instants.
    assert shared.scheduler.skips > 0
    stats = shared.scheduler.stats
    assert stats["evaluations"] + stats["skips"] > 0


def test_deregistration_drains_the_registry():
    """After every query deregisters, no executor state is leaked."""
    shared = SharedRunner()
    shared.register("q1", q1)
    shared.register("q1p", q1_prime)
    shared.register("q2", q2)
    for instant in range(1, 11):
        for script in SCRIPTS:
            script(shared.rig, instant)
        shared.tick(instant)
    for name in list(shared.queries):
        shared.deregister(name)
    assert len(shared.registry) == 0
    assert shared.registry.total_refcount == 0
    assert len(shared.scheduler) == 0


# ---------------------------------------------------------------------------
# Section 5.2 scenarios through the full PEMS processor path
# ---------------------------------------------------------------------------


def test_temperature_scenario_shared_differential():
    naive, naive_snaps = drive_temperature_scenario("naive")
    shared, shared_snaps = drive_temperature_scenario("shared")
    assert shared_snaps == naive_snaps
    for name in naive.queries:
        cq_n, cq_s = naive.queries[name], shared.queries[name]
        assert sorted(cq_s.emitted) == sorted(cq_n.emitted), name
        assert action_strings(cq_s.actions) == action_strings(cq_n.actions), name
    assert outbox_key(shared.outbox) == outbox_key(naive.outbox)
    assert naive.outbox.messages  # churn had observable consequences


def test_rss_scenario_shared_differential():
    naive, naive_snaps = drive_rss_scenario("naive")
    shared, shared_snaps = drive_rss_scenario("shared")
    assert shared_snaps == naive_snaps
    for name in naive.queries:
        cq_n, cq_s = naive.queries[name], shared.queries[name]
        assert sorted(cq_s.emitted) == sorted(cq_n.emitted), name
        assert action_strings(cq_s.actions) == action_strings(cq_n.actions), name
    assert outbox_key(shared.outbox) == outbox_key(naive.outbox)
