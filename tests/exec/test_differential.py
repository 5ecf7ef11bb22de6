"""Differential tests: every physical engine vs the naive oracle.

Every Table 4 query plus the Section 5.2 temperature/RSS scenarios run on
the naive oracle and every engine of :mod:`tests.engines` in lockstep —
independent but identically-scripted environments, ≥ 50 instants, with
relation churn and service churn along the way.  At every instant the
engines must agree on:

* the instantaneous result relation,
* the reported delta (``inserted``/``deleted``),
* the triggered action set,

and at the end on the accumulated emitted stream, the cumulative action
log and the outbox of messages actually sent.

Within a single instant the *order* in which tuples are invoked is not
part of the algebra's semantics (a relation is a set), so per-instant
collections are compared as sets / sorted sequences.
"""

import pytest

from repro.algebra import Query, Selection, col, scan
from repro.algebra.context import EvaluationContext
from repro.continuous.continuous_query import ContinuousQuery
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import CAMERA_SPECS, CONTACT_ROWS, build_paper_example
from repro.devices.scenario import (
    build_rss_scenario,
    build_temperature_surveillance,
    cameras_schema,
    contacts_schema,
    temperatures_schema,
)
from repro.pems.pems import PEMS

from tests.engines import NAIVE, PAIRS

TICKS = 55  # ≥ 50 instants per the acceptance criteria


# ---------------------------------------------------------------------------
# Table 4 queries (same plans as benchmarks/test_bench_table4_queries.py)
# ---------------------------------------------------------------------------


def q1(env):
    return (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Bonjour!")
        .invoke("sendMessage")
        .query("Q1")
    )


def q1_prime(env):
    inner = (
        scan(env, "contacts").assign("text", "Bonjour!").invoke("sendMessage").node
    )
    return Query(Selection(inner, col("name").ne("Carla")), "Q1'")


def q2(env):
    return (
        scan(env, "cameras")
        .select(col("area").eq("office"))
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .project("photo")
        .query("Q2")
    )


def q2_prime(env):
    return (
        scan(env, "cameras")
        .invoke("checkPhoto")
        .select(col("quality").ge(5))
        .invoke("takePhoto")
        .select(col("area").eq("office"))
        .project("photo")
        .query("Q2'")
    )


def q3(env):
    return (
        scan(env, "temperatures")
        .window(1)
        .select(col("temperature").gt(35.5))
        .project("location", "temperature")
        .join(scan(env, "contacts"))
        .assign("text", "Hot!")
        .invoke("sendMessage")
        .query("Q3")
    )


def q4(env):
    return (
        scan(env, "temperatures")
        .window(1)
        .select(col("temperature").lt(12.0))
        .rename("location", "area")
        .join(scan(env, "cameras"))
        .invoke("checkPhoto", on_error="skip")
        .invoke("takePhoto", on_error="skip")
        .project("area", "photo", "at")
        .stream("insertion")
        .query("Q4")
    )


# ---------------------------------------------------------------------------
# Scripted environments and churn
# ---------------------------------------------------------------------------


class Rig:
    """The paper environment with journaled base tables and a stream."""

    def __init__(self):
        self.paper = build_paper_example()
        self.env = self.paper.environment
        # Swap the static contacts/cameras X-Relations for journaled
        # XD-Relations so the churn scripts can mutate them per instant.
        self.contacts = XDRelation(contacts_schema())
        self.contacts.insert_mappings(CONTACT_ROWS, instant=0)
        self.env.add_relation(self.contacts)
        self.cameras = XDRelation(cameras_schema())
        self.cameras.insert_mappings(
            [{"camera": ref, "area": area} for ref, area, _, _ in CAMERA_SPECS],
            instant=0,
        )
        self.env.add_relation(self.cameras)
        self.stream = XDRelation(temperatures_schema(), infinite=True)
        self.env.add_relation(self.stream)


def feed_stream(rig, instant):
    """Deterministic readings; office crosses 35.5 and roof crosses 12.0
    in bursts, so Q3 and Q4 both fire intermittently."""
    office = 36.0 + (instant % 5) if instant % 10 < 5 else 22.0
    roof = 10.0 if instant % 6 < 3 else 15.0
    rig.stream.insert(
        [
            ("sensor06", "office", office, instant),
            ("sensor22", "roof", roof, instant),
        ],
        instant=instant,
    )


def contact_churn(rig, instant):
    """Guests come and go: a new email contact every 8 instants, gone
    four instants later."""
    if instant % 8 == 2:
        rig.contacts.insert_mappings(
            [
                {
                    "name": f"Guest{instant}",
                    "address": f"guest{instant}@x",
                    "messenger": "email",
                }
            ],
            instant=instant,
        )
    if instant % 8 == 6 and instant >= 8:
        gone = instant - 4
        rig.contacts.delete_mappings(
            [
                {
                    "name": f"Guest{gone}",
                    "address": f"guest{gone}@x",
                    "messenger": "email",
                }
            ],
            instant=instant,
        )


def camera_churn(rig, instant):
    """The roof webcam row flaps (service stays registered)."""
    row = {"camera": "webcam07", "area": "roof"}
    if instant % 12 == 5:
        rig.cameras.delete_mappings([row], instant=instant)
    if instant % 12 == 9:
        rig.cameras.insert_mappings([row], instant=instant)


def ghost_camera_churn(rig, instant):
    """Service churn: a cameras row whose service does not exist appears
    and disappears — invocations on it fail, exercising on_error='skip'."""
    camera_churn(rig, instant)
    row = {"camera": "ghost42", "area": "roof"}
    if instant % 14 == 3:
        rig.cameras.insert_mappings([row], instant=instant)
    if instant % 14 == 10:
        rig.cameras.delete_mappings([row], instant=instant)


# ---------------------------------------------------------------------------
# The lockstep harness
# ---------------------------------------------------------------------------


def reported_delta(cq, instant):
    if cq._engine is not None:
        delta = cq._engine.reported
        return frozenset(delta.inserted), frozenset(delta.deleted)
    ctx = EvaluationContext(cq.environment, instant, cq._states, continuous=True)
    return (
        frozenset(cq.query.root.inserted(ctx)),
        frozenset(cq.query.root.deleted(ctx)),
    )


def outbox_key(outbox):
    return sorted(
        (m.instant, m.channel, m.address, m.text, m.delivered)
        for m in outbox.messages
    )


def action_strings(actions):
    return sorted(a.describe() for a in actions)


def run_differential(make_query, scripts, ticks=TICKS, engines=PAIRS):
    """Run one Table 4 query on the oracle and every engine over
    identically-scripted environments; assert instant-by-instant
    agreement with the oracle.  Returns the queries keyed by engine."""
    rigs = {}
    queries = {}
    for engine in (NAIVE, *engines):
        rig = Rig()
        rigs[engine] = rig
        queries[engine] = ContinuousQuery(
            make_query(rig.env), rig.env, engine=engine
        )
    for instant in range(1, ticks + 1):
        per_engine = {}
        for engine, rig in rigs.items():
            for script in scripts:
                script(rig, instant)
            result = queries[engine].evaluate_at(instant)
            per_engine[engine] = (
                result.relation.tuples,
                reported_delta(queries[engine], instant),
                frozenset(result.actions),
            )
        naive = per_engine[NAIVE]
        for engine in engines:
            got = per_engine[engine]
            assert got[0] == naive[0], f"{engine} relation differs at {instant}"
            assert got[1] == naive[1], f"{engine} delta differs at {instant}"
            assert got[2] == naive[2], f"{engine} actions differ at {instant}"
    cq_n = queries[NAIVE]
    for engine in engines:
        cq = queries[engine]
        assert sorted(cq.emitted) == sorted(cq_n.emitted), engine
        assert action_strings(cq.actions) == action_strings(cq_n.actions), engine
        assert [a.describe() for a in cq.action_log] == [
            a.describe() for a in cq_n.action_log
        ], engine
        assert outbox_key(rigs[engine].paper.outbox) == outbox_key(
            rigs[NAIVE].paper.outbox
        ), engine
    return queries


@pytest.mark.parametrize(
    ("make", "scripts"),
    [
        (q1, (contact_churn,)),
        (q1_prime, (contact_churn,)),
        (q2, (camera_churn,)),
        (q2_prime, (camera_churn,)),
        (q3, (feed_stream, contact_churn)),
        (q4, (feed_stream, ghost_camera_churn)),
    ],
    ids=["q1", "q1_prime", "q2", "q2_prime", "q3", "q4"],
)
def test_table4_differential(make, scripts):
    queries = run_differential(make, scripts)
    # The scripts must actually produce work, or the test proves nothing.
    cq = queries[PAIRS[0]]
    assert cq.action_log or cq.emitted or cq.last_result.relation.tuples


def test_q4_emits_and_skips_the_ghost_camera():
    """Sanity on the Q4 run: the stream emitted photos and the ghost
    camera never produced one (its invocations failed and were skipped)."""
    queries = run_differential(q4, (feed_stream, ghost_camera_churn))
    emitted = queries[PAIRS[0]].emitted
    assert emitted
    schema = queries[PAIRS[0]].query.schema
    areas = {schema.mapping_from_tuple(t)["area"] for _, t in emitted}
    assert areas == {"roof"}


# ---------------------------------------------------------------------------
# Section 5.2 scenarios with service churn
# ---------------------------------------------------------------------------


def drive_temperature_scenario(engine):
    scenario = build_temperature_surveillance(engine=engine)
    snapshots = []
    for _ in range(TICKS):
        now = scenario.run(1)
        if now == 12:
            # Hot-plug: a heater pushes the office over its 28° threshold,
            # a freezer pulls the basement sensor under the 12° photo bar.
            scenario.add_sensor("sensor90", "office", base=31.0)
            scenario.add_sensor("sensor91", "roof", base=8.0)
        if now == 30:
            scenario.remove_sensor("sensor90")
        if now == 40:
            # Service churn on the gateway: jabber goes away while
            # Francois's contact row remains (on_error='skip' path).
            scenario.pems.create_local_erm("gateway").deregister("jabber")
        snapshots.append(
            {
                name: cq.last_result.relation.tuples
                for name, cq in scenario.queries.items()
            }
        )
    return scenario, snapshots


def test_temperature_scenario_differential():
    naive, naive_snaps = drive_temperature_scenario(NAIVE)
    for engine in PAIRS:
        run, snaps = drive_temperature_scenario(engine)
        assert snaps == naive_snaps, engine
        for name in naive.queries:
            cq_n, cq = naive.queries[name], run.queries[name]
            assert sorted(cq.emitted) == sorted(cq_n.emitted), (engine, name)
            assert action_strings(cq.actions) == action_strings(
                cq_n.actions
            ), (engine, name)
            assert [a.describe() for a in cq.action_log] == [
                a.describe() for a in cq_n.action_log
            ], (engine, name)
        assert outbox_key(run.outbox) == outbox_key(naive.outbox), engine
    # The churn script had observable consequences on every engine.
    assert naive.outbox.messages
    assert naive.queries["cold-photos"].emitted


def drive_rss_scenario(engine):
    scenario = build_rss_scenario(engine=engine, recipient="Francois")
    snapshots = []
    for _ in range(TICKS):
        now = scenario.run(1)
        if now == 35:
            # Francois reads jabber; losing the gateway mid-run leaves his
            # contact row pointing at a dead service (skip + retry path).
            scenario.pems.create_local_erm("gateway").deregister("jabber")
        snapshots.append(
            {
                name: cq.last_result.relation.tuples
                for name, cq in scenario.queries.items()
            }
        )
    return scenario, snapshots


def test_rss_scenario_differential():
    naive, naive_snaps = drive_rss_scenario(NAIVE)
    for engine in PAIRS:
        run, snaps = drive_rss_scenario(engine)
        assert snaps == naive_snaps, engine
        for name in naive.queries:
            cq_n, cq = naive.queries[name], run.queries[name]
            assert action_strings(cq.actions) == action_strings(
                cq_n.actions
            ), (engine, name)
        assert outbox_key(run.outbox) == outbox_key(naive.outbox), engine
    # Matching news flowed, and some alert was attempted before the churn.
    assert any(snap["matching-news"] for snap in naive_snaps)


# ---------------------------------------------------------------------------
# γ over floats whose sum depends on accumulation order
# ---------------------------------------------------------------------------

#: Builtin ``sum`` of these is 4.0, 6.0, 3.2, 5.1 or 5.8 depending on the
#: order; the correctly rounded sum — γ's definition — is 5.1.
ILL_CONDITIONED = [0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 0.4, 1.1, 2.3]

FLOAT_AGGREGATES = (
    ("sum", "temperature", "total"),
    ("avg", "temperature", "mean"),
    ("min", "temperature", "low"),
    ("max", "temperature", "high"),
    ("count", None, "n"),
)


def ill_conditioned_readings(instant):
    """The whole list every instant, rotated so each sensor's value moves;
    a second location with exactly summable values rides along."""
    k = instant % len(ILL_CONDITIONED)
    values = ILL_CONDITIONED[k:] + ILL_CONDITIONED[:k]
    rows = [(f"sensor{i}", "lab", v, instant) for i, v in enumerate(values)]
    rows += [(f"probe{i}", "roof", 0.25 * (i + instant), instant) for i in range(3)]
    return rows


def drive_float_aggregates(engine, period, ticks=12):
    pems = PEMS(engine=engine)
    pems.tables.create_relation(temperatures_schema(), infinite=True)
    pems.add_stream_source(
        lambda instant: pems.tables.insert_tuples(
            "temperatures", ill_conditioned_readings(instant), instant
        )
    )
    cq = pems.queries.register_continuous(
        scan(pems.environment, "temperatures")
        .window(period)
        .aggregate(["location"], *FLOAT_AGGREGATES)
        .query("float-aggregates")
    )
    snapshots = []
    for _ in range(ticks):
        pems.tick()
        snapshots.append(cq.last_result.relation.tuples)
    return snapshots


@pytest.mark.parametrize("period", [1, 3])
def test_float_aggregates_differential(period):
    naive = drive_float_aggregates(NAIVE, period)
    lab = {row for row in naive[-1] if row[0] == "lab"}
    assert lab == {
        ("lab", 5.1 * period, 5.1 / 9, -1e16, 1e16, 9 * period)
    }, "the oracle itself must return the correctly rounded sum"
    for engine in PAIRS:
        assert drive_float_aggregates(engine, period) == naive, engine
