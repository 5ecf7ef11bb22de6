"""Lowering: logical plans → physical executor trees, built by the one
walk a registry's ``acquire`` runs."""

from repro.algebra import col, scan
from repro.continuous.xdrelation import XDRelation
from repro.devices.paper_example import build_paper_example
from repro.devices.scenario import temperatures_schema
from repro.exec import SharedPlanRegistry
from repro.exec.executors import ScanExec, SelectionExec, WindowExec
from repro.exec.lowering import LOWERINGS


def paper_env():
    return build_paper_example().environment


def physical(env, plan):
    """The executor tree the engine runs for ``plan``."""
    return SharedPlanRegistry(env).acquire(plan).root


def test_table3_plan_lowers_natively():
    env = paper_env()
    query = (
        scan(env, "contacts")
        .select(col("name").ne("Carla"))
        .assign("text", "Hi")
        .invoke("sendMessage")
        .project("name", "sent")
        .query("q")
    )
    root = physical(env, query.root)
    executors = list(root.walk())
    for executor in executors:
        assert type(executor.node) in LOWERINGS
    assert len(executors) == len(list(query.root.walk()))


def test_continuous_operators_lower_natively():
    env = paper_env()
    env.add_relation(XDRelation(temperatures_schema(), infinite=True))
    query = (
        scan(env, "temperatures")
        .window(3)
        .select(col("temperature").gt(30.0))
        .stream("insertion")
        .query("q")
    )
    root = physical(env, query.root)
    kinds = [type(e) for e in root.walk()]
    # W over a stream scan reads the journal itself: a leaf, no scan.
    (window,) = [e for e in root.walk() if isinstance(e, WindowExec)]
    assert window.children == ()
    assert ScanExec not in kinds


def test_shared_subplan_lowered_once():
    env = paper_env()
    shared = scan(env, "contacts").select(col("messenger").ne("sms")).node
    from repro.algebra.operators.setops import Union

    plan = Union(shared, shared)
    root = physical(env, plan)
    left_child, right_child = root.children
    assert left_child is right_child
    assert isinstance(left_child, SelectionExec)


def test_static_base_relation_lowers():
    env = paper_env()
    from repro.algebra.query import Query
    from repro.exec import SharedEngine

    query = Query(scan(env, "cameras").node, "cams")
    engine = SharedEngine(query, env)
    first = engine.tick(0)
    second = engine.tick(1)
    assert first.relation is second.relation  # unchanged tick: cached object
    assert not engine.change
