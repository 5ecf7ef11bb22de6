"""Differential tests: the federated engine vs the shared engine.

The decisive determinism claims of the sharded federation, over the full
Section 5.2 scenarios (≥ 50 instants, relation churn, hot-plugged and
deregistered services, cross-zone discovery):

* **lockstep** federation (4 zones on the shared VirtualClock) is
  tuple-identical to the single-node ``shared`` engine at every instant
  — snapshots, emitted streams, action logs and the message outbox;
* the **processes** shard executor is tuple-identical to lockstep (the
  journal-slice ship marks mirror the ScanExec high-water discipline).

The scenario drivers come from ``tests.exec.test_differential`` so the
federated engines face exactly the churn scripts the single-node
engines are pinned against.
"""

import pytest

from tests.exec.test_differential import (
    action_strings,
    drive_rss_scenario,
    drive_temperature_scenario,
    outbox_key,
)


def assert_scenarios_agree(engine, reference="shared"):
    base, base_snaps = drive_temperature_scenario(reference)
    run, snaps = drive_temperature_scenario(engine)
    try:
        assert snaps == base_snaps, engine
        for name in base.queries:
            cq_b, cq = base.queries[name], run.queries[name]
            assert sorted(cq.emitted) == sorted(cq_b.emitted), (engine, name)
            assert action_strings(cq.actions) == action_strings(
                cq_b.actions
            ), (engine, name)
            assert [a.describe() for a in cq.action_log] == [
                a.describe() for a in cq_b.action_log
            ], (engine, name)
        assert outbox_key(run.outbox) == outbox_key(base.outbox), engine
        # The run did real work: photos flowed and messages were sent.
        assert base.outbox.messages
        assert base.queries["cold-photos"].emitted
    finally:
        for scenario in (base, run):
            shutdown = getattr(scenario.pems, "shutdown", None)
            if shutdown is not None:
                shutdown()


def test_temperature_lockstep_matches_shared():
    """4-zone lockstep federation == shared engine over 55 ticks of the
    temperature scenario (hot-plug at 12, removal at 30, the jabber
    gateway deregistering at 40)."""
    assert_scenarios_agree("federated")


def test_temperature_processes_matches_shared():
    assert_scenarios_agree("federated-processes")


def test_rss_lockstep_matches_shared():
    """The RSS scenario: cross-zone join of feeds and contacts, with the
    jabber gateway lost mid-run."""
    base, base_snaps = drive_rss_scenario("shared")
    run, snaps = drive_rss_scenario("federated")
    assert snaps == base_snaps
    for name in base.queries:
        cq_b, cq = base.queries[name], run.queries[name]
        assert action_strings(cq.actions) == action_strings(cq_b.actions), name
    assert outbox_key(run.outbox) == outbox_key(base.outbox)
    assert any(snap["matching-news"] for snap in base_snaps)


def test_zone_state_is_actually_sharded():
    """The determinism above is not vacuous: the scenario's services and
    rows really do land on multiple zone shards."""
    run, _ = drive_temperature_scenario("federated")
    summary = run.pems.shard_summary()
    populated = [z for z in summary["zones"] if z["services"] or z["rows"]]
    assert len(populated) >= 2
    assert summary["gossip_relayed"] > 0
