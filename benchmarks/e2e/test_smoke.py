"""Smoke checks of the benchmark itself (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
Every run below is the smoke scale: the same code path as the recorded
benchmark at about an eighth of the fleet.
"""

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import measure
import spec
import trace as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_once(workload: str, trace: int) -> tuple[int, dict]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_smoke_reports_every_metric_by_name_with_its_unit(workload):
    expected = (
        {m.name: m.unit for m in spec.END_TO_END},
        spec.PER_LAYER,
    )
    for trace, units in enumerate(expected):
        code, result = run_once(workload, trace)
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name) and len(name) <= 64
            assert isinstance(metric["value"], (int, float))
        if not trace:  # end-to-end metrics are never zero
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_is_the_rendered_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        assert json.load(handle) == spec.manifest()
    assert len(spec.PER_LAYER) == 68
    assert list(spec.WORKLOADS) == [
        "city_steady", "query_bank", "subscriber_fanout", "fleet_chaos"
    ]


# -- wrapper hygiene -------------------------------------------------------------


class Probe:
    """A patch target with a ``staticmethod``, for the restore test."""

    @staticmethod
    def ping(value):
        return value


def _bindings():
    """Every (holder, attribute) the tracer rebinds -> what is bound now."""
    return {
        (holder, attr): vars(holder)[attr]
        for _, _, holders, attr, _ in tracing.bindings()
        for holder in holders
    }


def test_wrappers_are_removed_even_when_the_traced_block_raises(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("probe.ping", f"{__name__}:Probe", "ping", "sync"),),
    )
    before = _bindings()
    from repro.server import session

    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            during = _bindings()
            assert all(during[key] is not before[key] for key in before)
            # the imported-name case: session's own binding is the wrapper
            assert session.render_rows is during[session, "render_rows"]
            assert isinstance(Probe.__dict__["ping"], staticmethod)
            assert Probe.ping(3) == 3 and Probe().ping(4) == 4
            assert tracer.rows["probe.ping"][tracing.CALLS] == 2
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    assert isinstance(Probe.__dict__["ping"], staticmethod)


def _observed_round(workload, traced: bool):
    """One smoke round: every query's tuples per instant and the
    executor row counts, with or without the wrappers installed."""
    results = {}
    tally = harness.Tally()
    current = harness.Round(workload, "hygiene-r0", tally)

    def capture(instant, wall):
        for name, query in current.pems.queries.continuous_queries.items():
            results[instant, name] = frozenset(query.last_result.relation.tuples)

    async def play():
        current.build()
        current.after_cycle = capture
        try:
            await current.prepare()
            await current.run(workload.ticks)
            current.verify(workload.ticks)
        finally:
            await current.close()

    if traced:
        with tracing.Tracer().installed():
            asyncio.run(play())
    else:
        asyncio.run(play())
    counts = {
        key: value
        for key, value in measure._counters(current).items()
        if key.startswith("op.") or key == "scanned"
    }
    return results, counts, tally


@pytest.mark.parametrize("name", ["query_bank", "fleet_chaos"])
def test_traced_and_untraced_rounds_compute_the_same(name):
    workload = spec.WORKLOADS[name].sized(spec.RUN_SECONDS, smoke=True)
    plain, plain_counts, plain_tally = _observed_round(workload, traced=False)
    traced, traced_counts, traced_tally = _observed_round(workload, traced=True)
    assert plain and plain == traced
    assert plain_counts == traced_counts and any(plain_counts.values())
    assert plain_tally.failed == traced_tally.failed == 0


# -- the checks can fail -----------------------------------------------------------


def test_a_corrupted_replica_or_a_dropped_delta_fails_the_run():
    workload = spec.WORKLOADS["subscriber_fanout"].sized(spec.RUN_SECONDS, smoke=True)
    tally = harness.Tally()
    current = harness.Round(workload, "corrupt-r0", tally)

    async def play():
        current.build()
        try:
            await current.prepare()
            await current.run(workload.ticks)
            assert tally.failed == 0
            current.clients[0].replicas["w0-0"].add(("bogus", 0.0))
            lost = next(l for l in current.locals if l.speed == "slow")
            assert lost.subscription.queue.drain_ready()  # deltas nobody applied
            current.verify(workload.ticks)
        finally:
            await current.close()

    asyncio.run(play())
    assert tally.failed == 2
    assert any("wire replica 'w0-0'" in note for note in tally.notes)
    assert any("in-process slow subscriber" in note for note in tally.notes)
