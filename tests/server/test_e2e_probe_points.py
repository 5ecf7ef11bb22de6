"""Guard: the end-to-end benchmark's probe points still resolve.

``benchmarks/e2e/trace.py`` wraps the callables named in its ``TARGETS``
by module, class and attribute name, and ``measure.py`` / ``harness.py``
read ``subscription.queue.coalesced`` / ``.dropped`` and call
``queue.drain_ready()`` on served queries.  A rename in ``src/`` would
otherwise only surface when a traced benchmark round fails late.

The benchmark modules run from their own directory (its ``trace.py``
shadows the standard library's), so the check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"

CHECK = """
import asyncio, inspect

import harness, measure, spec, trace

for name, kind, holders, attr, raw in trace.bindings():
    assert holders, name
    for holder in holders:
        assert getattr(holder, attr) is not None, (name, holder)
    if kind == "async":
        assert inspect.iscoroutinefunction(raw), name
print("targets", len(trace.TARGETS))

workload = spec.WORKLOADS["subscriber_fanout"].sized(spec.RUN_SECONDS, smoke=True)
tally = harness.Tally()
current = harness.Round(workload, "probe-r0", tally)

async def play():
    current.build()
    try:
        await current.prepare()
        await current.run(workload.ticks)
        current.verify(workload.ticks)
        counters = measure._counters(current)
        queries = current.server.queries.values()
        queues = [s.queue for q in queries for s in q.subscribers]
        assert counters["coalesced"] == sum(q.coalesced for q in queues) > 0
        assert counters["dropped"] == sum(q.dropped for q in queues)
    finally:
        await current.close()

asyncio.run(play())
assert tally.failed == 0, tally
print("ok", tally.attempted)
"""


def test_trace_targets_resolve_and_a_served_round_verifies():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHECK],
        cwd=E2E,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "ok" in done.stdout.split()
