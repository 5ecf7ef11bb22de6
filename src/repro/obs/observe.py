"""The observability facade: one metrics registry per PEMS.

Every instrumented PEMS component holds an :class:`Observability` and
records through it: per-tick latency histograms, invocation outcome,
evaluation/skip/failure counters, discovery and health-transition series
and service/query gauges all record, always — there is no mode to
select.  PEMS builds one facade and hands it to every component; a
component built on its own makes its own.

Observation never changes behaviour: instrumentation only reads engine
state.
"""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_TICK_BUCKETS, MetricsRegistry

__all__ = ["Observability"]


class Observability:
    """Shared observability state of one PEMS (or one component)."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self._tick_seconds = self.metrics.histogram(
            "serena_tick_seconds",
            "Wall-clock cost of one full environment tick",
            buckets=DEFAULT_TICK_BUCKETS,
        )
        self._ticks_total = self.metrics.counter(
            "serena_ticks_total", "Environment ticks driven through PEMS"
        )

    # -- recording helpers --------------------------------------------------------

    def record_tick(self, seconds: float) -> None:
        """One full environment tick took ``seconds``."""
        self._ticks_total.inc()
        self._tick_seconds.observe(seconds)

    # -- export -------------------------------------------------------------------

    def to_prometheus(self) -> str:
        return self.metrics.to_prometheus()

    def snapshot(self) -> dict:
        """JSON view: ``{"metrics": <registry snapshot>}``."""
        return {"metrics": self.metrics.snapshot()}

    def __repr__(self) -> str:
        return f"Observability({len(self.metrics)} instruments)"
