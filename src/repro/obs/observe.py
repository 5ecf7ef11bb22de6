"""The observability facade: one knob, one registry, one tracer.

Every instrumented PEMS component holds an :class:`Observability` and
records through it.  Three modes (the ``PEMS(observe=...)`` knob):

* ``"off"`` — the disabled baseline: the metrics registry still exists
  (the counters that record in every mode — invocation counts, memo
  hits, discovery announcements — are backed by it), but no timing, no
  gauges, no labeled outcome series, and a :class:`NullTracer`;
* ``"metrics"`` (the default) — always-on production observability:
  per-tick latency histograms, evaluation/skip/failure counters,
  discovery and health-transition series, service/query gauges;
* ``"full"`` — metrics plus :class:`~repro.obs.trace.TickTracer` spans
  for every tick, scheduler decision, query evaluation, executor delta
  and service invocation.

Observation never changes behaviour: instrumentation only reads engine
state, and a differential test pins 55-tick results byte-identical across
modes on both engines (tests/obs/test_observe_differential.py).
"""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_TICK_BUCKETS, MetricsRegistry
from repro.obs.trace import NullTracer, TickTracer

__all__ = ["Observability", "OBSERVE_MODES"]

OBSERVE_MODES = ("off", "metrics", "full")


class Observability:
    """Shared observability state of one PEMS (or one component)."""

    def __init__(self, mode: str = "metrics"):
        if mode not in OBSERVE_MODES:
            raise ValueError(
                f"unknown observe mode {mode!r} (expected one of "
                f"{', '.join(OBSERVE_MODES)})"
            )
        self.mode = mode
        self.metrics = MetricsRegistry()
        #: True when engine-level metrics (timing, gauges, outcome labels)
        #: are recorded; the every-mode counters record regardless.
        self.metrics_on = mode != "off"
        #: True when spans are recorded.
        self.tracing_on = mode == "full"
        self.tracer: TickTracer | NullTracer = (
            TickTracer() if self.tracing_on else NullTracer()
        )
        self._tick_seconds = self.metrics.histogram(
            "serena_tick_seconds",
            "Wall-clock cost of one full environment tick",
            buckets=DEFAULT_TICK_BUCKETS,
        )
        self._ticks_total = self.metrics.counter(
            "serena_ticks_total", "Environment ticks driven through PEMS"
        )

    @classmethod
    def disabled(cls) -> "Observability":
        """The off-mode facade standalone components default to."""
        return cls(mode="off")

    @classmethod
    def coerce(cls, value: "Observability | str | None") -> "Observability":
        """Normalize the ``observe=`` knob: an instance passes through, a
        mode string builds a fresh facade, None means the default mode."""
        if isinstance(value, Observability):
            return value
        if value is None:
            return cls()
        return cls(mode=value)

    # -- recording helpers --------------------------------------------------------

    def record_tick(self, seconds: float) -> None:
        """One full environment tick took ``seconds`` (metrics mode+)."""
        self._ticks_total.inc()
        self._tick_seconds.observe(seconds)

    # -- export -------------------------------------------------------------------

    def to_prometheus(self) -> str:
        return self.metrics.to_prometheus()

    def snapshot(self) -> dict:
        """JSON view: mode, metrics, and trace statistics."""
        return {
            "mode": self.mode,
            "metrics": self.metrics.snapshot(),
            "trace": {
                "enabled": self.tracer.enabled,
                "recorded": self.tracer.recorded,
                "retained": len(self.tracer),
                "dropped": self.tracer.dropped,
            },
        }

    def __repr__(self) -> str:
        return (
            f"Observability(mode={self.mode!r}, "
            f"{len(self.metrics)} instruments, {len(self.tracer)} spans)"
        )
