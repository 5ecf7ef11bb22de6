"""Observability for PEMS: metrics and EXPLAIN ANALYZE.

Zero-dependency instrumentation of the pervasive environment (DESIGN.md
§9): a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
fixed-bucket histograms with Prometheus/JSON export, always recording;
the :class:`~repro.obs.observe.Observability` facade every PEMS component
shares; and the EXPLAIN ANALYZE renderers of :mod:`repro.obs.analyze`.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observe import Observability

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
]
