"""A zero-dependency metrics registry: counters, gauges, histograms.

The paper's evaluation (Section 5) argues for the algebra by *measuring*
the running PEMS — invocation counts saved by rewritings, per-tick
latencies, discovery churn.  This module gives the reproduction one
always-on model for those measurements:

* every instrument is addressed by a ``(name, labels)`` pair, exactly like
  the Prometheus data model, and created lazily on first use;
* hot paths hold a direct reference to the instrument (``counter(...)``
  returns the same object for the same address), so recording a sample is
  one attribute addition — cheap enough to leave enabled in production;
* :meth:`MetricsRegistry.to_prometheus` renders the whole registry in the
  Prometheus text exposition format (with label escaping), and
  :meth:`MetricsRegistry.snapshot` as a plain JSON-serializable dict.

Naming scheme (DESIGN.md §9): every metric is prefixed ``serena_``,
counters end in ``_total``, time is measured in seconds (``_seconds``),
and label names are lowercase snake_case.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Ewma",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReadThrough",
    "DEFAULT_TICK_BUCKETS",
]

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds) for per-tick histograms: 50µs to ~5s,
#: roughly ×3 apart — tick costs span naive-engine milliseconds down to
#: carried-forward microseconds.
DEFAULT_TICK_BUCKETS = (
    0.00005,
    0.0002,
    0.0005,
    0.002,
    0.005,
    0.02,
    0.05,
    0.2,
    0.5,
    2.0,
    5.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (sizes, refcounts, states)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        self.value -= amount


class ReadThrough:
    """A counter or gauge whose value is read from a callable whenever
    the registry is read, for state another object already keeps.

    :meth:`freeze` pins the last reading and drops the callable; a later
    :meth:`bind` at the same address resumes it (a counter continues
    from its frozen total, a gauge starts over).
    """

    __slots__ = ("name", "labels", "kind", "_read", "_base")

    def __init__(self, name: str, labels: LabelKey, kind: str):
        self.name = name
        self.labels = labels
        self.kind = kind
        self._read = None
        self._base = 0

    @property
    def value(self) -> int | float:
        read = self._read
        return self._base if read is None else self._base + read()

    def bind(self, read) -> None:
        self.freeze()
        if self.kind == "gauge":
            self._base = 0
        self._read = read

    def freeze(self) -> None:
        self._base = self.value
        self._read = None


class Histogram:
    """Fixed-bucket histogram (cumulative buckets, Prometheus-style).

    ``buckets`` are the inclusive upper bounds, strictly increasing; an
    implicit ``+Inf`` bucket catches the rest.  ``observe`` costs one
    linear scan over the (small, fixed) bucket list plus three additions.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, buckets: tuple[float, ...]):
        if not buckets or any(
            b >= c for b, c in zip(buckets, buckets[1:])
        ):
            raise ValueError(
                f"histogram {name!r}: buckets must be non-empty and "
                f"strictly increasing, got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Bucket-resolution quantile estimate: the upper bound of the
        bucket containing the requested rank (``inf`` if it lands in the
        overflow bucket)."""
        if not self.count:
            return 0.0
        rank = fraction * self.count
        seen = 0
        for i, bound in enumerate(self.buckets):
            seen += self.counts[i]
            if seen >= rank:
                return bound
        return float("inf")


class Ewma:
    """Exponentially-weighted moving average of a stream of samples.

    Used for per-service invocation-latency tracking (the registry's
    ``latency_snapshot`` diagnostic): an EWMA keeps one float of state per
    series (no bucket list), forgets stale behaviour geometrically, and
    reads in O(1).  The first sample seeds the average directly so a cold
    service reads its actual first observation, not a decay from zero.
    """

    __slots__ = ("alpha", "value", "count")

    def __init__(self, alpha: float = 0.2):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"ewma alpha must be in (0, 1], got {alpha!r}")
        self.alpha = alpha
        self.value = 0.0
        self.count = 0

    def observe(self, sample: float) -> float:
        if self.count == 0:
            self.value = float(sample)
        else:
            self.value += self.alpha * (sample - self.value)
        self.count += 1
        return self.value


Instrument = Counter | Gauge | Histogram | ReadThrough


class MetricsRegistry:
    """All instruments of one observability domain, by ``(name, labels)``.

    One registry per PEMS (the :class:`~repro.obs.observe.Observability`
    facade owns it); standalone components create a private one.  A metric
    *family* (the name) has a single kind and help string; instruments are
    the labeled children.  Re-requesting an address returns the cached
    instrument, so callers keep direct references on hot paths.
    """

    def __init__(self):
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}
        #: name -> (kind, help, buckets-or-None)
        self._families: dict[str, tuple[str, str, tuple[float, ...] | None]] = {}

    # -- instrument access -------------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] | None,
    ) -> None:
        known = self._families.get(name)
        if known is None:
            if not _METRIC_NAME.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            self._families[name] = (kind, help, buckets)
            return
        if known[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {known[0]}, requested as {kind}"
            )

    def _instrument(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, object],
        buckets: tuple[float, ...] | None = None,
        read_through: bool = False,
    ) -> Instrument:
        key = _label_key(labels)
        address = (name, key)
        existing = self._instruments.get(address)
        if existing is not None:
            self._family(name, kind, help, buckets)
            return existing
        self._family(name, kind, help, buckets)
        for label in labels:
            if not _LABEL_NAME.match(label):
                raise ValueError(f"invalid label name {label!r} on {name!r}")
        if read_through:
            instrument: Instrument = ReadThrough(name, key, kind)
        elif kind == "counter":
            instrument = Counter(name, key)
        elif kind == "gauge":
            instrument = Gauge(name, key)
        else:
            family_buckets = self._families[name][2]
            if family_buckets is None:
                family_buckets = DEFAULT_TICK_BUCKETS
            instrument = Histogram(name, key, family_buckets)
        self._instruments[address] = instrument
        return instrument

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """Get or create the counter addressed by ``(name, labels)``."""
        return self._instrument(name, "counter", help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """Get or create the gauge addressed by ``(name, labels)``."""
        return self._instrument(name, "gauge", help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] | None = None,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram addressed by ``(name, labels)``.

        ``buckets`` is fixed per family at first creation; later callers
        inherit it.
        """
        return self._instrument(name, "histogram", help, labels, buckets)  # type: ignore[return-value]

    def read_through(
        self, name: str, kind: str, read, help: str = "", **labels: object
    ) -> ReadThrough:
        """Bind the ``kind`` (counter or gauge) at ``(name, labels)`` to
        ``read``; see :class:`ReadThrough`."""
        if kind not in ("counter", "gauge"):
            raise ValueError(f"read-through {name!r} must be a counter or gauge")
        instrument = self._instrument(name, kind, help, labels, read_through=True)
        if not isinstance(instrument, ReadThrough):
            raise ValueError(f"{name!r}{dict(labels)} is already a plain {kind}")
        instrument.bind(read)
        return instrument

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def get(
        self, name: str, **labels: object
    ) -> Instrument | None:
        """The instrument at ``(name, labels)``, or None (tests, shims)."""
        return self._instruments.get((name, _label_key(labels)))

    def value(self, name: str, default: float = 0, **labels: object) -> float:
        """The current value of a counter/gauge (``default`` if absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None or isinstance(instrument, Histogram):
            return default
        return instrument.value

    def family_total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        return sum(
            i.value
            for (n, _), i in self._instruments.items()
            if n == name and not isinstance(i, Histogram)
        )

    # -- export ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain JSON-serializable view of every instrument."""
        out: dict = {}
        for (name, key), instrument in sorted(self._instruments.items()):
            family = out.setdefault(
                name,
                {"kind": instrument.kind, "help": self._families[name][1], "series": []},
            )
            series: dict = {"labels": dict(key)}
            if isinstance(instrument, Histogram):
                series["count"] = instrument.count
                series["sum"] = instrument.sum
                series["buckets"] = {
                    _format_value(b): c
                    for b, c in zip(
                        tuple(instrument.buckets) + (float("inf"),),
                        _cumulate(instrument.counts),
                    )
                }
            else:
                series["value"] = instrument.value
            family["series"].append(series)
        return out

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        lines: list[str] = []
        by_family: dict[str, list[Instrument]] = {}
        for (name, _), instrument in sorted(self._instruments.items()):
            by_family.setdefault(name, []).append(instrument)
        for name, instruments in by_family.items():
            kind, help, _ = self._families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for instrument in instruments:
                if isinstance(instrument, Histogram):
                    cumulative = _cumulate(instrument.counts)
                    bounds = tuple(instrument.buckets) + (float("inf"),)
                    for bound, count in zip(bounds, cumulative):
                        labels = _render_labels(
                            instrument.labels, (("le", _format_value(bound)),)
                        )
                        lines.append(f"{name}_bucket{labels} {count}")
                    suffix = _render_labels(instrument.labels)
                    lines.append(f"{name}_sum{suffix} {_format_value(instrument.sum)}")
                    lines.append(f"{name}_count{suffix} {instrument.count}")
                else:
                    labels = _render_labels(instrument.labels)
                    lines.append(
                        f"{name}{labels} {_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _cumulate(counts: list[int]) -> list[int]:
    out = []
    total = 0
    for c in counts:
        total += c
        out.append(total)
    return out
