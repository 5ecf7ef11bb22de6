"""Simulated temperature sensors (substitute for the Thermochron iButton
DS1921 sensors of Section 5.2).

A :class:`TemperatureSensor` implements the ``getTemperature`` prototype
with a deterministic thermal model:

* a per-sensor base temperature (its location's ambient),
* a slow diurnal drift,
* small deterministic measurement noise,
* scriptable *heating episodes* (:meth:`TemperatureSensor.heat`) that
  raise the reading over an instant range — the simulation analogue of the
  authors heating physical sensors to trigger the surveillance scenario.

A :class:`FleetTelemetryFeeder` pushes a reading per instant from every
provider of one prototype into a stream — with ``getTemperature``,
``temperatures`` and :func:`sensor_columns`, the paper's sensors
"periodically providing temperatures associated with locations"; the
city's fleets use the same class.  It reads through the service registry,
so a sensor that disappears from the registry silently stops feeding the
stream — no query restart needed.  Its poll loop is :class:`StreamPoll`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Mapping

from repro.devices.determinism import stable_gauss_like, stable_prefix
from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.errors import ServiceError
from repro.model.prototypes import Prototype
from repro.model.services import Service, ServiceRegistry
from repro.model.xschema import ExtendedRelationSchema

if TYPE_CHECKING:
    from repro.pems.table_manager import ExtendedTableManager

__all__ = [
    "TemperatureSensor",
    "EnvironmentalSensor",
    "StreamPoll",
    "FleetTelemetryFeeder",
    "sensor_columns",
]


@dataclass(frozen=True)
class _HeatEpisode:
    start: int
    end: int
    peak: float  # added degrees at the episode's plateau


class TemperatureSensor:
    """A deterministic simulated temperature sensor.

    Parameters
    ----------
    reference:
        The service reference (e.g. ``"sensor01"``).
    location:
        Where the sensor is (exposed as a discovery property).
    base:
        Ambient temperature around which readings fluctuate.
    noise:
        Amplitude (degrees) of per-instant measurement noise.
    """

    def __init__(
        self,
        reference: str,
        location: str,
        base: float = 20.0,
        noise: float = 0.3,
    ):
        self.reference = reference
        self.location = location
        self.base = base
        self.noise = noise
        self._episodes: list[_HeatEpisode] = []
        self._drift_draw = stable_prefix(reference, "drift")
        self._noise_draw = stable_prefix(reference, "noise")

    def heat(self, start: int, end: int, peak: float) -> None:
        """Schedule a heating episode over instants [start, end].

        The added temperature ramps linearly up to ``peak`` at the middle
        of the episode, then back down — a deterministic heat-gun pass.
        """
        if end < start:
            raise ValueError("heating episode must end after it starts")
        self._episodes.append(_HeatEpisode(start, end, peak))

    def temperature(self, instant: int) -> float:
        """The reading at ``instant`` (pure function of the instant)."""
        drift = 1.5 * stable_gauss_like(instant // 60, prefix=self._drift_draw)
        noise = self.noise * stable_gauss_like(instant, prefix=self._noise_draw)
        heating = 0.0
        for episode in self._episodes:
            if episode.start <= instant <= episode.end:
                span = max(1, episode.end - episode.start)
                progress = (instant - episode.start) / span
                # triangular ramp: 0 → peak → 0
                heating += episode.peak * (1.0 - abs(2.0 * progress - 1.0))
        return round(self.base + drift + noise + heating, 2)

    def as_service(self) -> Service:
        """Wrap the sensor as a discoverable service."""

        def get_temperature(inputs, instant):
            return [(self.temperature(instant),)]

        return Service(
            self.reference,
            {GET_TEMPERATURE: get_temperature},
            description=f"temperature sensor in {self.location}",
            properties={"location": self.location},
        )

    def __repr__(self) -> str:
        return f"TemperatureSensor({self.reference!r} @ {self.location!r})"


class EnvironmentalSensor(TemperatureSensor):
    """A combined temperature/humidity station implementing the richer
    ``getEnvReading`` prototype — and *only* that one.

    Because it does not implement ``getTemperature`` it never joins the
    ``sensors`` discovery table or the temperature stream on its own; it
    participates exactly when a ``specializes`` substitution rule projects
    its readings down for a dead temperature sensor — the standard spare
    device of the substitution scenarios.
    """

    def __init__(
        self,
        reference: str,
        location: str,
        base: float = 20.0,
        noise: float = 0.3,
        base_humidity: float = 45.0,
    ):
        super().__init__(reference, location, base, noise)
        self.base_humidity = base_humidity
        self._hum_drift_draw = stable_prefix(reference, "hum-drift")
        self._hum_noise_draw = stable_prefix(reference, "hum-noise")

    def humidity(self, instant: int) -> float:
        """Relative humidity at ``instant`` (pure function of the instant)."""
        drift = 4.0 * stable_gauss_like(instant // 60, prefix=self._hum_drift_draw)
        noise = 1.5 * stable_gauss_like(instant, prefix=self._hum_noise_draw)
        return round(self.base_humidity + drift + noise, 2)

    def as_service(self) -> Service:
        def get_env_reading(inputs, instant):
            return [(self.temperature(instant), self.humidity(instant))]

        return Service(
            self.reference,
            {GET_ENV_READING: get_env_reading},
            description=f"environmental station in {self.location}",
            properties={"location": self.location},
        )

    def __repr__(self) -> str:
        return f"EnvironmentalSensor({self.reference!r} @ {self.location!r})"


class StreamPoll:
    """The batched poll behind every stream feeder: all providers of one
    prototype, one :meth:`ServiceRegistry.invoke_many` per instant.

    A reading becomes one value tuple of the stream ``schema`` (real
    attributes, in schema order): ``columns(service)`` — the part that is
    constant per service (its reference, zone, location, …) — then the
    prototype's output values, then ``at``.  When the provider set
    changes (the registry's ``topology_version`` moved), every provider's
    ``columns(service)`` is evaluated once and checked to cover, with the
    outputs and ``at``, exactly the stream's real attributes — a missing,
    unknown or virtual key raises what
    :meth:`~repro.model.xschema.ExtendedRelationSchema.values_from_mapping`
    raises — and kept as a ready tuple prefix, so a reading costs one
    tuple concatenation.

    It reads through the registry, so a device that left, was
    quarantined or fails this instant is simply absent from the rows
    (one faulty device never silences the stream), its failure is
    recorded by the registry, and a crashed-but-substituted device keeps
    flowing from its substitute.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        prototype: Prototype,
        schema: ExtendedRelationSchema,
        columns: Callable[[Service], Mapping[str, object]],
    ):
        self.registry = registry
        self.prototype = prototype
        self.schema = schema
        self.columns = columns
        real = tuple(attribute.name for attribute in schema.real_attributes)
        self._readings = (*prototype.output_schema.names, "at")
        self._leading = tuple(name for name in real if name not in self._readings)
        layout = self._leading + self._readings
        # A reading is built as prefix + outputs + (at,); a stream that
        # declares its attributes in another order gets it reordered.
        self._reorder = (
            itemgetter(*map(layout.index, real))
            if layout != real and sorted(layout) == sorted(real)
            else None
        )
        self._topology: int | None = None
        self._references: list[str] = []
        self._prefixes: list[tuple] = []

    def _index(self, registry: ServiceRegistry) -> None:
        readings = dict.fromkeys(self._readings)
        leading = self._leading
        references, prefixes = [], []
        for service in registry.providers(self.prototype):
            row = {**self.columns(service), **readings}
            self.schema.values_from_mapping(row)  # the key check, once
            references.append(service.reference)
            prefixes.append(tuple([row[name] for name in leading]))
        self._references, self._prefixes = references, prefixes
        self._topology = registry.topology_version

    def rows(self, instant: int) -> list[tuple]:
        """One value tuple per reading of ``instant``, providers in
        reference order."""
        registry = self.registry
        if self._topology != registry.topology_version:
            self._index(registry)
        outcomes = registry.invoke_many(
            self.prototype, self._references, (), instant
        )
        at = (instant,)
        rows = []
        for prefix, outcome in zip(self._prefixes, outcomes):
            if isinstance(outcome, ServiceError):
                continue
            for values in outcome:
                rows.append(prefix + values + at)
        if self._reorder is not None:
            rows = list(map(self._reorder, rows))
        return rows


def sensor_columns(service: Service) -> dict[str, object]:
    """The per-service constants of a ``temperatures`` reading."""
    return {
        "sensor": service.reference,
        "location": str(service.properties.get("location", "unknown")),
    }


class FleetTelemetryFeeder:
    """Per-tick producer of one telemetry stream for one prototype.

    Polls every currently registered provider of ``prototype`` as one
    batch (:class:`StreamPoll`) and inserts one tuple per reading into
    the stream ``relation`` of ``tables`` (which must exist already):
    ``columns(service)`` — the per-service constants, such as
    :func:`sensor_columns` or the city's ``*_columns`` builders — plus
    the prototype's output attributes and ``at``.  Register it with
    :meth:`repro.pems.pems.PEMS.add_stream_source`.  It reads through the
    service registry, so:

    * a churned-out or quarantined device silently stops feeding (one
      flaky device never silences the fleet — its reading is simply
      absent that instant),
    * a crashed-but-substituted device keeps flowing: the registry's
      failover table serves the substitute's projected reading, from
      the crash instant itself (zero missed readings),
    * every failure is *recorded* on the per-tick path, so health
      transitions (and therefore substitution sweeps) are identical on
      every engine — they never depend on how a query engine schedules
      its invocations.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        prototype: Prototype,
        tables: ExtendedTableManager,
        relation: str,
        columns: Callable[[Service], Mapping[str, object]],
    ):
        self.registry = registry
        self.prototype = prototype
        self.tables = tables
        self.relation = relation
        schema = tables.relation(relation).schema
        self._poll = StreamPoll(registry, prototype, schema, columns)

    def __call__(self, instant: int) -> None:
        rows = self._poll.rows(instant)
        if rows:
            self.tables.insert_tuples(self.relation, rows, instant)
