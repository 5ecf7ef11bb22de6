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

A :class:`SensorStreamFeeder` pushes periodic readings from a set of
sensors into a ``temperatures`` stream, like the paper's sensors
"periodically providing temperatures associated with locations".  It reads
through the service registry, so a sensor that disappears from the
registry silently stops feeding the stream — no query restart needed.
Its poll loop is :class:`StreamPoll`, which the city's fleet feeders
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.devices.determinism import stable_gauss_like, stable_prefix
from repro.devices.prototypes import GET_ENV_READING, GET_TEMPERATURE
from repro.errors import ServiceError
from repro.model.prototypes import Prototype
from repro.model.services import Service, ServiceRegistry

__all__ = [
    "TemperatureSensor",
    "EnvironmentalSensor",
    "StreamPoll",
    "SensorStreamFeeder",
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
            return [{"temperature": self.temperature(instant)}]

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
            return [
                {
                    "temperature": self.temperature(instant),
                    "humidity": self.humidity(instant),
                }
            ]

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

    A reading becomes the row ``{**columns(service), <output attribute>:
    value, ..., "at": instant}``.  ``columns(service)`` — the part of the
    row that is constant per service (its reference, zone, location, …)
    — is evaluated once per provider and kept until the registry's
    ``topology_version`` moves, so the per-instant path builds no string.

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
        columns: Callable[[Service], Mapping[str, object]],
    ):
        self.registry = registry
        self.prototype = prototype
        self.columns = columns
        self._outputs = prototype.output_schema.names
        self._topology: int | None = None
        self._references: list[str] = []
        self._constants: list[Mapping[str, object]] = []

    def rows(self, instant: int) -> list[dict[str, object]]:
        """One row per reading of ``instant``, providers in reference order."""
        registry = self.registry
        if self._topology != registry.topology_version:
            self._topology = registry.topology_version
            providers = registry.providers(self.prototype)
            self._references = [service.reference for service in providers]
            self._constants = [self.columns(service) for service in providers]
        outcomes = registry.invoke_many(
            self.prototype, self._references, {}, instant
        )
        names = self._outputs
        rows = []
        for constants, outcome in zip(self._constants, outcomes):
            if isinstance(outcome, ServiceError):
                continue
            for values in outcome:
                row = dict(constants)
                for name, value in zip(names, values):
                    row[name] = value
                row["at"] = instant
                rows.append(row)
        return rows


def _sensor_columns(service: Service) -> dict[str, object]:
    return {
        "sensor": service.reference,
        "location": str(service.properties.get("location", "unknown")),
    }


class SensorStreamFeeder:
    """Per-tick producer of the ``temperatures`` stream.

    At every instant that is a multiple of ``period``, it invokes
    ``getTemperature`` on every currently registered sensor service (a
    :class:`StreamPoll`) and inserts ``(sensor, location, temperature,
    at)`` rows into the stream.  Register it with
    :meth:`repro.pems.pems.PEMS.add_stream_source`.
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        insert,  # Callable[[list[Mapping]], int]-like: rows → inserted count
        period: int = 1,
    ):
        self.registry = registry
        self.insert = insert
        self.period = period
        self._poll = StreamPoll(registry, GET_TEMPERATURE, _sensor_columns)

    def __call__(self, instant: int) -> None:
        if instant % self.period != 0:
            return
        rows = self._poll.rows(instant)
        if rows:
            self.insert(rows)
