"""City device simulators: the power-grid fleet.

Five prototypes cover the fleet (plus a richer spare prototype for the
substitution path):

::

    PROTOTYPE readLoad( ) : ( load REAL );
    PROTOTYPE checkRelay( ) : ( status STRING, throughput REAL );
    PROTOTYPE readStation( ) : ( capacity REAL, utilization REAL );
    PROTOTYPE readGridNode( ) : ( capacity REAL, utilization REAL, frequency REAL );
    PROTOTYPE readWeather( ) : ( temperature REAL, wind REAL );
    PROTOTYPE raiseAlert( zone STRING, load REAL ) : ( ack BOOLEAN ) ACTIVE;

Every reading is a pure function of ``(reference, instant)`` via
:mod:`repro.devices.determinism`, and every numeric output is quantized
to quarter steps (exactly representable binary fractions) so sums and
averages are bit-identical regardless of the order an engine folds
them in.  That quantization is what lets the α aggregation queries stay
tuple-identical across engines without any tolerance in the
differentials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.determinism import stable_gauss_like, stable_prefix, stable_unit
from repro.devices.sensors import FleetTelemetryFeeder
from repro.model.prototypes import Prototype
from repro.model.schema import RelationSchema
from repro.model.services import Service

__all__ = [
    "READ_LOAD",
    "CHECK_RELAY",
    "READ_STATION",
    "READ_GRID_NODE",
    "READ_WEATHER",
    "RAISE_ALERT",
    "CITY_PROTOTYPES",
    "quantize",
    "SmartMeter",
    "GridRelay",
    "Substation",
    "SpareStation",
    "WeatherStation",
    "Alert",
    "AlertLog",
    "AlertSink",
    "FleetTelemetryFeeder",
    "load_columns",
    "station_columns",
    "relay_columns",
    "weather_columns",
]

READ_LOAD = Prototype(
    "readLoad",
    RelationSchema(()),
    RelationSchema.of(load="REAL"),
)

CHECK_RELAY = Prototype(
    "checkRelay",
    RelationSchema(()),
    RelationSchema.of(status="STRING", throughput="REAL"),
)

READ_STATION = Prototype(
    "readStation",
    RelationSchema(()),
    RelationSchema.of(capacity="REAL", utilization="REAL"),
)

#: The spare's richer prototype: output schema is a superset of
#: ``readStation``'s, so a ``specializes`` substitution rule projects it
#: down — the spare never joins the ``stations`` discovery table on its
#: own, exactly like the environmental spare of the §5.2 scenarios.
READ_GRID_NODE = Prototype(
    "readGridNode",
    RelationSchema(()),
    RelationSchema.of(capacity="REAL", utilization="REAL", frequency="REAL"),
)

READ_WEATHER = Prototype(
    "readWeather",
    RelationSchema(()),
    RelationSchema.of(temperature="REAL", wind="REAL"),
)

RAISE_ALERT = Prototype(
    "raiseAlert",
    RelationSchema.of(zone="STRING", load="REAL"),
    RelationSchema.of(ack="BOOLEAN"),
    active=True,
)

CITY_PROTOTYPES = (
    READ_LOAD,
    CHECK_RELAY,
    READ_STATION,
    READ_GRID_NODE,
    READ_WEATHER,
    RAISE_ALERT,
)


def quantize(value: float) -> float:
    """Snap to quarter steps: exact binary fractions, so aggregation is
    order-independent down to the last bit."""
    return round(value * 4.0) / 4.0


class SmartMeter:
    """A household/commercial meter reporting instantaneous load (kW).

    The reading is base draw × the zone's staggered demand surge, plus
    small deterministic wobble.  ``phase`` staggers the surge windows
    per zone so zones peak at different instants (rush hour moves across
    the city), which is what makes the per-zone ``overloads`` query fire
    zone by zone instead of all at once.
    """

    def __init__(
        self,
        reference: str,
        zone: str,
        relay: str,
        base: float,
        surge_factor: float = 1.0,
        surge_period: int = 20,
        surge_width: int = 6,
        phase: int = 0,
    ):
        self.reference = reference
        self.zone = zone
        self.relay = relay
        self.base = base
        self.surge_factor = surge_factor
        self.surge_period = surge_period
        self.surge_width = surge_width
        self.phase = phase
        self._load_draw = stable_prefix(reference, "load")

    def surging(self, instant: int) -> bool:
        return (instant + self.phase) % self.surge_period < self.surge_width

    def load(self, instant: int) -> float:
        factor = 1.0 + (self.surge_factor if self.surging(instant) else 0.0)
        wobble = 2.0 * stable_gauss_like(instant, prefix=self._load_draw)
        return max(0.0, quantize(self.base * factor + wobble))

    def as_service(self) -> Service:
        def read_load(inputs, instant):
            return [(self.load(instant),)]

        return Service(
            self.reference,
            {READ_LOAD: read_load},
            description=f"smart meter in zone {self.zone}",
            properties={"zone": self.zone, "feeder": self.relay},
        )

    def __repr__(self) -> str:
        return f"SmartMeter({self.reference!r} @ {self.zone!r})"


class GridRelay:
    """A feeder relay: reports breaker status and throughput (kW)."""

    def __init__(self, reference: str, zone: str, rating: float = 200.0):
        self.reference = reference
        self.zone = zone
        self.rating = rating
        self._thru_draw = stable_prefix(reference, "thru")

    def throughput(self, instant: int) -> float:
        swing = 0.3 * stable_unit(instant, prefix=self._thru_draw)
        return quantize(self.rating * (0.5 + swing))

    def as_service(self) -> Service:
        def check_relay(inputs, instant):
            throughput = self.throughput(instant)
            status = "closed" if throughput < self.rating else "open"
            return [(status, throughput)]

        return Service(
            self.reference,
            {CHECK_RELAY: check_relay},
            description=f"grid relay in zone {self.zone}",
            properties={"zone": self.zone},
        )

    def __repr__(self) -> str:
        return f"GridRelay({self.reference!r} @ {self.zone!r})"


class Substation:
    """A zone substation: rated capacity plus live utilization (kW)."""

    def __init__(self, reference: str, zone: str, capacity: float = 500.0):
        self.reference = reference
        self.zone = zone
        self.capacity = capacity
        self._util_draw = stable_prefix(reference, "util")

    def utilization(self, instant: int) -> float:
        level = 0.4 + 0.4 * stable_unit(instant, prefix=self._util_draw)
        return quantize(self.capacity * level)

    def as_service(self) -> Service:
        def read_station(inputs, instant):
            return [(self.capacity, self.utilization(instant))]

        return Service(
            self.reference,
            {READ_STATION: read_station},
            description=f"substation in zone {self.zone}",
            properties={"zone": self.zone, "capacity": self.capacity},
        )

    def __repr__(self) -> str:
        return f"Substation({self.reference!r} @ {self.zone!r})"


class SpareStation(Substation):
    """A hot-spare grid node implementing only the richer
    ``readGridNode`` prototype — it never joins the ``stations``
    discovery table on its own, and participates exactly when a
    ``specializes`` substitution rule projects its readings down for a
    dead substation (the cascade's "spares absorb load" leg)."""

    def __init__(self, reference: str, zone: str, capacity: float = 500.0):
        super().__init__(reference, zone, capacity)
        self._hz_draw = stable_prefix(reference, "hz")

    def frequency(self, instant: int) -> float:
        return quantize(50.0 + 0.5 * stable_gauss_like(instant, prefix=self._hz_draw))

    def as_service(self) -> Service:
        def read_grid_node(inputs, instant):
            return [
                (self.capacity, self.utilization(instant), self.frequency(instant))
            ]

        return Service(
            self.reference,
            {READ_GRID_NODE: read_grid_node},
            description=f"spare grid node in zone {self.zone}",
            properties={"zone": self.zone, "capacity": self.capacity},
        )

    def __repr__(self) -> str:
        return f"SpareStation({self.reference!r} @ {self.zone!r})"


class WeatherStation:
    """A per-zone weather sensor (temperature °C, wind m/s)."""

    def __init__(self, reference: str, zone: str, base_temp: float = 15.0):
        self.reference = reference
        self.zone = zone
        self.base_temp = base_temp
        self._temp_draw = stable_prefix(reference, "temp")
        self._wind_draw = stable_prefix(reference, "wind")

    def temperature(self, instant: int) -> float:
        drift = 3.0 * stable_gauss_like(instant // 12, prefix=self._temp_draw)
        return quantize(self.base_temp + drift)

    def wind(self, instant: int) -> float:
        return quantize(8.0 * stable_unit(instant, prefix=self._wind_draw))

    def as_service(self) -> Service:
        def read_weather(inputs, instant):
            return [(self.temperature(instant), self.wind(instant))]

        return Service(
            self.reference,
            {READ_WEATHER: read_weather},
            description=f"weather station in zone {self.zone}",
            properties={"zone": self.zone},
        )

    def __repr__(self) -> str:
        return f"WeatherStation({self.reference!r} @ {self.zone!r})"


@dataclass(frozen=True)
class Alert:
    """One overload alert accepted by a sink."""

    instant: int
    sink: str
    zone: str
    load: float


@dataclass
class AlertLog:
    """Shared, inspectable record of every raised alert (the city
    analogue of the messengers' :class:`~repro.devices.messengers.Outbox`)."""

    alerts: list[Alert] = field(default_factory=list)

    def record(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def __len__(self) -> int:
        return len(self.alerts)


class AlertSink:
    """An operations-center gateway implementing active ``raiseAlert``."""

    def __init__(self, reference: str, log: AlertLog | None = None):
        self.reference = reference
        self.log = log if log is not None else AlertLog()

    def as_service(self) -> Service:
        def raise_alert(inputs, instant):
            zone, load = inputs
            self.log.record(Alert(instant, self.reference, str(zone), load))
            return [(True,)]

        return Service(
            self.reference,
            {RAISE_ALERT: raise_alert},
            description="operations alert sink",
            properties={},
        )

    def __repr__(self) -> str:
        return f"AlertSink({self.reference!r}, {len(self.log)} alerts)"


def _zone(service: Service) -> str:
    return str(service.properties.get("zone", "unknown"))


def load_columns(service: Service) -> dict:
    return {
        "meter": service.reference,
        "zone": _zone(service),
        "feeder": str(service.properties.get("feeder", "")),
    }


def station_columns(service: Service) -> dict:
    return {"station": service.reference, "zone": _zone(service)}


def relay_columns(service: Service) -> dict:
    return {"relay": service.reference, "zone": _zone(service)}


#: A weather stream row names its source ``station`` too.
weather_columns = station_columns
