"""The city declaration: a plain-dict (or TOML/JSON file) config.

A :class:`CityConfig` is the *entire* input to the generator — zones,
device counts per prototype, load distributions, substitution spares,
churn rates and the optional cascade spec.  Two configs that compare
equal generate byte-identical cities (see ``CityConfig.digest`` and the
determinism tests), which is what lets the differential harness pin
every engine on the same sampled city.

Configs load from plain dicts (:meth:`CityConfig.from_dict`), JSON
files, or TOML files where the interpreter ships ``tomllib`` (Python
3.11+; the CI matrix still runs 3.10, so the TOML path is gated and
JSON is the portable interchange format).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.city.cascade import CascadeSpec
from repro.errors import SerenaError

__all__ = ["CityConfig", "SMALL_CITY", "DEMO_CITY"]


def _zone_names(zones: int | list | tuple) -> tuple[str, ...]:
    if isinstance(zones, int):
        if zones < 1:
            raise SerenaError("a city needs at least one zone")
        return tuple(f"z{i}" for i in range(zones))
    names = tuple(str(z) for z in zones)
    if len(set(names)) != len(names):
        raise SerenaError(f"duplicate zone names in {names}")
    return names


@dataclass(frozen=True)
class CityConfig:
    """Declarative description of one generated city.

    Parameters
    ----------
    name:
        Scenario family name (labels digests, bench rows, CLI output).
    seed:
        Root of every deterministic draw — device attributes, churn
        faults, cascade stagger.  Same config + same seed ⇒ the same
        city, byte for byte, in any process.
    zones:
        Zone count (named ``z0`` … ``zN``) or explicit zone names.
    meters_per_zone / relays_per_zone / stations_per_zone /
    weather_per_zone:
        Device counts per prototype per zone.
    alert_sinks:
        City-wide alert gateways (active ``raiseAlert`` services).
    spare_stations_per_zone:
        Hot spares per zone: richer ``readGridNode`` stations that never
        join the ``stations`` discovery table but are declared as
        ``specializes`` substitutes for every station in their zone.
    base_load / load_spread:
        Per-meter nominal draw (kW): each meter's base is drawn
        uniformly from ``[base_load - load_spread, base_load +
        load_spread]`` at generation time.
    surge_factor / surge_period / surge_width:
        The deterministic demand surge: a zone ``i`` multiplies its
        meters' load by ``1 + surge_factor`` whenever ``(instant + 7·i)
        % surge_period < surge_width`` — staggered rush hours that push
        zone averages over the overload threshold.
    overload_threshold:
        Per-zone average load (kW) above which the ``overloads`` query
        raises an alert.
    churn_rate:
        Probability that a meter's reading fails at a given instant
        (deterministic per ``(seed, meter, instant)``) — background
        device flakiness independent of any cascade.
    cascade:
        Optional :class:`~repro.city.cascade.CascadeSpec` — the scripted
        cascading failure the compiler expands lazily.
    """

    name: str = "city"
    seed: str = "city-0"
    zones: tuple[str, ...] = ("z0", "z1")
    meters_per_zone: int = 8
    relays_per_zone: int = 2
    stations_per_zone: int = 1
    weather_per_zone: int = 1
    alert_sinks: int = 1
    spare_stations_per_zone: int = 1
    base_load: float = 40.0
    load_spread: float = 10.0
    surge_factor: float = 1.0
    surge_period: int = 20
    surge_width: int = 6
    overload_threshold: float = 70.0
    churn_rate: float = 0.0
    cascade: CascadeSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "zones", _zone_names(self.zones))
        for name in (
            "meters_per_zone",
            "relays_per_zone",
            "stations_per_zone",
            "weather_per_zone",
            "alert_sinks",
            "spare_stations_per_zone",
        ):
            if getattr(self, name) < 0:
                raise SerenaError(f"{name} must be >= 0")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise SerenaError(f"churn_rate must be within [0, 1], got {self.churn_rate}")
        if self.cascade is not None and self.cascade.zone >= len(self.zones):
            raise SerenaError(
                f"cascade targets zone index {self.cascade.zone} but the city "
                f"has only {len(self.zones)} zones"
            )

    # -- derived ------------------------------------------------------------

    @property
    def device_count(self) -> int:
        """Total generated devices (spares and sinks included)."""
        per_zone = (
            self.meters_per_zone
            + self.relays_per_zone
            + self.stations_per_zone
            + self.weather_per_zone
            + self.spare_stations_per_zone
        )
        return per_zone * len(self.zones) + self.alert_sinks

    def digest(self) -> str:
        """Stable content hash of the declaration (hex)."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()

    # -- interchange --------------------------------------------------------

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["zones"] = list(self.zones)
        if self.cascade is not None:
            payload["cascade"] = asdict(self.cascade)
        return payload

    @classmethod
    def from_dict(cls, raw: dict) -> "CityConfig":
        """Build a config from a plain dict (TOML/JSON decode output)."""
        if not isinstance(raw, dict):
            raise SerenaError(
                f"city config must be a table/object, got {type(raw).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise SerenaError(
                f"unknown city config keys {sorted(unknown)}; known: {sorted(known)}"
            )
        payload = dict(raw)
        cascade = payload.get("cascade")
        if isinstance(cascade, dict):
            payload["cascade"] = CascadeSpec(**cascade)
        if "zones" in payload and isinstance(payload["zones"], list):
            payload["zones"] = tuple(payload["zones"])
        return cls(**payload)

    @classmethod
    def load(cls, path: str | Path) -> "CityConfig":
        """Load a config file — ``.toml`` (Python 3.11+) or ``.json``."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".toml":
            try:
                import tomllib
            except ImportError as error:  # pragma: no cover - 3.10 CI lane
                raise SerenaError(
                    "TOML city configs need Python 3.11+ (tomllib); "
                    "use the JSON form on this interpreter"
                ) from error
            return cls.from_dict(tomllib.loads(text))
        if path.suffix == ".json":
            return cls.from_dict(json.loads(text))
        raise SerenaError(
            f"unsupported city config extension {path.suffix!r} (want .toml/.json)"
        )


#: The differential-sized sample: 2 zones, ~30 devices, one cascade.
#: Small enough for every engine × 55 ticks in CI, big enough that every
#: query in the pack does real work through the scripted cascade.
SMALL_CITY = CityConfig(
    name="small-city",
    seed="small-city-1",
    zones=("north", "south"),
    meters_per_zone=6,
    relays_per_zone=2,
    stations_per_zone=2,
    weather_per_zone=1,
    alert_sinks=1,
    spare_stations_per_zone=1,
    churn_rate=0.05,
    cascade=CascadeSpec(zone=0, crash_at=20, flicker_ticks=8, stagger=2),
)

#: The CLI demo city: 4 zones, a few hundred devices.
DEMO_CITY = CityConfig(
    name="demo-city",
    seed="demo-city-1",
    zones=("north", "south", "east", "west"),
    meters_per_zone=40,
    relays_per_zone=6,
    stations_per_zone=3,
    weather_per_zone=2,
    alert_sinks=2,
    spare_stations_per_zone=1,
    churn_rate=0.02,
    cascade=CascadeSpec(zone=1, crash_at=15, flicker_ticks=10, stagger=1),
)
