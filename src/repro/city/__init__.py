"""Grid-scale city scenarios: a smart city as a pervasive environment.

The two Section 5.2 scenarios exercise a handful of devices; this package
generates *thousands* — smart meters, grid relays, substations, weather
stations and alert sinks wired into a zoned power-grid topology — and
registers a standing pack of fleet-wide continuous queries over them.
Everything is pure in ``(config, seed, instant)``: the same
:class:`~repro.city.config.CityConfig` yields byte-identical topologies,
fault schedules and 55-tick query output in any process, so the
differential machinery pins the naive oracle and the shared engine
tuple-identical on a sampled city.

Modules
-------
``config``
    :class:`CityConfig` — the plain-dict/TOML-style declaration (zones,
    device counts per prototype, load distributions, substitution
    spares, churn and the cascade spec).
``devices``
    City prototypes and deterministic device simulators.
``generator``
    ``generate_topology`` — seed-driven expansion of a config into a
    concrete, digestable device list.
``cascade``
    The cascading-failure script compiler over
    :mod:`repro.devices.faults` (lazy: O(affected devices), never
    materializing (device, tick) pairs).
``queries``
    The standing query pack (per-zone α aggregation, σ/⋈ overload
    correlation, β invocation sweeps).
``scenario``
    ``build_city`` — assemble the whole thing on either engine
    (``naive`` or ``shared``).
"""

from repro.city.cascade import CascadeSchedule, CascadeSpec
from repro.city.config import CityConfig
from repro.city.generator import CityTopology, generate_topology
from repro.city.queries import build_query_pack
from repro.city.scenario import CityScenario, build_city

__all__ = [
    "CityConfig",
    "CityTopology",
    "generate_topology",
    "CascadeSpec",
    "CascadeSchedule",
    "build_query_pack",
    "CityScenario",
    "build_city",
]
