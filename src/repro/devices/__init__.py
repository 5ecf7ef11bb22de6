"""Simulated pervasive-environment devices (the Section 5.2 testbed,
rebuilt as deterministic in-process services — see DESIGN.md §1)."""

from repro.devices.cameras import Camera
from repro.devices.faults import FaultInjector, FaultScript, InjectedFault
from repro.devices.paper_example import PaperExample, build_paper_example
from repro.devices.messengers import (
    Message,
    Messenger,
    Outbox,
    email_service,
    jabber_service,
    sms_service,
)
from repro.devices.prototypes import (
    CHECK_PHOTO,
    FETCH_ITEMS,
    GET_TEMPERATURE,
    SEND_MESSAGE,
    STANDARD_PROTOTYPES,
    TAKE_PHOTO,
)
from repro.devices.rss import DEFAULT_SITES, RssFeed, RssStreamWrapper
from repro.devices.scenario import (
    Scenario,
    build_rss_scenario,
    build_temperature_surveillance,
    cameras_schema,
    contacts_schema,
    news_schema,
    sensors_schema,
    surveillance_schema,
    temperatures_schema,
)
from repro.devices.sensors import FleetTelemetryFeeder, TemperatureSensor

__all__ = [
    "CHECK_PHOTO",
    "Camera",
    "DEFAULT_SITES",
    "FETCH_ITEMS",
    "FaultInjector",
    "FaultScript",
    "FleetTelemetryFeeder",
    "GET_TEMPERATURE",
    "InjectedFault",
    "Message",
    "Messenger",
    "Outbox",
    "PaperExample",
    "RssFeed",
    "RssStreamWrapper",
    "SEND_MESSAGE",
    "STANDARD_PROTOTYPES",
    "Scenario",
    "TAKE_PHOTO",
    "TemperatureSensor",
    "build_paper_example",
    "build_rss_scenario",
    "build_temperature_surveillance",
    "cameras_schema",
    "contacts_schema",
    "news_schema",
    "sensors_schema",
    "surveillance_schema",
    "temperatures_schema",
    "email_service",
    "jabber_service",
    "sms_service",
]
