"""Simulated messaging services (substitutes for the Openfire IM server,
the Clickatel SMS gateway and the SMTP mail gateway of Section 5.2).

Each messenger implements the *active* ``sendMessage`` prototype and
appends every accepted message to an inspectable :class:`Outbox` — side
effects become assertable, which the real channels do not allow.  Per-
channel behaviour is configurable: a deterministic failure rate (messages
that bounce return ``sent = False``) and a nominal latency used by the
scalability benchmarks' latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.determinism import stable_unit
from repro.devices.prototypes import SEND_MESSAGE, SEND_PHOTO_MESSAGE
from repro.model.services import Service

__all__ = ["Message", "Outbox", "Messenger", "email_service", "jabber_service", "sms_service"]


@dataclass(frozen=True)
class Message:
    """One message accepted by a messenger."""

    instant: int
    channel: str
    address: str
    text: str
    delivered: bool
    photo: bytes | None = None  # attached picture (sendPhotoMessage)


@dataclass
class Outbox:
    """Shared, inspectable record of every send attempt."""

    messages: list[Message] = field(default_factory=list)

    def record(self, message: Message) -> None:
        self.messages.append(message)

    def sent_to(self, address: str) -> list[Message]:
        return [m for m in self.messages if m.address == address]

    def by_channel(self, channel: str) -> list[Message]:
        return [m for m in self.messages if m.channel == channel]

    def __len__(self) -> int:
        return len(self.messages)


class Messenger:
    """A simulated message channel implementing ``sendMessage``.

    Parameters
    ----------
    reference:
        Service reference (``"email"``, ``"jabber"``, ``"sms"``...).
    outbox:
        Where accepted messages are recorded (share one across channels to
        get a global timeline).
    failure_rate:
        Deterministic fraction of sends that bounce (``sent = False``).
    latency:
        Nominal delivery latency in seconds (benchmark metadata only).
    """

    def __init__(
        self,
        reference: str,
        outbox: Outbox | None = None,
        failure_rate: float = 0.0,
        latency: float = 0.1,
    ):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must be within [0, 1]")
        self.reference = reference
        self.outbox = outbox if outbox is not None else Outbox()
        self.failure_rate = failure_rate
        self.latency = latency

    def send(
        self,
        address: str,
        text: str,
        instant: int,
        photo: bytes | None = None,
    ) -> bool:
        """Deliver (or deterministically bounce) one message."""
        delivered = (
            stable_unit(self.reference, address, text, instant) >= self.failure_rate
        )
        self.outbox.record(
            Message(instant, self.reference, address, text, delivered, photo)
        )
        return delivered

    def as_service(self) -> Service:
        def send_message(inputs, instant):
            address, text = inputs
            return [(self.send(str(address), str(text), instant),)]

        def send_photo_message(inputs, instant):
            address, text, photo = inputs
            delivered = self.send(str(address), str(text), instant, photo=bytes(photo))
            return [(delivered,)]

        return Service(
            self.reference,
            {
                SEND_MESSAGE: send_message,
                SEND_PHOTO_MESSAGE: send_photo_message,
            },
            description=f"{self.reference} messaging gateway",
            properties={"latency": self.latency},
        )

    def __repr__(self) -> str:
        return f"Messenger({self.reference!r}, {len(self.outbox)} messages sent)"


def email_service(outbox: Outbox | None = None, failure_rate: float = 0.0) -> Messenger:
    """An ``email`` gateway (nominal latency: 0.5 s)."""
    return Messenger("email", outbox, failure_rate, latency=0.5)


def jabber_service(outbox: Outbox | None = None, failure_rate: float = 0.0) -> Messenger:
    """A ``jabber`` instant-messaging gateway (nominal latency: 0.05 s)."""
    return Messenger("jabber", outbox, failure_rate, latency=0.05)


def sms_service(outbox: Outbox | None = None, failure_rate: float = 0.0) -> Messenger:
    """An ``sms`` gateway (nominal latency: 2 s)."""
    return Messenger("sms", outbox, failure_rate, latency=2.0)
