"""The subscription server: continuous queries over the wire.

A long-running asyncio service wrapping one :class:`~repro.pems.pems.PEMS`:
the server drives the virtual-clock tick loop and pushes each registered
continuous query's per-instant result deltas to subscribed clients.
Clients speak a line-delimited JSON protocol over TCP
(:mod:`repro.server.protocol`); the same listener also answers plain
``GET`` requests with an HTTP Server-Sent-Events stream, so a browser
``EventSource`` subscribes with no extra port.

The tick loop stays single-threaded on the virtual clock — only
*delivery* is asynchronous.  Each subscription owns a bounded
:class:`~repro.server.delivery.DeliveryQueue`; when a slow consumer
falls behind, the queue coalesces its oldest pending deltas with the
two-delta ``coalesce`` instead of blocking the loop, which is lossless
for final state (DESIGN.md §12).
"""

from repro.server.admission import AdmissionControl, AdmissionError
from repro.server.delivery import DeliveryQueue, QueuedDelta
from repro.server.service import SubscriptionServer

__all__ = [
    "AdmissionControl",
    "AdmissionError",
    "DeliveryQueue",
    "QueuedDelta",
    "SubscriptionServer",
]
