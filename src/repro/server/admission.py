"""Admission control: bounding what one server instance accepts.

Three independent caps, each a hard reject (the client gets an
``error`` message and, for connection admission, the socket closes):

* ``max_clients`` — concurrent connections (TCP and SSE alike);
* ``max_queries_per_client`` — subscriptions held by one connection;
* ``max_total_queries`` — *distinct* continuous queries registered on
  the wrapped PEMS across all clients.  Shared subscriptions (same
  normalized SQL) count once — admission bounds the tick-loop load,
  and the shared registry evaluates each distinct query once per tick
  regardless of its subscriber count.

Rejections are counted on the obs registry by reason
(``serena_server_admission_rejected_total{reason=…}``), so a saturated
server is visible in ``.metrics`` without log archaeology.
"""

from __future__ import annotations

from repro.errors import SerenaError
from repro.obs.observe import Observability

__all__ = ["AdmissionControl", "AdmissionError"]


class AdmissionError(SerenaError):
    """A registration or connection rejected by admission control."""

    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason


class AdmissionControl:
    """Caps on clients, per-client subscriptions and total queries."""

    def __init__(
        self,
        max_clients: int = 2048,
        max_queries_per_client: int = 32,
        max_total_queries: int = 512,
        observe: Observability | None = None,
    ):
        self.max_clients = max_clients
        self.max_queries_per_client = max_queries_per_client
        self.max_total_queries = max_total_queries
        self.obs = observe or Observability()
        self._rejected = {
            reason: self.obs.metrics.counter(
                "serena_server_admission_rejected_total",
                "Connections/registrations rejected by admission control",
                reason=reason,
            )
            for reason in ("clients", "client_queries", "total_queries")
        }

    def _reject(self, reason: str, detail: str) -> None:
        self._rejected[reason].inc()
        raise AdmissionError(reason, detail)

    def admit_client(self, connected: int) -> None:
        """Gate a new connection given the current connection count."""
        if connected >= self.max_clients:
            self._reject(
                "clients",
                f"server full: {self.max_clients} clients connected",
            )

    def admit_subscription(
        self, client_subscriptions: int, distinct_queries: int, shared: bool
    ) -> None:
        """Gate one ``register`` op.  ``shared`` marks a subscription
        joining an already-registered query (no new tick-loop load)."""
        if client_subscriptions >= self.max_queries_per_client:
            self._reject(
                "client_queries",
                f"client limit reached: {self.max_queries_per_client} "
                "subscriptions on this connection",
            )
        if not shared and distinct_queries >= self.max_total_queries:
            self._reject(
                "total_queries",
                f"registry full: {self.max_total_queries} distinct "
                "continuous queries registered",
            )

    def rejected(self, reason: str) -> int:
        return int(self._rejected[reason].value)

    def __repr__(self) -> str:
        return (
            f"AdmissionControl(clients<={self.max_clients}, "
            f"per-client<={self.max_queries_per_client}, "
            f"total<={self.max_total_queries})"
        )
