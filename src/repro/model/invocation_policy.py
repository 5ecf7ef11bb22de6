"""Fault-tolerant service invocation: policies and per-service health.

The paper promises that "sensors that are deactivated (or failing) [are]
automatically removed" (Section 1.2), and its evaluation runs against
flaky physical devices.  This module supplies the model-level half of
that promise:

* :class:`InvocationPolicy` — the one knob: how many consecutive
  failures quarantine a service (for :data:`QUARANTINE_BACKOFF`
  instants);
* :class:`HealthTracker` — per-service health records (consecutive
  failures, last success/failure instants, an UP → SUSPECT → QUARANTINED
  state machine) fed by :meth:`repro.model.services.ServiceRegistry.invoke`
  and consumed by the core ERM, which treats a quarantined service like a
  lease expiry (see :mod:`repro.pems.erm`).

Determinism at an instant (Section 3.2) shapes the design: the one gate
that decides whether an invocation may reach the device, quarantine,
only ever consults health stamps from *strictly earlier* instants, so the
outcome of an invocation at instant τ never depends on how many times —
or in which order — other queries invoked the service at τ (DESIGN.md
§8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "HealthState",
    "InvocationPolicy",
    "PERMISSIVE_POLICY",
    "QUARANTINE_BACKOFF",
    "ServiceHealth",
    "HealthTracker",
]


class HealthState(enum.Enum):
    """The health state machine of one service."""

    UP = "up"                    # no outstanding failures
    SUSPECT = "suspect"          # failing, under the quarantine threshold
    QUARANTINED = "quarantined"  # threshold crossed: remove from the environment

    def __repr__(self) -> str:  # terse in test diffs
        return self.value


#: Instants a quarantined service stays blocked before it may be probed
#: or re-admitted.  The core ERM uses this as the re-admission delay after
#: it removes the service (quarantine-as-lease-expiry).
QUARANTINE_BACKOFF = 8


@dataclass(frozen=True)
class InvocationPolicy:
    """The quarantine knob enforced by the service registry.

    Parameters
    ----------
    failure_threshold:
        Consecutive device failures that flip a service to QUARANTINED
        for :data:`QUARANTINE_BACKOFF` instants.  ``None`` disables
        quarantine.
    """

    failure_threshold: int | None = None

    def __post_init__(self):
        if self.failure_threshold is not None and self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1 (or None)")

    @property
    def enabled(self) -> bool:
        """True iff quarantine is on (the permissive default has it off)."""
        return self.failure_threshold is not None


#: The default policy: quarantine disabled, behaviour identical to a
#: registry without fault tolerance (health is still *tracked*).
PERMISSIVE_POLICY = InvocationPolicy()


@dataclass
class ServiceHealth:
    """Mutable health record of one service reference."""

    state: HealthState = HealthState.UP
    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    fast_failures: int = 0           # refused by a gate, device untouched
    last_success: int | None = None  # instant of the last device success
    last_failure: int | None = None  # instant of the last device failure
    quarantined_at: int | None = None

    def snapshot(self) -> dict:
        """A plain-dict view (benchmarks and reports)."""
        return {
            "state": self.state.value,
            "consecutive_failures": self.consecutive_failures,
            "total_failures": self.total_failures,
            "total_successes": self.total_successes,
            "fast_failures": self.fast_failures,
            "last_success": self.last_success,
            "last_failure": self.last_failure,
            "quarantined_at": self.quarantined_at,
        }


class HealthTracker:
    """Per-service health, fed by the registry's invocation outcomes.

    Only *device* outcomes move the state machine: a fast-fail (an
    invocation refused by quarantine) records nothing but a counter, so
    a quarantine window is anchored at a real failure and cannot
    self-perpetuate.

    Eviction: a record lives until :meth:`forget`, which the core ERM
    calls when the service says BYE (it left for good).  A lease expiry
    or a quarantine keeps the record, because the device may come back
    and its history is what gates it.
    """

    def __init__(self, policy: InvocationPolicy | None = None):
        self.policy = policy if policy is not None else PERMISSIVE_POLICY
        self._records: dict[str, ServiceHealth] = {}
        #: References whose next invocation may not simply succeed-and-
        #: count: those with a record that is not UP.  Kept incrementally
        #: by every method that moves a record, so the registry can tell a
        #: settled reference (absent here: no gate can close for it and a
        #: success moves nothing but counts) with one set lookup.
        self.unsettled: set[str] = set()
        #: Bumped whenever something a substitution *score* can read
        #: changes (state transitions, failure counts) — successes on a
        #: clean UP record deliberately don't bump it, so the failover
        #: cache stays warm across fault-free ticks.
        self.version = 0

    # -- observation -------------------------------------------------------------

    def health(self, reference: str) -> ServiceHealth:
        """The (possibly fresh) health record of ``reference``."""
        record = self._records.get(reference)
        if record is None:
            record = self._records[reference] = ServiceHealth()
        return record

    def state(self, reference: str) -> HealthState:
        record = self._records.get(reference)
        return record.state if record is not None else HealthState.UP

    def known(self) -> frozenset[str]:
        """Every reference with a health record."""
        return frozenset(self._records)

    def quarantined(self) -> frozenset[str]:
        """References currently in the QUARANTINED state."""
        return frozenset(
            ref
            for ref, record in self._records.items()
            if record.state is HealthState.QUARANTINED
        )

    def snapshot(self) -> dict[str, dict]:
        """Reference → health view, for diagnostics and differentials."""
        return {ref: r.snapshot() for ref, r in sorted(self._records.items())}

    # -- the gate (consulted before the device is contacted) ---------------------

    def check(self, reference: str, instant: int) -> int | None:
        """The release instant if quarantine refuses an invocation at
        ``instant``, else None.

        The instant is the ``retry_at`` of the
        :class:`~repro.errors.ServiceUnavailableError` the registry raises.
        The gate consults only a stamp from an instant strictly before
        ``instant``, keeping invocation outcomes independent of
        same-instant invocation order.
        """
        record = self._records.get(reference)
        if (
            record is None
            or record.state is not HealthState.QUARANTINED
            or record.quarantined_at is None
            or record.quarantined_at >= instant
        ):
            return None
        release = record.quarantined_at + QUARANTINE_BACKOFF
        return release if instant < release else None

    def record_fast_failure(self, reference: str) -> None:
        """Quarantine refused the invocation; the device was not contacted."""
        self.health(reference).fast_failures += 1

    # -- device outcomes ---------------------------------------------------------

    def record_success(self, reference: str, instant: int) -> None:
        record = self._records.get(reference)
        if record is None:
            if not self.policy.enabled:
                # Permissive policy and never-failed service: skip the
                # record entirely — keeps the hot path allocation-free.
                return
            record = self.health(reference)
        if record.state is not HealthState.UP or record.total_failures:
            self.version += 1
        record.total_successes += 1
        record.consecutive_failures = 0
        record.last_success = instant
        if record.state is not HealthState.QUARANTINED:
            record.state = HealthState.UP
        else:
            # A successful probe after the quarantine backoff: recovered.
            record.state = HealthState.UP
            record.quarantined_at = None
        self.unsettled.discard(reference)

    def record_success_many(self, references: list[str], instant: int) -> None:
        """:meth:`record_success` for a batch of *settled* references
        (none in :attr:`unsettled`), each at most once: their records are
        UP with no consecutive failure, so a success only counts."""
        records = self._records
        enabled = self.policy.enabled
        if not records and not enabled:
            return
        for reference in references:
            record = records.get(reference)
            if record is None:
                if not enabled:
                    continue
                record = records[reference] = ServiceHealth()
            elif record.total_failures:
                self.version += 1
            record.total_successes += 1
            record.last_success = instant

    def record_failure(self, reference: str, instant: int) -> None:
        record = self.health(reference)
        self.unsettled.add(reference)
        self.version += 1
        record.total_failures += 1
        record.consecutive_failures += 1
        record.last_failure = instant
        threshold = self.policy.failure_threshold
        if threshold is not None and record.consecutive_failures >= threshold:
            if record.state is not HealthState.QUARANTINED:
                record.state = HealthState.QUARANTINED
                record.quarantined_at = instant
            else:
                # A failed probe re-arms the quarantine window.
                record.quarantined_at = instant
        elif record.state is not HealthState.QUARANTINED:
            record.state = HealthState.SUSPECT

    # -- lifecycle ---------------------------------------------------------------

    def release_due(self, reference: str, instant: int) -> bool:
        """True iff a quarantined service's backoff has elapsed at
        ``instant`` (the ERM may re-admit it)."""
        record = self._records.get(reference)
        if record is None or record.state is not HealthState.QUARANTINED:
            return False
        if record.quarantined_at is None:
            return True
        return instant >= record.quarantined_at + QUARANTINE_BACKOFF

    def release(self, reference: str) -> None:
        """Lift a quarantine: the service re-enters on probation
        (SUSPECT with a clean consecutive-failure count), so a still-
        broken service trips the threshold again quickly."""
        record = self._records.get(reference)
        if record is None:
            return
        self.version += 1
        record.state = HealthState.SUSPECT
        record.consecutive_failures = 0
        record.quarantined_at = None
        self.unsettled.add(reference)

    def forget(self, reference: str) -> None:
        """Drop the record (service deregistered for good)."""
        if self._records.pop(reference, None) is not None:
            self.version += 1
        self.unsettled.discard(reference)

    def __repr__(self) -> str:
        states = {s: 0 for s in HealthState}
        for record in self._records.values():
            states[record.state] += 1
        parts = ", ".join(f"{s.value}={n}" for s, n in states.items() if n)
        return f"HealthTracker({parts or 'empty'})"
