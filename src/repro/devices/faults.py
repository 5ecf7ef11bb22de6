"""Deterministic chaos harness: scripted faults on any service.

The paper's evaluation runs against flaky physical devices (Section 5.2);
this module makes that flakiness *reproducible*.  A :class:`FaultInjector`
wraps any :class:`~repro.model.services.Service` and replays a
:class:`FaultScript` against it — crash windows, intermittent invocation
errors, latency spikes that exceed the client timeout, and episodes of
malformed output tuples.  The wrapped service travels through the exact
same registration → discovery → invocation path as the real one, so the
whole fault-tolerance stack (the quarantine gate, health tracking, ERM
quarantine, and β/β∞ dropping a failed call's tuples) is exercised end to
end.

Determinism (Section 3.2) is preserved: whether an invocation at instant
τ faults is a pure function of ``(seed, reference, τ)`` — derived through
:mod:`repro.devices.determinism`, never from RNG state or call counts —
so the same invocation at the same instant behaves identically however
many times and in whatever order the execution engines attempt it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.devices.determinism import stable_unit
from repro.model.prototypes import Prototype
from repro.model.services import MethodHandler, Service

__all__ = ["FaultScript", "FaultInjector", "InjectedFault"]


class InjectedFault(RuntimeError):
    """Raised by a wrapped handler when the script trips a fault.

    The registry converts it (like any handler exception) into an
    :class:`~repro.errors.InvocationError`, so queries and policies see a
    plain invocation failure — exactly what a real flaky device produces.
    """

    def __init__(self, reference: str, kind: str, instant: int):
        super().__init__(f"injected {kind} on {reference!r} at instant {instant}")
        self.reference = reference
        self.kind = kind
        self.instant = instant


@dataclass(frozen=True)
class FaultScript:
    """A deterministic fault schedule for one wrapped service.

    Parameters
    ----------
    crash_at:
        Permanent crash: from this instant on, every invocation fails
        forever (kind ``"crash_permanent"``).  Unlike a crash *window*
        the device never recovers — the probe after every quarantine
        backoff keeps failing, which is what drives the semantic
        substitution path (a substitute takes over the binding for good).
    crash_windows:
        Half-open instant intervals ``[start, end)`` during which every
        invocation fails (the device is unreachable).
    failure_rate:
        Probability that an invocation at a given instant fails with an
        intermittent error (drawn deterministically per instant).
    intermittent_windows:
        Half-open instant intervals outside of which ``failure_rate`` is
        ignored.  Empty (the default) means the rate applies at every
        instant — the original behaviour.  The cascading-failure compiler
        (:mod:`repro.city.cascade`) uses this to script *episodes* of
        flakiness ("the relays downstream of the dead substation go
        intermittent for the next k ticks") without a per-tick schedule.
    latency_spike_rate:
        Probability that a response at a given instant is slow enough to
        exceed the client timeout; in this instant-granular model an
        over-timeout response *is* a failure, so a spike faults the
        invocation (with kind ``"timeout"``).
    malformed_windows:
        Half-open instant intervals during which the device returns rows
        that violate its output schema (a firmware-glitch episode); the
        registry's schema validation turns them into invocation errors.
    """

    crash_at: int | None = None
    crash_windows: tuple[tuple[int, int], ...] = ()
    failure_rate: float = 0.0
    intermittent_windows: tuple[tuple[int, int], ...] = ()
    latency_spike_rate: float = 0.0
    malformed_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.crash_at is not None and self.crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {self.crash_at}")
        for start, end in (
            *self.crash_windows,
            *self.intermittent_windows,
            *self.malformed_windows,
        ):
            if end < start:
                raise ValueError(f"fault window [{start}, {end}) ends before it starts")
        for name in ("failure_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")

    def fault_at(self, reference: str, instant: int, seed: object) -> str | None:
        """The fault kind tripped at ``instant``, or None.

        Pure in ``(seed, reference, instant)``; evaluation order is
        crash_permanent > crash > malformed > intermittent > timeout.
        """
        if self.crash_at is not None and instant >= self.crash_at:
            return "crash_permanent"
        for start, end in self.crash_windows:
            if start <= instant < end:
                return "crash"
        for start, end in self.malformed_windows:
            if start <= instant < end:
                return "malformed"
        if self.failure_rate > 0.0 and (
            not self.intermittent_windows
            or any(start <= instant < end for start, end in self.intermittent_windows)
        ):
            if stable_unit(seed, reference, "fault", instant) < self.failure_rate:
                return "intermittent"
        if (
            self.latency_spike_rate > 0.0
            and stable_unit(seed, reference, "latency", instant)
            < self.latency_spike_rate
        ):
            return "timeout"
        return None


@dataclass
class FaultInjector:
    """Wraps a service so its invocations replay a :class:`FaultScript`.

    Use :meth:`as_service` and register the result wherever the original
    would have gone (a Local ERM, the registry, a scenario)::

        chaotic = FaultInjector(sensor.as_service(),
                                FaultScript(crash_windows=((10, 20),)),
                                seed="chaos-1").as_service()
        local_erm.register(chaotic)

    ``faults_injected`` counts trips per fault kind (diagnostics only —
    counts depend on how many attempts an engine makes and must not be
    compared across engines).
    """

    service: Service
    script: FaultScript
    seed: object = "chaos"
    faults_injected: dict[str, int] = field(default_factory=dict)

    def fault_at(self, instant: int) -> str | None:
        """The fault kind active for this service at ``instant``."""
        return self.script.fault_at(self.service.reference, instant, self.seed)

    def _wrap(self, prototype: Prototype, handler: MethodHandler) -> MethodHandler:
        reference = self.service.reference
        glitch_arity = prototype.output_schema.arity + 1

        def chaotic_handler(inputs, instant):
            kind = self.fault_at(instant)
            if kind is None:
                return handler(inputs, instant)
            self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1
            if kind == "malformed":
                # A row one value too long: the output-schema check in
                # ServiceRegistry.invoke rejects it.
                return [(instant,) * glitch_arity]
            raise InjectedFault(reference, kind, instant)

        return chaotic_handler

    def as_service(self) -> Service:
        """The wrapped service: same reference, prototypes and discovery
        properties, chaotic handlers."""
        methods = {
            prototype: self._wrap(prototype, self.service.handler(prototype))
            for prototype in self.service.prototypes
        }
        return Service(
            self.service.reference,
            methods,
            description=self.service.description,
            properties=self.service.properties,
        )
