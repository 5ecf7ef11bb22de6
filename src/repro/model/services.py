"""Services: implementations of prototypes (Sections 2.1 and 2.3.1).

A service ``omega`` is defined by the finite set of prototypes it implements
and by its *service reference* ``id(omega)``, a plain data value (a string
here, as in Example 1: ``email``, ``camera01``, ``sensor22``...).  Methods
provided by services remain implicit (Section 2.1): a prototype is invoked
*on* a service and the service's method is transparently called.

The invocation function of Definition 1 is realized by
:meth:`ServiceRegistry.invoke`: given a prototype, a service reference and
an input tuple, it returns a relation (a list of tuples) over the prototype
output schema.  Invocations take the current time instant as a parameter so
that services can be *deterministic at a given instant* (Section 3.2): the
same invocation at the same instant always returns the same result,
regardless of invocation order.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import (
    InvocationError,
    PrototypeNotImplementedError,
    SchemaError,
    ServiceError,
    ServiceUnavailableError,
    UnknownServiceError,
)
from repro.model.invocation_policy import HealthState, HealthTracker, InvocationPolicy
from repro.model.prototypes import Prototype
from repro.model.substitution import MAX_CHAIN, ResolvedBinding, SubstitutionState
from repro.obs.metrics import Ewma
from repro.obs.observe import Observability

__all__ = ["Service", "MethodHandler", "ServiceRegistry"]

# A method takes the input tuple (values in ``prototype.input_schema``
# order) and the current time instant, and returns 0..n output tuples
# (values in ``prototype.output_schema`` order).
MethodHandler = Callable[[tuple, int], Sequence[tuple]]

# ``row`` of a device failure whose handler raised (returned no rows).
_RAISED = object()


class Service:
    """A registered service: a reference plus implemented prototypes.

    Parameters
    ----------
    reference:
        The service reference ``id(omega)``, a plain data value.
    methods:
        Mapping from :class:`Prototype` to the handler implementing it.
        ``prototypes(omega)`` is the key set of this mapping.
    description:
        Optional human-readable description (shown by PEMS catalogs).
    properties:
        Static service metadata announced at discovery time (e.g. a
        sensor's ``location`` or a camera's ``area``) — the values that
        service discovery queries copy into X-Relations like the paper's
        ``sensors`` and ``cameras`` tables.
    """

    __slots__ = ("reference", "_methods", "description", "properties")

    def __init__(
        self,
        reference: str,
        methods: Mapping[Prototype, MethodHandler],
        description: str = "",
        properties: Mapping[str, object] | None = None,
    ):
        if not isinstance(reference, str) or not reference:
            raise SchemaError(f"invalid service reference {reference!r}")
        self.reference = reference
        self._methods = dict(methods)
        self.description = description
        self.properties = dict(properties) if properties else {}

    @property
    def prototypes(self) -> frozenset[Prototype]:
        """``prototypes(omega)``: the prototypes this service implements."""
        return frozenset(self._methods)

    @property
    def prototype_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self._methods)

    def implements(self, prototype: Prototype) -> bool:
        """True iff this service implements ``prototype``."""
        return prototype in self._methods

    def handler(self, prototype: Prototype) -> MethodHandler:
        try:
            return self._methods[prototype]
        except KeyError:
            raise PrototypeNotImplementedError(self.reference, prototype.name) from None

    def __repr__(self) -> str:
        names = ", ".join(sorted(self.prototype_names))
        return f"Service({self.reference!r} IMPLEMENTS {names})"


class ServiceRegistry:
    """The set of currently available services, keyed by reference.

    In the full PEMS (see :mod:`repro.pems`), this registry is maintained by
    the core Environment Resource Manager from discovery announcements; at
    the model level it is a plain dynamic dictionary, reflecting that the
    set of available services changes over time.
    """

    def __init__(
        self,
        services: Iterable[Service] = (),
        policy: InvocationPolicy | None = None,
        observe: Observability | None = None,
    ):
        self._services: dict[str, Service] = {}
        #: Bumped on every register/unregister — a cheap invalidation key
        #: for caches derived from the membership (the ERM failover table,
        #: the providers index below, the feeders' per-service constants).
        self.topology_version = 0
        # prototype -> providers sorted by reference, as of _indexed_version.
        self._providers: dict[Prototype, list[Service]] = {}
        self._indexed_version = 0
        for service in services:
            self.register(service)
        #: Observability facade: PEMS passes its environment-wide one, a
        #: standalone registry makes its own.
        self.obs = observe or Observability()
        metrics = self.obs.metrics
        self._invocations_total = metrics.counter(
            "serena_invocations_total",
            "Device invocations issued (memo hits and fast failures excluded)",
        )
        self._memo_hits_total = metrics.counter(
            "serena_invocation_memo_hits_total",
            "Invocations answered from the per-instant memo instead of the device",
        )
        outcome_help = "Invocation attempts by outcome"
        self._outcome_success = metrics.counter(
            "serena_invocation_outcomes_total", outcome_help, outcome="success"
        )
        self._outcome_memo_hit = metrics.counter(
            "serena_invocation_outcomes_total", outcome_help, outcome="memo_hit"
        )
        self._outcome_fast_failed = metrics.counter(
            "serena_invocation_outcomes_total", outcome_help, outcome="fast_failed"
        )
        self._outcome_failed = metrics.counter(
            "serena_invocation_outcomes_total", outcome_help, outcome="failed"
        )
        self._outcome_substituted = metrics.counter(
            "serena_invocation_outcomes_total", outcome_help, outcome="substituted"
        )
        self._failovers_total = metrics.counter(
            "serena_substitution_failovers_total",
            "Failed invocations answered by a pre-scored failover plan",
        )
        #: Per-service health (quarantine enforcement): fed by
        #: :meth:`invoke`, consumed by the core ERM's quarantine sweep.
        #: With the default (permissive) policy no gate ever closes and
        #: invocation behaviour is identical to a policy-free registry.
        self.health = HealthTracker(policy)
        #: Substitution relation + active binding/failover tables.  Declared
        #: rules are consulted by :meth:`invoke` (binding routing before
        #: the quarantine gate, failover on the failure path); the tables
        #: are only ever rewritten by the core ERM's tick sweep, so they
        #: are frozen for the duration of an instant.
        self.substitutions = SubstitutionState()
        # Per-service invocation-latency EWMAs (seconds), read only by
        # :meth:`latency_snapshot`.  Always-on and registry-internal —
        # deliberately *not* part of the health snapshot, which the
        # differential suites compare across engines.  Evicted with the
        # health record by :meth:`forget` (BYE), kept across a lease
        # expiry or quarantine.
        self._latency: dict[str, Ewma] = {}
        self._chain_depth = 0
        # Per-instant invocation memo (see begin_instant_memo): active only
        # inside a PEMS tick, where identical (prototype, service, inputs)
        # calls from different continuous queries are deterministic
        # duplicates (Section 3.2) and hit the device once.
        self._memo: dict[tuple, list[tuple]] | None = None
        self._memo_instant: int | None = None

    # -- registration (dynamic discovery feeds these) -----------------------

    def register(self, service: Service) -> None:
        """Add or replace a service (idempotent on the reference)."""
        if self._services.get(service.reference) is not service:
            self.topology_version += 1
        self._services[service.reference] = service

    def unregister(self, reference: str) -> None:
        """Remove a service; unknown references are ignored (a service may
        disappear and be reaped twice in a dynamic environment)."""
        if self._services.pop(reference, None) is not None:
            self.topology_version += 1

    def forget(self, reference: str) -> None:
        """Drop the per-reference state of a service that left for good
        (the core ERM calls this on BYE): its health record, its
        unsettled entry and its latency EWMA.  A lease expiry keeps them,
        because the device may come back."""
        self.health.forget(reference)
        self._latency.pop(reference, None)

    def get(self, reference: str) -> Service:
        try:
            return self._services[reference]
        except KeyError:
            raise UnknownServiceError(reference) from None

    def __contains__(self, reference: object) -> bool:
        return reference in self._services

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self):
        return iter(self._services.values())

    @property
    def references(self) -> frozenset[str]:
        return frozenset(self._services)

    def providers(self, prototype: Prototype) -> list[Service]:
        """All registered services implementing ``prototype``, sorted by
        reference (deterministic order for discovery queries).

        Served from a per-prototype index rebuilt in one pass over the
        registry when :attr:`topology_version` has moved; the returned
        list is the caller's own copy.
        """
        return list(self._provider_index().get(prototype, ()))

    @property
    def implemented(self) -> tuple[Prototype, ...]:
        """Every prototype at least one registered service implements."""
        return tuple(self._provider_index())

    def _provider_index(self) -> dict[Prototype, list[Service]]:
        if self._indexed_version != self.topology_version:
            index: dict[Prototype, list[Service]] = {}
            for reference in sorted(self._services):
                service = self._services[reference]
                for implemented in service._methods:
                    index.setdefault(implemented, []).append(service)
            self._providers = index
            self._indexed_version = self.topology_version
        return self._providers

    # -- invocation (Definition 1) -------------------------------------------

    @property
    def invocation_count(self) -> int:
        """Total number of invocations performed through this registry.

        Used by benchmarks to measure rewriting savings (Section 3.3).
        Backed by the ``serena_invocations_total`` counter of :attr:`obs`.
        """
        return int(self._invocations_total.value)

    # -- per-instant memoization (multi-query sharing) -----------------------

    @property
    def memo_hits(self) -> int:
        """Invocations answered from the per-instant memo instead of the
        device (not counted in :attr:`invocation_count`).  Backed by the
        ``serena_invocation_memo_hits_total`` counter of :attr:`obs`."""
        return int(self._memo_hits_total.value)

    def begin_instant_memo(self, instant: int) -> None:
        """Start memoizing successful invocations for ``instant``.

        Services are deterministic at a given instant (Section 3.2): the
        same invocation at the same instant always returns the same
        result, regardless of invocation order — so within one instant a
        repeated ``(prototype, service, inputs)`` call may be answered
        from cache.  The memo is scoped by the caller (the query
        processor's tick loop) via :meth:`end_instant_memo`; outside that
        scope every invocation reaches the device, keeping one-shot
        evaluation and invocation-count benchmarks unaffected.
        """
        if self._memo_instant != instant:
            self._memo = {}
            self._memo_instant = instant
        elif self._memo is None:
            self._memo = {}

    def end_instant_memo(self) -> None:
        """Stop memoizing; cached results for the instant are discarded."""
        self._memo = None

    def invoke(
        self,
        prototype: Prototype,
        reference: str,
        inputs: tuple,
        instant: int,
    ) -> list[tuple]:
        """``invoke_psi(s, t)``: invoke ``prototype`` on the service
        referenced by ``reference`` with input tuple ``inputs`` (values in
        ``prototype.input_schema`` order).

        Returns a list of value tuples over ``prototype.output_schema``
        (0, 1 or several tuples, Section 2.1).  Raises
        :class:`UnknownServiceError`, :class:`PrototypeNotImplementedError`
        or :class:`InvocationError` on failure.  It is
        :meth:`invoke_many` on a batch of one.
        """
        (outcome,) = self.invoke_many(prototype, (reference,), inputs, instant)
        if isinstance(outcome, ServiceError):
            raise outcome
        return outcome

    def invoke_many(
        self,
        prototype: Prototype,
        references: Iterable[str],
        inputs: tuple,
        instant: int,
    ) -> list["list[tuple] | ServiceError"]:
        """Invoke ``prototype`` with the same input tuple on every service
        in ``references`` at ``instant``: the batch a stream feeder issues
        per prototype per instant.

        Returns one outcome per reference, in order: the result tuples, or
        the :class:`ServiceError` that :meth:`invoke` raises for that
        reference (one failing device never aborts the batch).  Each
        reference goes through everything a lone invocation goes through —
        memo, sticky binding, quarantine gate, device call, output-schema
        check, health/latency/outcome bookkeeping, failover — in
        ``references`` order.  Services are deterministic at a given
        instant and the binding and failover tables are frozen for it
        (Section 3.2), so neither the order of the batch nor its size can
        change an outcome.

        That also lets the batch be planned before the loop.  A reference
        that is registered and implements ``prototype``, is given an input
        tuple of its input schema's arity, has no memo entry, no sticky binding
        and no unsettled health (:attr:`HealthTracker.unsettled`), and
        appears once in the batch can only reach its device and succeed
        or fail.  It runs on the fast path: handler,
        output-tuple check, latency sample, with its success bookkeeping
        (health, invocation and outcome counters) applied per batch.
        Every other reference takes the full path.
        The pending bookkeeping is applied before any full-path reference
        or failure runs, since a failover may invoke a later member of
        the batch and must see the state the loop of :meth:`invoke`
        would have left.
        """
        name = prototype.name
        fits = (
            isinstance(inputs, tuple)
            and len(inputs) == prototype.input_schema.arity
        )
        validate = prototype.output_schema.validate_tuple
        health = self.health
        subs = self.substitutions
        services = self._services
        memo = self._memo if instant == self._memo_instant else None

        def invoke_one(reference: str) -> list[tuple]:
            try:
                service = services[reference]
            except KeyError:
                raise UnknownServiceError(reference) from None
            handler = service.handler(prototype)
            if not fits:
                raise InvocationError(
                    f"invocation of {name!r} on {reference!r}: input "
                    f"{inputs!r} does not fit prototype input schema "
                    f"{list(prototype.input_schema.names)}"
                )
            key: tuple | None = None
            if memo is not None:
                key = (name, reference, inputs)
                cached = memo.get(key)
                if cached is not None:
                    self._memo_hits_total.inc()
                    self._outcome_memo_hit.inc()
                    return list(cached)
            if subs.bindings:
                binding = subs.bindings.get((name, reference))
                if binding is not None:
                    # Durable reroute installed by the ERM sweep: the dead
                    # device is never contacted, its health never probed, and
                    # the result is memoized under the *original* key (the
                    # binding is frozen for the instant, so the §3.2
                    # determinism argument carries over unchanged).
                    results = self._invoke_binding(binding, prototype, inputs, instant)
                    self._outcome_substituted.inc()
                    if key is not None:
                        memo[key] = list(results)
                    return results
            retry_at = health.check(reference, instant)
            if retry_at is not None:
                # Quarantine fails the invocation fast: the device is not
                # contacted and the health state machine does not move.
                health.record_fast_failure(reference)
                self._outcome_fast_failed.inc()
                fallback = self._failover(prototype, reference, inputs, instant, key)
                if fallback is not None:
                    return fallback
                raise ServiceUnavailableError(reference, retry_at)
            state_before = health.state(reference)
            self._invocations_total.inc()
            started = perf_counter()
            try:
                # Materialized here, so that a generator raising partway or
                # a result that is no iterable fails the device too.
                rows = list(handler(inputs, instant))
            except Exception as exc:
                return self._device_failed(
                    prototype, reference, inputs, instant, key, state_before, exc
                )
            results = []
            for row in rows:
                try:
                    results.append(validate(row))
                except SchemaError as exc:
                    return self._device_failed(
                        prototype, reference, inputs, instant, key, state_before,
                        exc, row,
                    )
            self._observe_latency(reference, perf_counter() - started)
            health.record_success(reference, instant)
            if state_before is not HealthState.UP:
                # a success leaves an UP service UP: no transition to count
                self._health_transition(reference, state_before)
            self._outcome_success.inc()
            if key is not None:
                memo[key] = list(results)  # successes only
            return results

        # The plan.  Bindings and the batch are frozen for the instant;
        # health and the memo can move under a failover, so they are read
        # per reference.
        references = list(references)
        full_path = {ref for proto, ref in subs.bindings if proto == name}
        if len(set(references)) != len(references):
            full_path.update(
                ref for ref, count in Counter(references).items() if count > 1
            )
        unsettled = health.unsettled
        succeeded: list[str] = []  # fast successes awaiting bookkeeping
        attempted = 0

        def settle() -> None:
            nonlocal attempted
            if attempted:
                self._invocations_total.inc(attempted)
                self._outcome_success.inc(len(succeeded))
                health.record_success_many(succeeded, instant)
                succeeded.clear()
                attempted = 0

        def fail(reference: str, cause: Exception, row: object = _RAISED):
            settle()
            key = (name, reference, inputs) if memo is not None else None
            try:
                return self._device_failed(
                    prototype, reference, inputs, instant, key, HealthState.UP,
                    cause, row,
                )
            except ServiceError as exc:
                return exc.with_traceback(None)

        outcomes: list[list[tuple] | ServiceError] = []
        try:
            for reference in references:
                service = services.get(reference)
                if (
                    fits
                    and service is not None
                    and prototype in service._methods
                    and reference not in unsettled
                    and reference not in full_path
                    and (memo is None or (name, reference, inputs) not in memo)
                ):
                    handler = service.handler(prototype)
                    attempted += 1
                    started = perf_counter()
                    try:
                        rows = list(handler(inputs, instant))
                    except Exception as exc:
                        outcomes.append(fail(reference, exc))
                        continue
                    results = []
                    try:
                        for row in rows:
                            results.append(validate(row))
                    except SchemaError as exc:
                        outcomes.append(fail(reference, exc, row))
                        continue
                    self._observe_latency(reference, perf_counter() - started)
                    succeeded.append(reference)
                    if memo is not None:
                        memo[name, reference, inputs] = list(results)
                    outcomes.append(results)
                    continue
                settle()
                try:
                    outcomes.append(invoke_one(reference))
                except ServiceError as exc:
                    # An outcome, not a propagating error: without its
                    # traceback it holds no frame (and no cycle through
                    # ``outcomes``).
                    outcomes.append(exc.with_traceback(None))
        finally:
            settle()
        return outcomes

    # -- substitution (semantic rebinding) -----------------------------------

    def _invoke_binding(
        self,
        plan: ResolvedBinding,
        prototype: Prototype,
        inputs: tuple,
        instant: int,
    ) -> list[tuple]:
        """Serve ``(prototype, reference)`` through ``plan``: narrow the
        inputs to ``plan.via``'s, invoke ``plan.via`` on ``plan.target`` and
        project the rows down to ``prototype``'s outputs.

        Nested :meth:`invoke` calls do all the usual work — the quarantine
        gate, health bookkeeping, memoization — against the *substitute*
        references, so a substitute that itself fails is observed and
        re-ranked by the next ERM sweep.  Routing through a service that
        is itself bound recurses; :data:`~repro.model.substitution.MAX_CHAIN`
        bounds the depth (cycle guard of last resort — the ERM refuses to
        install cyclic bindings up front).
        """
        if self._chain_depth >= MAX_CHAIN:
            raise InvocationError(
                f"substitution chain for {prototype.name!r} on "
                f"{plan.reference!r} exceeded MAX_CHAIN={MAX_CHAIN}"
            )
        self._chain_depth += 1
        try:
            position = prototype.input_schema.position
            narrowed = tuple(
                inputs[position(name)] for name in plan.via.input_schema.names
            )
            rows = self.invoke(plan.via, plan.target, narrowed, instant)
            projection = plan.projection
            return [tuple(row[i] for i in projection) for row in rows]
        finally:
            self._chain_depth -= 1

    def _failover(
        self,
        prototype: Prototype,
        reference: str,
        inputs: tuple,
        instant: int,
        key: tuple | None,
    ) -> list[tuple] | None:
        """Answer a failed invocation from the pre-scored failover table.

        The table is computed once per tick by the ERM sweep from
        strictly-earlier health stamps, so the plan order tried here is
        identical across engines and invocation orders — this is what
        serves the crash instant itself with zero missed ticks.  Returns
        None when no plan exists or every plan also failed (the original
        error propagates).
        """
        subs = self.substitutions
        if not subs.failover:
            return None
        plans = subs.failover.get((prototype.name, reference))
        if not plans:
            return None
        for plan in plans:
            try:
                results = self._invoke_binding(plan, prototype, inputs, instant)
            except ServiceError:
                continue
            self._failovers_total.inc()
            if key is not None and self._memo is not None:
                self._memo[key] = list(results)
            return results
        return None

    def _device_failed(
        self,
        prototype: Prototype,
        reference: str,
        inputs: tuple,
        instant: int,
        key: tuple | None,
        state_before: HealthState,
        cause: Exception,
        row: object = _RAISED,
    ) -> list[tuple]:
        """The one failure tail of a device call: the handler raised
        ``cause``, or ``row`` of its output failed the output schema.
        Records the failure, then answers from the failover table or
        raises the :class:`InvocationError` (``__cause__`` = ``cause``)."""
        self.health.record_failure(reference, instant)
        self._health_transition(reference, state_before)
        self._outcome_failed.inc()
        fallback = self._failover(prototype, reference, inputs, instant, key)
        if fallback is not None:
            return fallback
        if row is _RAISED:
            message = f"failed: {cause}"
        else:
            message = f"returned an invalid output tuple {row!r}: {cause}"
        raise InvocationError(
            f"invocation of {prototype.name!r} on {reference!r} {message}"
        ) from cause

    def _observe_latency(self, reference: str, seconds: float) -> None:
        ewma = self._latency.get(reference)
        if ewma is None:
            ewma = self._latency[reference] = Ewma()
        ewma.observe(seconds)

    def latency_snapshot(self) -> dict[str, float]:
        """Reference → latency EWMA seconds (diagnostics; not compared by
        the differential suites)."""
        return {
            reference: ewma.value
            for reference, ewma in sorted(self._latency.items())
        }

    # -- invocation observability helpers ------------------------------------

    def _health_transition(self, reference: str, before: HealthState) -> None:
        after = self.health.state(reference)
        if after is not before:
            self.obs.metrics.counter(
                "serena_service_health_transitions_total",
                "Service health state changes seen at invocation time",
                from_state=before.value,
                to_state=after.value,
            ).inc()
