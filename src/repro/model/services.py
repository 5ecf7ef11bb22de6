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
from repro.model.substitution import (
    ResolvedBinding,
    SubstitutionPolicy,
    SubstitutionState,
)
from repro.obs.metrics import Ewma
from repro.obs.observe import Observability

__all__ = ["Service", "MethodHandler", "ServiceRegistry"]

# A method takes the input parameters (by attribute name) and the current
# time instant, and returns 0..n output tuples as mappings.
MethodHandler = Callable[[Mapping[str, object], int], Sequence[Mapping[str, object]]]


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
        observe: "Observability | str | None" = None,
        substitution: SubstitutionPolicy | None = None,
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
        #: Observability facade: a standalone registry defaults to the
        #: "off" mode (the migrated legacy counters — invocation count,
        #: memo hits — still record); PEMS rebinds the registry onto its
        #: environment-wide facade via :meth:`bind_observability`.
        self.obs = (
            Observability.disabled()
            if observe is None
            else Observability.coerce(observe)
        )
        self._init_instruments()
        #: Per-service health (retry/backoff/quarantine enforcement): fed
        #: by :meth:`invoke`, consumed by the core ERM's quarantine sweep.
        #: With the default (permissive) policy no gate ever closes and
        #: invocation behaviour is identical to a policy-free registry.
        self.health = HealthTracker(policy)
        #: Substitution relation + active binding/failover tables.  Declared
        #: rules are consulted by :meth:`invoke` (binding routing before the
        #: health gates, failover on the failure path); the tables are only
        #: ever rewritten by the core ERM's tick sweep, so they are frozen
        #: for the duration of an instant.
        self.substitutions = SubstitutionState(substitution)
        # Per-service invocation-latency EWMAs (seconds): the observed
        # "latency histogram" signal the substitution scorer folds in when
        # the policy is latency_aware.  Always-on and registry-internal —
        # deliberately *not* part of the health snapshot, which the
        # differential suites compare across engines.
        self._latency: dict[str, Ewma] = {}
        self._chain_depth = 0
        # Per-instant invocation memo (see begin_instant_memo): active only
        # inside a PEMS tick, where identical (prototype, service, inputs)
        # calls from different continuous queries are deterministic
        # duplicates (Section 3.2) and hit the device once.
        self._memo: dict[tuple, list[tuple]] | None = None
        self._memo_instant: int | None = None

    def _init_instruments(self) -> None:
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

    def bind_observability(self, observe: "Observability | str | None") -> None:
        """Re-home this registry's instruments onto another facade (PEMS
        binds the environment registry onto the PEMS-wide observability).
        Accumulated legacy counts carry over; outcome series start fresh
        on the new facade."""
        invocations = self._invocations_total.value
        memo_hits = self._memo_hits_total.value
        self.obs = Observability.coerce(observe)
        self._init_instruments()
        if invocations:
            self._invocations_total.inc(invocations)
        if memo_hits:
            self._memo_hits_total.inc(memo_hits)

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
        if self._indexed_version != self.topology_version:
            index: dict[Prototype, list[Service]] = {}
            for reference in sorted(self._services):
                service = self._services[reference]
                for implemented in service._methods:
                    index.setdefault(implemented, []).append(service)
            self._providers = index
            self._indexed_version = self.topology_version
        return list(self._providers.get(prototype, ()))

    # -- invocation (Definition 1) -------------------------------------------

    @property
    def invocation_count(self) -> int:
        """Total number of invocations performed through this registry.

        Used by benchmarks to measure rewriting savings (Section 3.3).
        Backed by the ``serena_invocations_total`` counter of :attr:`obs`.
        """
        return int(self._invocations_total.value)

    def reset_invocation_count(self) -> None:
        self._invocations_total.reset()

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
        inputs: Mapping[str, object],
        instant: int,
    ) -> list[tuple]:
        """``invoke_psi(s, t)``: invoke ``prototype`` on the service
        referenced by ``reference`` with input tuple ``inputs``.

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
        inputs: Mapping[str, object],
        instant: int,
    ) -> list["list[tuple] | ServiceError"]:
        """Invoke ``prototype`` with the same ``inputs`` on every service
        in ``references`` at ``instant``: the batch a stream feeder issues
        per prototype per instant.

        Returns one outcome per reference, in order: the result tuples, or
        the :class:`ServiceError` that :meth:`invoke` raises for that
        reference (one failing device never aborts the batch).  Each
        reference goes through everything a lone invocation goes through —
        memo, sticky binding, health gates, device call, output-schema
        check, health/latency/outcome bookkeeping, failover — in
        ``references`` order.  Only what cannot differ between the
        references of one batch is worked out once, before the loop: the
        input-schema comparison, the memo key's input part, the
        observability flags and the output converter.  Services are
        deterministic at a given instant and the binding and failover
        tables are frozen for it (Section 3.2), so neither the order of
        the batch nor its size can change an outcome.
        """
        name = prototype.name
        provided = frozenset(inputs)
        expected = prototype.input_schema.name_set
        convert = prototype.output_schema.tuple_from_mapping
        obs = self.obs
        metrics_on = obs.metrics_on
        tracing_on = obs.tracing_on
        health = self.health
        subs = self.substitutions
        services = self._services
        memo = self._memo if instant == self._memo_instant else None
        if memo is not None:
            try:
                frozen_inputs = tuple(sorted(inputs.items()))
            except TypeError:
                memo = None  # unsortable inputs: bypass the memo

        def invoke_one(reference: str) -> list[tuple]:
            try:
                service = services[reference]
            except KeyError:
                raise UnknownServiceError(reference) from None
            handler = service.handler(prototype)
            if provided != expected:
                raise InvocationError(
                    f"invocation of {name!r} on {reference!r}: input "
                    f"attributes {sorted(provided)} do not match prototype input "
                    f"schema {sorted(expected)}"
                )
            key: tuple | None = None
            if memo is not None:
                key = (name, reference, frozen_inputs)
                cached = memo.get(key)
                if cached is not None:
                    self._memo_hits_total.inc()
                    if metrics_on:
                        self._outcome_memo_hit.inc()
                    if tracing_on:
                        obs.tracer.event(
                            "service.invoke",
                            instant,
                            service=reference,
                            prototype=name,
                            outcome="memo_hit",
                        )
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
                    if metrics_on:
                        self._outcome_substituted.inc()
                    if tracing_on:
                        obs.tracer.event(
                            "service.invoke",
                            instant,
                            service=reference,
                            prototype=name,
                            outcome="substituted",
                            via=binding.describe(),
                        )
                    if key is not None:
                        memo[key] = list(results)
                    return results
            refused = health.check(reference, instant)
            if refused is not None:
                # The policy fails the invocation fast: the device is not
                # contacted and the health state machine does not move.
                reason, retry_at = refused
                health.record_fast_failure(reference)
                if metrics_on:
                    self._outcome_fast_failed.inc()
                if tracing_on:
                    obs.tracer.event(
                        "service.invoke",
                        instant,
                        service=reference,
                        prototype=name,
                        outcome="fast_failed",
                        reason=reason,
                    )
                fallback = self._failover(prototype, reference, inputs, instant, key)
                if fallback is not None:
                    return fallback
                raise ServiceUnavailableError(reference, reason, retry_at)
            state_before = health.state(reference) if metrics_on else None
            self._invocations_total.inc()
            started = perf_counter()
            try:
                rows = handler(dict(inputs), instant)
            except Exception as exc:
                health.record_failure(reference, instant)
                self._invoke_failed(prototype, reference, instant, state_before)
                fallback = self._failover(prototype, reference, inputs, instant, key)
                if fallback is not None:
                    return fallback
                raise InvocationError(
                    f"invocation of {name!r} on {reference!r} failed: {exc}"
                ) from exc
            results = []
            for row in rows:
                try:
                    results.append(convert(row))
                except SchemaError as exc:
                    health.record_failure(reference, instant)
                    self._invoke_failed(prototype, reference, instant, state_before)
                    fallback = self._failover(
                        prototype, reference, inputs, instant, key
                    )
                    if fallback is not None:
                        return fallback
                    raise InvocationError(
                        f"invocation of {name!r} on {reference!r} "
                        f"returned an invalid output tuple {row!r}: {exc}"
                    ) from exc
            self._observe_latency(reference, perf_counter() - started)
            health.record_success(reference, instant)
            if state_before is not None and state_before is not HealthState.UP:
                # a success leaves an UP service UP: no transition to count
                self._health_transition(reference, state_before)
            if metrics_on:
                self._outcome_success.inc()
            if tracing_on:
                obs.tracer.event(
                    "service.invoke",
                    instant,
                    service=reference,
                    prototype=name,
                    outcome="success",
                    rows=len(results),
                )
            if key is not None:
                memo[key] = list(results)  # successes only
            return results

        outcomes: list[list[tuple] | ServiceError] = []
        for reference in references:
            try:
                outcomes.append(invoke_one(reference))
            except ServiceError as exc:
                # An outcome, not a propagating error: without its traceback
                # it holds no frame (and no cycle through ``outcomes``).
                outcomes.append(exc.with_traceback(None))
        return outcomes

    # -- substitution (semantic rebinding) -----------------------------------

    def _invoke_binding(
        self,
        plan: ResolvedBinding,
        prototype: Prototype,
        inputs: Mapping[str, object],
        instant: int,
    ) -> list[tuple]:
        """Execute a substitution plan in place of ``(prototype, reference)``.

        Nested :meth:`invoke` calls do all the usual work — gates, health
        bookkeeping, memoization — against the *substitute* references, so
        a substitute that itself fails is observed and re-ranked by the
        next ERM sweep.  Routing through a service that is itself bound
        recurses; ``max_chain`` bounds the depth (cycle guard of last
        resort — the ERM refuses to install cyclic bindings up front).
        """
        if self._chain_depth >= self.substitutions.policy.max_chain:
            raise InvocationError(
                f"substitution chain for {prototype.name!r} on "
                f"{plan.reference!r} exceeded max_chain="
                f"{self.substitutions.policy.max_chain}"
            )
        self._chain_depth += 1
        try:
            if plan.rule.kind == "equivalent_to":
                _, target = plan.targets[0]
                return self.invoke(prototype, target, inputs, instant)
            if plan.rule.kind == "specializes":
                via, target = plan.targets[0]
                narrowed = {name: inputs[name] for name in via.input_names}
                rows = self.invoke(via, target, narrowed, instant)
                projection = plan.projection or ()
                return [tuple(row[i] for i in projection) for row in rows]
            # composed_of: thread an attribute environment through the steps
            # with Cartesian semantics over multi-row step outputs.
            envs: list[dict[str, object]] = [dict(inputs)]
            for step_proto, target in plan.targets:
                step_names = step_proto.input_schema.names
                out_names = step_proto.output_schema.names
                merged: list[dict[str, object]] = []
                for env in envs:
                    step_inputs = {name: env[name] for name in step_names}
                    for row in self.invoke(step_proto, target, step_inputs, instant):
                        extended = dict(env)
                        extended.update(zip(out_names, row))
                        merged.append(extended)
                envs = merged
            names = prototype.output_schema.names
            return [tuple(env[name] for name in names) for env in envs]
        finally:
            self._chain_depth -= 1

    def _failover(
        self,
        prototype: Prototype,
        reference: str,
        inputs: Mapping[str, object],
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
        if not subs.failover or not subs.policy.failover:
            return None
        plans = subs.failover.get((prototype.name, reference))
        if not plans:
            return None
        obs = self.obs
        for plan in plans:
            try:
                results = self._invoke_binding(plan, prototype, inputs, instant)
            except ServiceError:
                continue
            self._failovers_total.inc()
            if obs.tracing_on:
                obs.tracer.event(
                    "substitution.failover",
                    instant,
                    service=reference,
                    prototype=prototype.name,
                    via=plan.describe(),
                )
            if key is not None and self._memo is not None:
                self._memo[key] = list(results)
            return results
        return None

    def _observe_latency(self, reference: str, seconds: float) -> None:
        ewma = self._latency.get(reference)
        if ewma is None:
            ewma = self._latency[reference] = Ewma()
        ewma.observe(seconds)

    def latency_decile(self, reference: str) -> int:
        """Coarse latency bucket (0-10) of ``reference``'s EWMA relative to
        the slowest observed service — the optional ``latency_aware``
        scoring term.  Coarse on purpose: scores must be stable under the
        small run-to-run jitter of wall-clock timings."""
        ewma = self._latency.get(reference)
        if ewma is None or not ewma.count:
            return 0
        slowest = max(e.value for e in self._latency.values())
        if slowest <= 0:
            return 0
        return min(10, int(10 * ewma.value / slowest))

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

    def _invoke_failed(
        self,
        prototype: Prototype,
        reference: str,
        instant: int,
        state_before: HealthState | None,
    ) -> None:
        obs = self.obs
        if state_before is not None:
            self._health_transition(reference, state_before)
        if obs.metrics_on:
            self._outcome_failed.inc()
        if obs.tracing_on:
            obs.tracer.event(
                "service.invoke",
                instant,
                service=reference,
                prototype=prototype.name,
                outcome="failed",
            )
