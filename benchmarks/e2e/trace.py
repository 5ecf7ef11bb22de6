"""Outside-in layer trace: timing wrappers around public callables.

The benchmark never edits ``src/``: for the traced round only,
:meth:`Tracer.installed` swaps the callables in :data:`TARGETS` for
wrappers that record a span per call, and puts the originals back on
exit, error or not.  A span is ``(name, start, end, parent, instant)``;
a layer's **self time** is its span's duration minus the time its child
spans cover, so the self times of one instant partition that instant's
traced wall time and can be summed per layer without double counting.
``pems.tick``'s self time is therefore the tick's private remainder (ERM
lease sweep, discovery diff, Local-ERM renewals, clock dispatch).

Coroutines (``ClientSession.send_batch``) are *driven*: the wrapper
steps the coroutine itself and times only its synchronous segments, so a
pump suspended in ``drain()`` is not charged for what other tasks do
meanwhile and the single span stack stays consistent on the one event
loop thread.

Aggregates are kept for every instant; full spans only for the sample
instants the caller asks for.  Everything stays in memory until
:func:`write_trace`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter

__all__ = ["TARGETS", "Tracer", "bindings", "write_trace"]

#: (span name, owner "module[:Class]", attribute, kind).  The span
#: name's first component is the layer.  Kinds: ``sync``; ``rows`` (sync,
#: the int result counts rows); ``bytes`` (sync, ``len(result)`` counts
#: bytes); ``async`` (driven coroutine); ``handler`` (the *returned*
#: callable is timed as ``devices.handler``).
TARGETS = (
    ("pems.tick", "repro.pems.pems:PEMS", "tick", "sync"),
    ("city.feeder", "repro.city.devices:FleetTelemetryFeeder", "__call__", "sync"),
    ("model.invoke", "repro.model.services:ServiceRegistry", "invoke", "sync"),
    ("devices.handler", "repro.model.services:Service", "handler", "handler"),
    ("pems.tables", "repro.pems.table_manager:ExtendedTableManager", "insert", "sync"),
    ("pems.tables", "repro.pems.table_manager:ExtendedTableManager", "insert_tuples", "sync"),
    ("pems.tables", "repro.pems.table_manager:ExtendedTableManager", "delete", "sync"),
    ("pems.tables", "repro.pems.table_manager:ExtendedTableManager", "delete_tuples", "sync"),
    ("continuous.insert", "repro.continuous.xdrelation:XDRelation", "insert", "rows"),
    ("continuous.delete", "repro.continuous.xdrelation:XDRelation", "delete", "rows"),
    ("pems.erm_available", "repro.pems.erm:EnvironmentResourceManager", "available", "sync"),
    ("exec.plan", "repro.exec.scheduler:TickScheduler", "plan", "sync"),
    ("exec.evaluate", "repro.continuous.continuous_query:ContinuousQuery", "evaluate_at", "sync"),
    ("exec.carry", "repro.continuous.continuous_query:ContinuousQuery", "carry_forward", "sync"),
    ("exec.register", "repro.pems.query_processor:QueryProcessor", "register_continuous", "sync"),
    ("lang.compile", "repro.lang.sql", "compile_sql", "sync"),
    ("server.tick", "repro.server.service:SubscriptionServer", "tick", "sync"),
    ("server.subscribe", "repro.server.service:SubscriptionServer", "subscribe", "sync"),
    ("server.queue_publish", "repro.server.delivery:DeliveryQueue", "publish", "sync"),
    ("server.render", "repro.server.protocol", "render_rows", "sync"),
    ("server.encode", "repro.server.protocol", "encode", "bytes"),
    ("server.send", "repro.server.session:ClientSession", "send_batch", "async"),
    # the benchmark's own TCP client: its reads are part of the instant
    ("client.read", "harness:WireClient", "receive", "async"),
)

#: Modules that bind a module-level target by name (``from … import``):
#: the wrapper replaces every binding of the original object.
_IMPORTERS = ("repro.server.session", "repro.server.service", "repro.lang")

#: Aggregate row layout: calls, self seconds, total seconds, units
#: (rows or bytes), calls that raised, direct child spans.  ``cut``
#: replaces the last column by the uncorrected self seconds.
CALLS, SELF, TOTAL, UNITS, RAISED, KIDS = range(6)
RAW_SELF = KIDS


class _Driven:
    """Awaitable stepping ``coro`` by hand, timing its busy segments."""

    __slots__ = ("tracer", "name", "coro")

    def __init__(self, tracer, name, coro):
        self.tracer = tracer
        self.name = name
        self.coro = coro

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        stack = tracer.stack
        row = tracer.rows[self.name]
        frame = [0.0, tracer.open_span(), 0]
        first = last = None
        busy = 0.0
        value = error = None
        try:
            while True:
                outer = stack[-1] if stack else None
                stack.append(frame)
                start = perf_counter()
                if first is None:
                    first = start
                try:
                    if error is None:
                        yielded = coro.send(value)
                    else:
                        yielded = coro.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    last = perf_counter()
                    busy += last - start
                    stack.pop()
                    if outer is not None:
                        outer[0] += last - start
                try:
                    value, error = (yield yielded), None
                except BaseException as thrown:  # re-thrown into coro above
                    value, error = None, thrown
        finally:
            row[CALLS] += 1
            row[SELF] += busy - frame[0]
            row[TOTAL] += busy
            row[KIDS] += frame[2]
            tracer.close_span(frame[1], self.name, first, last, -1)


class Tracer:
    """Span recorder and patcher for one traced round."""

    def __init__(self):
        #: span name -> aggregate row of the current instant.
        self.rows: dict[str, list] = {t[0]: [0, 0.0, 0.0, 0, 0, 0] for t in TARGETS}
        #: Open frames, innermost last: [child seconds, span index, children].
        self.stack: list[list] = []
        self.instant = 0
        #: True while full spans are recorded (sample instants).
        self.capture = False
        self.spans: list[tuple | None] = []
        self._handlers: dict = {}
        #: Per-span cost of the wrapper itself, measured by ``_calibrate``:
        #: ``inside`` lands in the span's own duration, ``outside`` in
        #: its parent's self time.  ``cut`` takes both out again.
        self.inside = self.outside = 0.0

    def _calibrate(self, calls: int = 20000) -> None:
        def noop():
            pass

        def loop(fn) -> float:
            best = float("inf")
            for _ in range(3):
                started = perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, perf_counter() - started)
            return best

        row = self.rows["calibration"] = [0, 0.0, 0.0, 0, 0, 0]
        traced = loop(self._sync("calibration", noop))
        del self.rows["calibration"]
        self.inside = row[TOTAL] / row[CALLS]
        self.outside = max(0.0, (traced - loop(noop)) / calls - self.inside)

    # -- span bookkeeping ---------------------------------------------------------

    def open_span(self) -> int:
        if not self.capture:
            return -1
        self.spans.append(None)
        return len(self.spans) - 1

    def close_span(self, index, name, start, end, parent) -> None:
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.instant)

    def cut(self) -> dict[str, tuple]:
        """The aggregates since the last cut (non-empty rows), zeroed.
        ``SELF`` comes back net of the wrappers' own cost; the
        uncorrected value rides in the ``RAW_SELF`` column."""
        out = {}
        for name, row in self.rows.items():
            if row[CALLS]:
                raw = row[SELF]
                net = raw - row[CALLS] * self.inside - row[KIDS] * self.outside
                out[name] = (row[CALLS], max(0.0, net), *row[TOTAL:KIDS], raw)
                row[:] = (0, 0.0, 0.0, 0, 0, 0)
        return out

    # -- wrappers -------------------------------------------------------------------

    def _sync(self, name: str, fn, units=None):
        tracer, stack, row = self, self.stack, self.rows[name]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, -1, 0]
            if tracer.capture:
                frame[1] = tracer.open_span()
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    row[UNITS] += units(result)
                return result
            except BaseException:
                row[RAISED] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                row[CALLS] += 1
                row[SELF] += elapsed - frame[0]
                row[TOTAL] += elapsed
                row[KIDS] += frame[2]
                if parent is not None:
                    parent[0] += elapsed
                    parent[2] += 1
                if frame[1] >= 0:
                    tracer.close_span(
                        frame[1], name, start, end,
                        parent[1] if parent is not None else -1,
                    )

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _async(self, name: str, fn):
        tracer = self

        async def wrapper(*args, **kwargs):
            return await _Driven(tracer, name, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _handler(self, name: str, fn):
        """``Service.handler`` replacement: times the callable it returns."""
        cache = self._handlers

        def handler(service, prototype):
            method = fn(service, prototype)
            timed = cache.get(method)
            if timed is None:
                timed = cache[method] = self._sync(name, method)
            return timed

        handler.__wrapped__ = fn
        return handler

    def _wrap(self, name: str, kind: str, fn):
        if kind == "async":
            return self._async(name, fn)
        if kind == "handler":
            return self._handler(name, fn)
        units = {"rows": int, "bytes": len}.get(kind)
        return self._sync(name, fn, units)

    # -- install / restore -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block; the
        originals (raw class-dict entries, so ``staticmethod`` objects
        survive, and every by-name import of a module function) are
        restored on the way out even if the block raises."""
        undo: list[tuple[object, str, object]] = []
        self._calibrate()
        try:
            for name, kind, holders, attr, raw in bindings():
                if isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, kind, raw.__func__))
                else:
                    patched = self._wrap(name, kind, raw)
                for holder in holders:
                    undo.append((holder, attr, raw))
                    setattr(holder, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)
            self._handlers.clear()


def bindings():
    """Resolve :data:`TARGETS`: ``(span name, kind, holders, attribute,
    raw object)`` — the class for a method (raw = its class-dict entry),
    or every module that binds a module-level function by name."""
    for name, owner_path, attr, kind in TARGETS:
        module_name, _, class_name = owner_path.partition(":")
        module = importlib.import_module(module_name)
        if class_name:
            owner = getattr(module, class_name)
            yield name, kind, [owner], attr, owner.__dict__[attr]
            continue
        raw = getattr(module, attr)
        importers = (importlib.import_module(m) for m in _IMPORTERS)
        holders = [module] + [h for h in importers if getattr(h, attr, None) is raw]
        yield name, kind, holders, attr, raw


def write_trace(path, instants: list[dict], spans: list[tuple]) -> None:
    """One JSON line per instant (aggregates), then one per sampled span."""
    with open(path, "w", encoding="utf-8") as out:
        for record in instants:
            out.write(
                json.dumps(
                    {
                        "instant": record["instant"],
                        "phase": record["phase"],
                        "wall_us": round(record["wall"] * 1e6, 1),
                        "spans": {
                            name: {
                                "calls": row[CALLS],
                                "self_us": round(row[SELF] * 1e6, 1),
                                "total_us": round(row[TOTAL] * 1e6, 1),
                                "units": row[UNITS],
                                "raised": row[RAISED],
                            }
                            for name, row in record["rows"].items()
                        },
                    }
                )
                + "\n"
            )
        origin = min((s[1] for s in spans if s), default=0.0)
        for index, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent, instant = span
            out.write(
                json.dumps(
                    {
                        "span": index,
                        "name": name,
                        "start_us": round((start - origin) * 1e6, 1),
                        "end_us": round((end - origin) * 1e6, 1),
                        "parent": parent,
                        "instant": instant,
                    }
                )
                + "\n"
            )
