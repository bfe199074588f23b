"""Per-request trace context: trace ids and per-stage span timings.

A :class:`Trace` is a tiny mutable record — a ``trace_id`` plus a dict of
cumulative per-stage second counts.  The serving stack activates one (or
several, see below) for the duration of a request via a
:class:`contextvars.ContextVar`, and every instrumented stage wraps itself
in :func:`span`::

    trace = Trace.new()
    with activate(trace):
        ...                     # anywhere below, sync or async:
        with span("knn"):
            index.query(...)

``contextvars`` gives the propagation the property the serving stack needs
for free: each asyncio task sees its own activation, so concurrent requests
don't bleed into each other.  The serving write path re-activates the
request's traces inside its executor thread, so spans recorded there land
on the request's trace too.

**Fan-out**: work shared by several requests must be billed to each of
them, so :func:`activate` accepts multiple traces and the sink is a tuple;
:func:`span` adds the elapsed time to each.

**Cost discipline**: when nothing is activated (tracing disabled or an
unsampled request), :func:`span` checks one ContextVar and yields — no
clock reads, no allocation beyond the generator frame.

**Profiler bridge**: ``repro serve --profile`` registers an
:class:`~repro.utils.profiling.OpProfiler` via :func:`set_span_profiler`;
every span then *also* lands in the profiler's per-op records, which the
server folds into ``/metrics`` as ``repro_op_seconds_total{op=...}``.
This is deliberately separate from ``repro.utils.profiling.ACTIVE`` so
serving-side spans never pollute a training profiler's operator
accounting.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.utils.profiling import OpProfiler

__all__ = [
    "Trace",
    "activate",
    "current_trace",
    "current_traces",
    "record_span",
    "set_span_profiler",
    "span",
]

_SINK: ContextVar[tuple["Trace", ...] | None] = ContextVar("repro_trace_sink", default=None)

_PROFILER_LOCK = threading.Lock()
_SPAN_PROFILER: "OpProfiler | None" = None


class Trace:
    """Per-request span accumulator.

    ``spans`` maps stage name to cumulative seconds; a stage entered twice
    (two WAL appends in one write) accumulates.  ``meta`` is free-form
    context (route, batch size, ...) that ends up in the trace log line.
    """

    __slots__ = ("trace_id", "spans", "meta")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: dict[str, float] = {}
        self.meta: dict[str, Any] = {}

    @classmethod
    def new(cls) -> "Trace":
        return cls(uuid.uuid4().hex[:16])

    def add(self, name: str, seconds: float) -> None:
        self.spans[name] = self.spans.get(name, 0.0) + seconds

    def total(self) -> float:
        """Sum of all recorded span seconds."""
        return sum(self.spans.values())

    def spans_ms(self) -> dict[str, float]:
        """Span timings in milliseconds, rounded for log output."""
        return {name: round(seconds * 1e3, 3) for name, seconds in self.spans.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.trace_id}, spans={self.spans_ms()})"


def current_trace() -> "Trace | None":
    """The first activated trace in this context, if any."""
    sink = _SINK.get()
    return sink[0] if sink else None


def current_traces() -> tuple["Trace", ...]:
    """All activated traces in this context (empty tuple when inactive)."""
    return _SINK.get() or ()


@contextmanager
def activate(*traces: "Trace") -> Iterator[tuple["Trace", ...]]:
    """Route :func:`span` timings to ``traces`` within this context.

    Activations nest by replacement, not accumulation: a worker-side
    ``activate(*traces)`` supersedes whatever the calling context had
    active, which is exactly the fan-out semantics shared work needs.
    """
    token = _SINK.set(traces if traces else None)
    try:
        yield traces
    finally:
        _SINK.reset(token)


def set_span_profiler(profiler: "OpProfiler | None") -> "OpProfiler | None":
    """Attach an OpProfiler receiving every span; returns the previous one."""
    global _SPAN_PROFILER
    with _PROFILER_LOCK:
        previous, _SPAN_PROFILER = _SPAN_PROFILER, profiler
    return previous


def record_span(name: str, seconds: float) -> None:
    """Bill an externally timed stage to every activated trace.

    For call sites that already hold a measured duration (because the same
    number also feeds a latency histogram); :func:`span` is the
    context-manager form of the same operation.
    """
    sink = _SINK.get()
    if sink is not None:
        for trace in sink:
            trace.add(name, seconds)
    profiler = _SPAN_PROFILER
    if profiler is not None:
        # The event loop and writer threads record concurrently; OpProfiler
        # itself is single-threaded (training owns one per run), so
        # serialise here.
        with _PROFILER_LOCK:
            profiler.record_forward(name, seconds, 0)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a stage and bill it to every activated trace.

    Near-free when tracing is off: a single ContextVar read plus a module
    global check, no clock access.
    """
    if _SINK.get() is None and _SPAN_PROFILER is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_span(name, time.perf_counter() - start)
