"""Process-wide metrics registry: counters, gauges and latency histograms.

The serving stack (:mod:`repro.serving`) reports every operational signal —
request counts and latencies, requests in flight and load shed, WAL
append/fsync cost, publish and checkpoint duration —
through one :class:`MetricsRegistry`.
The registry is deliberately small and dependency-free:

* **Counters** are monotonic floats, optionally labelled
  (``counter.inc(1, route="/predict", status="200")``).  Sources that keep
  their own authoritative cumulative counts (the ``--profile`` op
  profiler) are mirrored at scrape time via :meth:`Counter.set_total`.
* **Gauges** are instantaneous values, settable directly or computed by a
  registered *collector* right before a scrape, so ``/metrics`` and
  ``/stats`` always serve live numbers from one code path.
* **Histograms** use fixed buckets (Prometheus ``le`` semantics: a value
  equal to a bucket's upper bound lands *in* that bucket) and derive
  p50/p95/p99 summaries by linear interpolation within the bucket —
  bounded memory regardless of traffic.

Thread safety: every instrument guards its state with one lock; increments
from writer threads and the event loop interleave safely.  Cost
discipline: a disabled registry (``MetricsRegistry(enabled=False)``) turns
every instrument into a no-op, which is what the serving benchmark's
instrumentation-overhead phase compares against.

Exposure: :meth:`MetricsRegistry.render` emits Prometheus text exposition
format (version 0.0.4); :meth:`MetricsRegistry.snapshot` emits a
JSON-friendly dict (used by the enriched ``/stats`` and the ``repro stats``
pretty-printer).  Both run the registered collectors first.

A process-wide default registry backs the serving stack
(:func:`get_registry`); tests swap in a private one with
:func:`use_registry`.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.analysis.sanitize import guard_attrs
from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram buckets (seconds): sub-millisecond to 10 s, the span of
#: one inline predict up to a full compaction + republish.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_le(edge: float) -> str:
    return "+Inf" if edge == float("inf") else _format_value(edge)


@guard_attrs("_lock", "_children")
class _Instrument:
    """Shared labelled-family machinery of the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        if not _METRIC_NAME.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        self.enabled = True

    def _key(self, labels: Mapping[str, Any]) -> tuple[str, ...]:
        if len(labels) == len(self.labelnames):
            try:
                return tuple([str(labels[name]) for name in self.labelnames])
            except KeyError:
                pass
        raise ConfigurationError(
            f"metric {self.name} takes labels {self.labelnames}, "
            f"got {tuple(sorted(labels))}"
        )

    def labels(self, **labels: Any) -> Callable[[float], None]:
        """The updater of one child, its label key resolved once.

        ``counter.labels(route="/predict", status="200")(1.0)`` is
        ``counter.inc(1.0, route="/predict", status="200")`` minus the
        per-call label check, for per-request hot paths (a gauge's updater
        sets, a histogram's observes).  Raises
        :class:`~repro.errors.ConfigurationError` for a wrong label set.
        """
        return partial(self._update, self._key(labels))

    def _label_suffix(self, key: tuple[str, ...]) -> str:
        if not self.labelnames:
            return ""
        pairs = ",".join(
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return "{" + pairs + "}"

    def _label_dict(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def clear(self) -> None:
        """Drop every recorded sample (the definition survives)."""
        with self._lock:
            self._children.clear()


class Counter(_Instrument):
    """A monotonically increasing sum, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the child selected by ``labels``.

        A negative ``amount`` raises
        :class:`~repro.errors.ConfigurationError` — counters only go up.
        """
        if self.enabled:
            self._update(self._key(labels), amount)

    def _update(self, key: tuple[str, ...], amount: float) -> None:
        if not self.enabled:
            return
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: Any) -> None:
        """Mirror an external cumulative total (scrape-time collectors).

        For sources that already keep their own authoritative counters (the
        ``--profile`` op profiler): the registry child is set to
        the source's value, never below its previous one, so the exposed
        series stays monotonic even across a source reset.
        """
        if not self.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._children[key] = max(self._children.get(key, 0.0), float(value))

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def _snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            return [
                {"labels": self._label_dict(key), "value": value}
                for key, value in sorted(self._children.items())
            ]

    def _render(self) -> Iterator[str]:
        with self._lock:
            for key, value in sorted(self._children.items()):
                yield f"{self.name}{self._label_suffix(key)} {_format_value(value)}"


class Gauge(_Instrument):
    """An instantaneous value, settable directly or via a callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]) -> None:
        super().__init__(name, help, labelnames)
        self._fn: Callable[[], float] | None = None

    def set(self, value: float, **labels: Any) -> None:
        if self.enabled:
            self._update(self._key(labels), value)

    def _update(self, key: tuple[str, ...], value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def set_fn(self, fn: Callable[[], float] | None) -> None:
        """Compute the (unlabelled) value lazily at every scrape.

        Raises :class:`~repro.errors.ConfigurationError` on a labelled
        gauge — a single callback cannot fan out to label children.
        """
        if self.labelnames:
            raise ConfigurationError(
                f"gauge {self.name} is labelled; set_fn needs an unlabelled gauge"
            )
        self._fn = fn

    def value(self, **labels: Any) -> float:
        self._pull()
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def _pull(self) -> None:
        if self._fn is not None and self.enabled:
            value = float(self._fn())
            with self._lock:
                self._children[()] = value

    def _snapshot(self) -> list[dict[str, Any]]:
        self._pull()
        with self._lock:
            return [
                {"labels": self._label_dict(key), "value": value}
                for key, value in sorted(self._children.items())
            ]

    def _render(self) -> Iterator[str]:
        self._pull()
        with self._lock:
            for key, value in sorted(self._children.items()):
                yield f"{self.name}{self._label_suffix(key)} {_format_value(value)}"


class _HistogramState:
    __slots__ = ("counts", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0


class Histogram(_Instrument):
    """Fixed-bucket distribution with interpolated percentile summaries.

    ``buckets`` are the finite upper bounds (ascending); an implicit
    ``+Inf`` bucket tops them off.  ``observe`` files a value into the first
    bucket whose bound is **>=** the value (Prometheus ``le`` semantics), so
    a value exactly on an edge belongs to that edge's bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigurationError(
                f"histogram {name} buckets must be a non-empty ascending "
                f"sequence, got {buckets}"
            )
        if edges[-1] == float("inf"):
            edges = edges[:-1]
        self.buckets = edges

    def observe(self, value: float, **labels: Any) -> None:
        if self.enabled:
            self._update(self._key(labels), value)

    def _update(self, key: tuple[str, ...], value: float) -> None:
        if not self.enabled:
            return
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = _HistogramState(len(self.buckets) + 1)
            state.counts[index] += 1
            state.sum += value

    def observe_many(self, values: Iterable[float], **labels: Any) -> None:
        """File a batch of values under one lock acquisition.

        Hot paths that produce one observation per item of a batch amortise
        the lock and child lookup across the whole batch instead of paying
        them per item.
        """
        if not self.enabled:
            return
        values = [float(value) for value in values]
        if not values:
            return
        buckets = self.buckets
        key = self._key(labels)
        with self._lock:
            state = self._children.get(key)
            if state is None:
                state = self._children[key] = _HistogramState(len(buckets) + 1)
            counts = state.counts
            for value in values:
                counts[bisect_left(buckets, value)] += 1
            state.sum += sum(values)

    # -- summaries ------------------------------------------------------ #
    def count(self, **labels: Any) -> int:
        with self._lock:
            state = self._children.get(self._key(labels))
            return sum(state.counts) if state else 0

    def total(self, **labels: Any) -> float:
        with self._lock:
            state = self._children.get(self._key(labels))
            return state.sum if state else 0.0

    def percentile(self, q: float, **labels: Any) -> float:
        """Interpolated ``q``-quantile (``q`` in [0, 1]) from the buckets.

        Within a bucket the distribution is assumed uniform; the overflow
        (``+Inf``) bucket reports the largest finite edge — percentiles are
        summaries, not exact order statistics.  ``q`` outside [0, 1] raises
        :class:`~repro.errors.ConfigurationError`.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        with self._lock:
            state = self._children.get(self._key(labels))
            counts = list(state.counts) if state else None
        if not counts or sum(counts) == 0:
            return 0.0
        return self._quantile_from_counts(counts, q)

    def _quantile_from_counts(self, counts: list[int], q: float) -> float:
        total = sum(counts)
        target = q * total
        cumulative = 0.0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (target - cumulative) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += count
        return self.buckets[-1]

    def _snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            states = {
                key: (list(state.counts), state.sum)
                for key, state in sorted(self._children.items())
            }
        rows = []
        for key, (counts, total) in states.items():
            cumulative: dict[str, int] = {}
            running = 0
            for edge, count in zip(self.buckets + (float("inf"),), counts):
                running += count
                cumulative[_format_le(edge)] = running
            rows.append(
                {
                    "labels": self._label_dict(key),
                    "count": sum(counts),
                    "sum": total,
                    "p50": self._quantile_from_counts(counts, 0.50),
                    "p95": self._quantile_from_counts(counts, 0.95),
                    "p99": self._quantile_from_counts(counts, 0.99),
                    "buckets": cumulative,
                }
            )
        return rows

    def _render(self) -> Iterator[str]:
        with self._lock:
            states = {
                key: (list(state.counts), state.sum)
                for key, state in sorted(self._children.items())
            }
        for key, (counts, total) in states.items():
            running = 0
            for edge, count in zip(self.buckets + (float("inf"),), counts):
                running += count
                labels = dict(zip(self.labelnames, key))
                pairs = [
                    f'{name}="{_escape_label_value(value)}"'
                    for name, value in labels.items()
                ]
                pairs.append(f'le="{_format_le(edge)}"')
                yield f"{self.name}_bucket{{{','.join(pairs)}}} {running}"
            suffix = self._label_suffix(key)
            yield f"{self.name}_sum{suffix} {_format_value(total)}"
            yield f"{self.name}_count{suffix} {sum(counts)}"


@guard_attrs("_lock", "_metrics", "_collectors")
class MetricsRegistry:
    """Name-keyed instrument store with collectors and two export formats.

    Instruments are get-or-create: asking twice for the same name returns
    the same object (so a pool and a server can share one family), while a
    kind or label mismatch raises.  ``enabled=False`` makes every
    instrument a no-op — the "no sink attached" build the overhead
    benchmark compares against.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: dict[str, _Instrument] = {}
        self._collectors: list[Callable[[], None]] = []

    # -- instrument factories ------------------------------------------- #
    def _get_or_create(
        self, cls: type, name: str, help: str, labelnames: tuple[str, ...], **kwargs: Any
    ) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, tuple(labelnames), **kwargs)
            instrument.enabled = self.enabled
            self._metrics[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    # -- collectors ----------------------------------------------------- #
    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback run before every scrape (gauges, mirrors)."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def remove_collector(self, fn: Callable[[], None]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def collect(self) -> None:
        if not self.enabled:
            return
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn()

    # -- export --------------------------------------------------------- #
    def snapshot(self, *, collect: bool = True) -> dict[str, Any]:
        """Deep-copied JSON-friendly view; mutations after it never show."""
        if collect:
            self.collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        payload: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        section = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for metric in metrics:
            payload[section[metric.kind]][metric.name] = {
                "help": metric.help,
                "values": metric._snapshot(),
            }
        return payload

    def render(self, *, collect: bool = True) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        if collect:
            self.collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            samples = list(metric._render())
            if not samples:
                continue
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(samples)
        return "\n".join(lines) + "\n" if lines else ""

    # -- lifecycle ------------------------------------------------------ #
    def reset(self) -> None:
        """Zero every instrument (definitions and collectors survive)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            count = len(self._metrics)
        return f"MetricsRegistry(enabled={self.enabled}, metrics={count})"


_DEFAULT = MetricsRegistry()
_DEFAULT_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry the serving stack reports through."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        previous, _DEFAULT = _DEFAULT, registry
    return previous


class use_registry:
    """Context manager swapping the default registry (test isolation).

    ::

        with use_registry(MetricsRegistry()) as registry:
            server = ServingServer(...)   # instruments land in `registry`
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: Any) -> None:
        if self._previous is not None:
            set_registry(self._previous)
