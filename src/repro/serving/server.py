"""Asyncio HTTP serving front-end over one immutable published generation.

The in-process serving story (:class:`~repro.serving.FrozenModel` +
:class:`~repro.serving.InferenceSession`) stops at a Python API; production
traffic needs a process boundary.  This module provides it as two layers:

* :class:`SessionPool` — one **writer** session over a frozen model plus the
  :class:`~repro.serving.Generation` it last published.  Every mutation is
  applied to the writer; a *publish* then refreshes the writer's topology
  exactly once, freezes the result into a new read-only generation and swaps
  it in with one assignment (read-copy-update).  Reads never touch the
  writer: each is a slice of whichever generation was current when it
  started.  Durability is layered: with a checkpoint path configured, every
  publish of a tombstone-free writer persists the current state as a bundle
  through the (atomic-write) :class:`~repro.serving.OperatorStore`; with a
  WAL path configured, every mutation is additionally journalled and
  fsync'd **before** it is applied
  (:class:`~repro.serving.wal.WriteAheadLog`), so a crash *between*
  checkpoints loses nothing — :meth:`SessionPool.recover` replays the
  journal suffix on top of the last checkpoint and reconstructs the
  pre-crash state bit-for-bit.  Failure containment: a writer that throws
  mid-apply is **quarantined** — the pool degrades to read-only (writes
  raise :class:`WriterQuarantinedError` → HTTP 503 + ``Retry-After``) while
  reads keep serving the last published generation;
* :class:`ServingServer` — a dependency-free asyncio HTTP/1.1 (keep-alive)
  front-end speaking JSON.  ``POST /predict`` validates and slices against
  the current generation inline on the event loop — no queue, no executor
  hop — and stamps the answer with that generation's id.
  ``POST /insert|update|delete|compact|reassign`` take the single-writer
  path in an executor thread and republish; a per-write deadline
  (``write_timeout_s``) is answered with HTTP 504.  Admission control caps
  the requests in flight at ``max_queue_depth`` (HTTP 429 beyond it).
  ``GET /healthz`` is a real state machine — ``ok`` / ``degraded`` /
  ``draining`` plus WAL depth, requests in flight and checkpoint age, so a
  load balancer can drain a degraded node.  Shutdown drains: new requests
  get 503, in-flight ones finish, then the sockets close.

Responses are **bit-identical** to calling the underlying session directly:
both answer through :meth:`Generation.answer`.  Start one from the CLI::

    python -m repro.cli serve --bundle bundle.npz --port 8100 \\
        --checkpoint ckpt.npz --wal ckpt.wal

or programmatically (see ``benchmarks/bench_serving.py``)::

    server = ServingServer(FrozenModel.load("bundle.npz"), ServerConfig(port=0))
    await server.start()
    ...
    await server.shutdown()
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.sanitize import guard_attrs
from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.precision import resolve_dtype
from repro.obs.tracing import (
    Trace,
    activate,
    current_trace,
    current_traces,
    record_span,
    set_span_profiler,
)
from repro.serving.faults import declare_fault_point, fault_point
from repro.serving.frozen import FrozenModel
from repro.serving.session import Generation, InferenceSession
from repro.serving.wal import WALRecord, WriteAheadLog
from repro.utils.logging import get_logger, log_event
from repro.utils.profiling import OpProfiler
from repro.utils.rng import as_rng

__all__ = [
    "ServerConfig",
    "ServingServer",
    "SessionPool",
    "WriterQuarantinedError",
]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

declare_fault_point("pool.before_apply", "request journalled, writer untouched")
declare_fault_point("pool.mid_apply", "writer mutated, generation not published")
declare_fault_point("pool.before_publish", "start of refresh + generation swap")
declare_fault_point("pool.after_publish", "new generation live, not checkpointed")
declare_fault_point("pool.before_checkpoint", "snapshot built, not yet on disk")
declare_fault_point("pool.after_checkpoint", "checkpoint durable, WAL not truncated")


class WriterQuarantinedError(Exception):
    """The writer failed mid-apply; the pool is read-only (503 + Retry-After)."""


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy containers into JSON-serialisable builtins."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _feature_list(features: Any) -> list:
    """``features`` as float64 nested lists (the WAL/replay wire format).

    The float64 round-trip is exact: JSON serialises Python floats with
    ``repr`` (shortest round-tripping form), so a journalled mutation
    replays into bit-identical feature rows.
    """
    try:
        matrix = np.asarray(features, dtype=resolve_dtype("float64"))
    except (TypeError, ValueError) as error:
        raise ConfigurationError(f"features must be a numeric matrix: {error}") from error
    return matrix.tolist()


@dataclass
class ServerConfig:
    """Tunables of the serving front-end.

    ``max_queue_depth`` caps the requests in flight — the writes queued on
    or running in the single writer, since a read is answered inline before
    the next request is parsed; beyond it every ``POST`` is shed with HTTP
    429.  ``drain_timeout_s`` caps how long shutdown waits for in-flight
    work.

    Fault tolerance: ``checkpoint_path`` persists every tombstone-free
    published generation as an atomic warm-start bundle — and when a bundle
    already exists there at startup, the server restarts *from it* instead
    of the cold bundle.  ``wal_path`` journals every mutation (fsync'd
    before apply, unless ``wal_fsync=False``) so recovery replays the suffix
    since the last checkpoint.  ``write_timeout_s`` is the per-write
    deadline answered with HTTP 504 (``None`` disables); an expired write
    also quarantines the pool, because the wedged writer thread's state can
    no longer be trusted.
    """

    host: str = "127.0.0.1"
    port: int = 8100
    max_queue_depth: int = 1024
    drain_timeout_s: float = 10.0
    cluster_assignment: str = "nearest"
    checkpoint_path: str | Path | None = None
    wal_path: str | Path | None = None
    wal_fsync: bool = True
    write_timeout_s: float | None = 120.0
    #: Fraction of traced requests whose span breakdown is emitted as a
    #: structured JSON log line (``repro.serving.trace``); requests slower
    #: than ``slow_ms`` are always logged regardless of the sample rate.
    #: Tracing itself is enabled whenever either knob is set.
    trace_sample_rate: float = 0.0
    slow_ms: float | None = None
    #: Attach an :class:`~repro.utils.profiling.OpProfiler` to the serving
    #: span stream; per-op totals surface as ``repro_op_seconds_total``.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.write_timeout_s is not None and self.write_timeout_s <= 0:
            raise ConfigurationError(
                f"write_timeout_s must be > 0 or None, got {self.write_timeout_s}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                f"trace_sample_rate must be in [0, 1], got {self.trace_sample_rate}"
            )
        if self.slow_ms is not None and self.slow_ms < 0:
            raise ConfigurationError(
                f"slow_ms must be >= 0 or None, got {self.slow_ms}"
            )


@guard_attrs(
    "_lock",
    "_current", "_checkpoints", "_read_only", "_failure", "_recovered",
    "_last_checkpoint_time", "_last_seq", "_pending_records", "_recovering",
)
class SessionPool:
    """A writer session over one frozen model and its published generation.

    Writes are applied to the writer only; :meth:`publish` then refreshes
    the writer's topology once, freezes the result into an immutable
    :class:`~repro.serving.Generation` and swaps it in as :attr:`current`.
    A reader holding a generation keeps serving it, complete and unchanged,
    however many publishes land meanwhile — readers always serve a complete,
    immutable generation, never a half-mutated one.

    With ``wal_path`` set, every write is journalled and fsync'd **before**
    the writer applies it; :meth:`recover` replays the journal suffix (its
    record sequence numbers are deduplicated against the ``wal_seq`` the
    last checkpoint carries) through the identical apply path, so a
    recovered pool serves predictions bit-identical to one that never
    crashed.  A write that throws past validation **quarantines** the
    writer: :attr:`read_only` flips, further writes raise
    :class:`WriterQuarantinedError`, and reads keep serving the last
    published generation — a failed apply never leaks a half-mutated state
    to readers, because publishing is always the *last* step of an apply.
    """

    #: Ops a WAL record may carry (the full write surface of the pool).
    WAL_OPS = ("insert", "update", "delete", "compact", "reassign")

    def __init__(
        self,
        frozen: FrozenModel,
        *,
        cluster_assignment: str = "nearest",
        checkpoint_path: str | Path | None = None,
        wal_path: str | Path | None = None,
        wal_fsync: bool = True,
    ) -> None:
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.writer = InferenceSession(frozen, cluster_assignment=cluster_assignment)
        # Mutable pool state lives behind this lock: mutations run in
        # executor threads while the event loop reads the current generation
        # and telemetry, so every access goes through a locked property or
        # method (enforced by lint rule RL006 and, under
        # REPRO_SANITIZE=locks, at runtime).
        self._lock = threading.Lock()
        self._current: Generation | None = None
        self._checkpoints = 0
        self._read_only = False
        self._failure: str | None = None
        self._recovered = 0
        self._last_checkpoint_time: float | None = None
        # High-water mutation sequence number.  A checkpoint stores it as
        # ``meta["wal_seq"]``, which is what makes WAL replay idempotent: a
        # crash between a checkpoint landing and the journal truncation
        # replays only records *beyond* the checkpoint.
        self._last_seq = int(frozen.meta.get("wal_seq", 0))
        self.wal = WriteAheadLog(wal_path, fsync=wal_fsync) if wal_path else None
        self._pending_records: list[WALRecord] = []
        self._recovering = False
        if self.wal is not None:
            self._pending_records = [
                record for record in self.wal.read_records()
                if record.seq > self._last_seq
            ]
        registry = get_registry()
        self._metric_mutations = registry.counter(
            "repro_mutations_total",
            "Mutations applied by the writer, including WAL replay",
            ("op",),
        )
        self._metric_publish = registry.histogram(
            "repro_publish_seconds",
            "Writer refresh + generation freeze latency per publish",
        )
        self._metric_checkpoint = registry.histogram(
            "repro_checkpoint_seconds", "Checkpoint snapshot + persist latency"
        )
        self._metric_checkpoints = registry.counter(
            "repro_checkpoints_total", "Checkpoints persisted"
        )
        self.publish()

    # -- locked state accessors ---------------------------------------- #
    @property
    def current(self) -> Generation:
        """The live generation: what every read slices."""
        with self._lock:
            return self._current

    @property
    def generation(self) -> int:
        """Monotonic count of published generations (the current id)."""
        with self._lock:
            return self._current.id

    @property
    def checkpoints(self) -> int:
        """Checkpoints persisted by this pool."""
        with self._lock:
            return self._checkpoints

    @property
    def read_only(self) -> bool:
        """True once the writer is quarantined (see :meth:`quarantine`)."""
        with self._lock:
            return self._read_only

    @property
    def failure(self) -> str | None:
        """The first writer failure, or ``None`` while healthy."""
        with self._lock:
            return self._failure

    @property
    def recovered(self) -> int:
        """Mutations replayed from the WAL by the last :meth:`recover`."""
        with self._lock:
            return self._recovered

    @property
    def last_checkpoint_time(self) -> float | None:
        """Wall-clock time of the newest checkpoint, or ``None``."""
        with self._lock:
            return self._last_checkpoint_time

    @property
    def last_seq(self) -> int:
        """High-water mutation sequence number."""
        with self._lock:
            return self._last_seq

    # -- failure containment ------------------------------------------- #
    @property
    def status(self) -> str:
        """``"ok"`` or ``"degraded"`` (read-only after a writer failure)."""
        with self._lock:
            return "degraded" if self._read_only else "ok"

    def quarantine(self, reason: str) -> None:
        """Degrade the pool to read-only: the writer can't be trusted.

        Reads keep serving the last *published* generation (publishing is
        the final step of every apply, so readers never saw the failed
        write); further writes raise :class:`WriterQuarantinedError` until a
        fresh process recovers from checkpoint + WAL.
        """
        with self._lock:
            self._read_only = True
            if self._failure is None:
                self._failure = reason

    # -- write path ---------------------------------------------------- #
    def publish(self) -> Generation:
        """Refresh the writer once and swap in its frozen generation.

        The writer's (single) refresh + forward happens here and is
        frozen into a read-only :class:`~repro.serving.Generation`; the swap
        itself is one assignment under the pool lock.  When a checkpoint
        path is configured and the writer carries no tombstones, the
        published generation is also persisted as a warm-start bundle
        (atomically — restarted servers can never observe a torn archive),
        and the WAL — whose records the checkpoint now subsumes — is
        truncated.  Returns the published generation.
        """
        fault_point("pool.before_publish")
        start = time.perf_counter()
        forward = self.writer.generation()  # one refresh + forward, frozen once
        with self._lock:
            published = replace(forward, id=self._current.id + 1 if self._current else 1)
            self._current = published
            skip_checkpoint = self._recovering or bool(self._pending_records)
        self._metric_publish.observe(time.perf_counter() - start)
        fault_point("pool.after_publish")
        if not skip_checkpoint:
            self._checkpoint()
        return published

    def _checkpoint(self) -> None:
        """Persist the published generation + its WAL seq; truncate the WAL."""
        if self.checkpoint_path is None or self.writer.n_alive != self.writer.n_nodes:
            return
        start = time.perf_counter()
        snapshot = self.writer.to_frozen()
        snapshot.meta["wal_seq"] = self.last_seq
        fault_point("pool.before_checkpoint")
        snapshot.save(self.checkpoint_path)
        elapsed = time.perf_counter() - start
        record_span("checkpoint", elapsed)
        self._metric_checkpoint.observe(elapsed)
        self._metric_checkpoints.inc()
        with self._lock:
            self._checkpoints += 1
            self._last_checkpoint_time = time.time()
        fault_point("pool.after_checkpoint")
        if self.wal is not None:
            self.wal.truncate()

    def _submit(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Journal one mutation (fsync'd), then apply it.

        A quarantined pool raises :class:`WriterQuarantinedError`; a pool
        with unreplayed WAL records raises
        :class:`~repro.errors.ConfigurationError` until :meth:`recover`
        runs.
        """
        with self._lock:
            if self._read_only:
                raise WriterQuarantinedError(
                    f"writer is quarantined ({self._failure}); the pool "
                    f"serves reads only — restart the server to recover "
                    f"from checkpoint + WAL"
                )
            if self._pending_records:
                raise ConfigurationError(
                    f"the WAL at {self.wal.path} holds "
                    f"{len(self._pending_records)} unreplayed records; call "
                    f"recover() before writing"
                )
            seq = self._last_seq + 1
        if self.wal is not None:
            self.wal.append(op, payload, seq)
        with self._lock:
            self._last_seq = seq
        trace = current_trace()
        start = time.perf_counter()
        before = trace.total() if trace is not None else 0.0
        result = self._execute(op, payload)
        if trace is not None:
            # Everything the apply did outside an instrumented stage
            # (validation, hyperedge assembly, cluster bookkeeping) — the
            # residual keeps the write trace's spans summing to its wall
            # time instead of only the instrumented fraction.
            residual = (time.perf_counter() - start) - (trace.total() - before)
            if residual > 0:
                trace.add("apply", residual)
        self._metric_mutations.inc(op=op)
        return result

    def _execute(self, op: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Apply one (already journalled) mutation and republish.

        This is the single apply path shared by live writes and WAL replay —
        sharing it is what makes recovery bit-identical.  A
        :class:`~repro.errors.ConfigurationError` means the writer rejected
        the request *before* mutating anything (the sessions validate up
        front), so it maps to a client error without quarantining; any other
        exception means the writer may be half-mutated and quarantines the
        pool.
        """
        try:
            fault_point("pool.before_apply")
            if op == "insert":
                ids = self.writer.insert_nodes(
                    np.asarray(payload["features"], dtype=resolve_dtype("float64"))
                )
                fault_point("pool.mid_apply")
                self.publish()
                return {"ids": ids, "n_alive": self.writer.n_alive}
            if op == "update":
                nodes = payload["nodes"]
                self.writer.update_features(
                    nodes, np.asarray(payload["features"], dtype=resolve_dtype("float64"))
                )
                fault_point("pool.mid_apply")
                self.publish()
                return {"updated": int(np.atleast_1d(np.asarray(nodes)).size)}
            if op == "delete":
                self.writer.delete_nodes(payload["nodes"])
                fault_point("pool.mid_apply")
                self.publish()
                return {
                    "n_alive": self.writer.n_alive,
                    "tombstones": self.writer.n_nodes - self.writer.n_alive,
                }
            if op == "compact":
                remap = self.writer.compact()
                fault_point("pool.mid_apply")
                self.publish()
                return {"remap": remap, "n_nodes": self.writer.n_nodes}
            if op == "reassign":
                moves = self.writer.reassign_clusters()
                fault_point("pool.mid_apply")
                self.publish()
                return {"moves": int(moves)}
            raise ConfigurationError(f"unknown mutation op {op!r}")
        except ConfigurationError:
            raise  # rejected before any mutation: client error, writer intact
        except Exception as error:
            self.quarantine(f"{type(error).__name__}: {error}")
            raise

    def recover(self) -> int:
        """Replay the WAL suffix on top of the loaded state; returns count.

        Records whose sequence number the starting checkpoint already covers
        are skipped (idempotent replay); each remaining record runs through
        the same :meth:`_execute` path as a live write — including the
        per-mutation publish — so the reconstructed state is bit-identical
        to a process that never crashed.  Records the live run rejected with
        :class:`~repro.errors.ConfigurationError` deterministically reject
        again and are skipped.  After a successful replay the recovered
        state is immediately checkpointed (when eligible) and the journal
        truncated.  An unexpected replay failure quarantines the pool:
        reads serve the checkpoint state, writes are refused.
        """
        with self._lock:
            if self.wal is None or not self._pending_records:
                return 0
            pending, self._pending_records = self._pending_records, []
            self._recovering = True
        replayed = 0
        try:
            for record in pending:
                with self._lock:
                    self._last_seq = record.seq
                try:
                    self._execute(record.op, record.payload)
                except ConfigurationError:
                    continue
                except Exception:
                    break  # _execute already quarantined the pool
                replayed += 1
                self._metric_mutations.inc(op=record.op)
        finally:
            with self._lock:
                self._recovering = False
                self._recovered = replayed
        if not self.read_only:
            self._checkpoint()
        return replayed

    def insert(self, features: Any) -> dict[str, Any]:
        return self._submit("insert", {"features": _feature_list(features)})

    def update(self, nodes: Any, features: Any) -> dict[str, Any]:
        return self._submit(
            "update", {"nodes": _jsonable(nodes), "features": _feature_list(features)}
        )

    def delete(self, nodes: Any) -> dict[str, Any]:
        return self._submit("delete", {"nodes": _jsonable(nodes)})

    def compact(self) -> dict[str, Any]:
        return self._submit("compact", {})

    def reassign(self) -> dict[str, Any]:
        return self._submit("reassign", {})

    def stats(self) -> dict[str, Any]:
        now = time.time()
        with self._lock:
            status = "degraded" if self._read_only else "ok"
            generation = self._current.id
            checkpoints = self._checkpoints
            last_checkpoint_time = self._last_checkpoint_time
            failure = self._failure
            last_seq = self._last_seq
            recovered = self._recovered
        return {
            "status": status,
            "generation": generation,
            "checkpoints": checkpoints,
            "last_checkpoint_age_s": (
                round(now - last_checkpoint_time, 3)
                if last_checkpoint_time is not None
                else None
            ),
            "failure": failure,
            "last_seq": last_seq,
            "recovered": recovered,
            "wal": (
                {"path": str(self.wal.path), "depth": self.wal.depth}
                if self.wal is not None
                else None
            ),
            "writer": {
                "n_nodes": self.writer.n_nodes,
                "n_alive": self.writer.n_alive,
                "refreshes": self.writer.refreshes,
                "forwards": self.writer.forwards,
                "compactions": self.writer.compactions,
                "neighbors": self.writer.stats()["neighbors"],
            },
        }

    def close(self) -> None:
        """Release the pool's OS resources (today: the WAL file handle).

        The writer and its generations are plain in-memory state and need
        no teardown; the journal owns an open append handle that must not
        outlive the pool.  Idempotent.
        """
        if self.wal is not None:
            self.wal.close()


def _existing_bundle(path: Path) -> Path | None:
    """``path`` if a bundle exists there (with or without the .npz suffix)."""
    if path.exists():
        return path
    alternate = path.with_suffix(path.suffix + ".npz")
    return alternate if alternate.exists() else None


class ServingServer:
    """Asyncio HTTP/JSON front-end over a :class:`SessionPool`.

    Routes (all bodies and responses are JSON):

    ========  ==============  ====================================================
    method    path            body → response
    ========  ==============  ====================================================
    GET       ``/healthz``    → ``{"status": "ok"|"degraded"|"draining",
                              "generation", "n_alive", "queue_depth",
                              "wal_depth", "last_checkpoint_age_s"}``
    GET       ``/stats``      → server / pool statistics plus a full
                              metrics-registry snapshot
    GET       ``/metrics``    → Prometheus text exposition (version 0.0.4)
                              of the process metrics registry
    POST      ``/predict``    ``{"node": 3}`` or ``{"nodes": [...]|null,
                              "output": "labels"|"logits"|"embeddings"}``
                              → ``{"result", "generation"}`` (the id of
                              the generation that answered)
    POST      ``/insert``     ``{"features": [[...], ...]}`` → ``{"ids"}``
    POST      ``/update``     ``{"nodes": [...], "features": [[...]]}``
    POST      ``/delete``     ``{"nodes": [...]}`` → ``{"n_alive"}``
    POST      ``/compact``    ``{}`` → ``{"remap"}``
    POST      ``/reassign``   ``{}`` → ``{"moves"}``
    ========  ==============  ====================================================

    Error mapping: invalid request → 400 with ``{"error": ...}``, more than
    ``max_queue_depth`` requests in flight → 429, draining or writer
    quarantined → 503 (the latter with ``Retry-After``), write deadline
    expired → 504, unexpected failure → structured 500 JSON (the connection
    survives), unknown path → 404.

    Startup is restart-aware: when ``config.checkpoint_path`` names an
    existing bundle, the server loads *it* (the newest published generation)
    instead of the cold bundle argument, then replays the WAL suffix via
    :meth:`SessionPool.recover` — after a crash, predictions are
    bit-identical to a server that never died.
    """

    def __init__(self, frozen: FrozenModel | str | Path, config: ServerConfig | None = None):
        self.config = config or ServerConfig()
        checkpoint = (
            _existing_bundle(Path(self.config.checkpoint_path))
            if self.config.checkpoint_path
            else None
        )
        if checkpoint is not None:
            # Warm restart: the checkpoint is a later generation of the same
            # bundle (it carries the WAL high-water mark for replay dedup).
            frozen = FrozenModel.load(checkpoint)
        elif not isinstance(frozen, FrozenModel):
            frozen = FrozenModel.load(frozen)
        self.pool = SessionPool(
            frozen,
            cluster_assignment=self.config.cluster_assignment,
            checkpoint_path=self.config.checkpoint_path,
            wal_path=self.config.wal_path,
            wal_fsync=self.config.wal_fsync,
        )
        self.recovered = self.pool.recover()
        # Writes only (reads are answered on the event loop).  The write lock
        # serialises them; the second worker lets the write after one that
        # overran its deadline reach the quarantined pool (503) instead of
        # queueing behind the still-wedged thread.
        self._executor = ThreadPoolExecutor(max_workers=2, thread_name_prefix="repro-serve")
        self._write_lock = asyncio.Lock()
        #: Writes admitted and not yet answered (the 429 cap).
        self.in_flight = 0
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self.connections = 0
        self.started_at = time.time()
        self._start_clock = time.perf_counter()
        self._tracing = (
            self.config.trace_sample_rate > 0 or self.config.slow_ms is not None
        )
        self._slow_s = (
            self.config.slow_ms / 1000.0 if self.config.slow_ms is not None else None
        )
        self._trace_log = get_logger("serving.trace")
        # Trace sampling draws from a private generator, not the process-wide
        # `random` state (which tests and model seeding may pin or reset).
        self._trace_rng = as_rng(None)
        self.profiler: OpProfiler | None = None
        if self.config.profile:
            self.profiler = OpProfiler()
            set_span_profiler(self.profiler)
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Register the server's instrument families and the scrape collector.

        Counters mirroring sources that keep their own cumulative totals
        (the ``--profile`` profiler) are refreshed by
        :meth:`_collect_metrics` right before every
        ``/metrics`` / ``/stats`` render, same code path as
        ``/healthz`` — one source of truth per number.
        """
        registry = self.registry = get_registry()
        self._metric_requests = registry.counter(
            "repro_requests_total", "HTTP requests served", ("route", "status")
        )
        self._metric_latency = registry.histogram(
            "repro_request_seconds", "End-to-end HTTP request latency", ("route",)
        )
        self._updaters: dict[tuple[str, int], tuple[Callable, Callable]] = {}
        gauges = {
            "uptime": ("repro_uptime_seconds", "Seconds since server start"),
            "generation": ("repro_generation", "Published generation count"),
            "queue_depth": ("repro_queue_depth", "Requests in flight"),
            "wal_depth": ("repro_wal_depth", "Unreplayed records in the journal"),
            "checkpoint_age": (
                "repro_checkpoint_age_seconds", "Age of the newest checkpoint",
            ),
            "n_alive": ("repro_n_alive", "Alive (queryable) nodes"),
            "recovered": (
                "repro_recovered_mutations", "WAL records replayed at startup",
            ),
            "connections": ("repro_connections", "Open HTTP connections"),
        }
        self._gauges = {
            key: registry.gauge(name, help) for key, (name, help) in gauges.items()
        }
        self._metric_op_seconds = registry.counter(
            "repro_op_seconds_total",
            "Per-stage serving seconds recorded by --profile",
            ("op",),
        )
        self._metric_shed = registry.counter(
            "repro_requests_shed_total", "Requests rejected at admission (HTTP 429)"
        )
        registry.add_collector(self._collect_metrics)

    def _live_telemetry(self) -> dict[str, Any]:
        """The live operational numbers, computed in exactly one place.

        ``/healthz``, the metrics collector and the enriched ``/stats`` all
        consume this dict — they can never disagree about WAL depth,
        requests in flight or checkpoint age again.
        """
        return {
            "uptime_s": round(time.perf_counter() - self._start_clock, 3),
            "generation": self.pool.generation,
            "n_alive": self.pool.writer.n_alive,
            "queue_depth": self.in_flight,
            "wal_depth": self.pool.wal.depth if self.pool.wal is not None else None,
            "last_checkpoint_age_s": (
                round(time.time() - self.pool.last_checkpoint_time, 3)
                if self.pool.last_checkpoint_time is not None
                else None
            ),
            "recovered_mutations": self.recovered,
        }

    def _collect_metrics(self) -> None:
        """Scrape-time refresh of gauges and mirrored counters."""
        telemetry = self._live_telemetry()
        gauges = self._gauges
        gauges["uptime"].set(telemetry["uptime_s"])
        gauges["generation"].set(telemetry["generation"])
        gauges["queue_depth"].set(telemetry["queue_depth"])
        gauges["n_alive"].set(telemetry["n_alive"])
        gauges["recovered"].set(telemetry["recovered_mutations"])
        gauges["connections"].set(self.connections)
        if telemetry["wal_depth"] is not None:
            gauges["wal_depth"].set(telemetry["wal_depth"])
        if telemetry["last_checkpoint_age_s"] is not None:
            gauges["checkpoint_age"].set(telemetry["last_checkpoint_age_s"])
        if self.profiler is not None:
            for name, op_record in list(self.profiler.records.items()):
                self._metric_op_seconds.set_total(op_record.forward_seconds, op=name)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one).

        Raises :class:`~repro.errors.ConfigurationError` before
        :meth:`start` binds the socket.
        """
        if self._server is None:
            raise ConfigurationError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket.

        Raises :class:`~repro.errors.ConfigurationError` when called twice.
        """
        if self._server is not None:
            raise ConfigurationError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: reject new work, finish in-flight, close sockets.

        New requests receive 503 the moment draining starts; every request
        already admitted is answered first, bounded by ``drain_timeout_s``.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout_s
        while self.in_flight and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._server is not None:
            self._server.close()
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
            self._server = None
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.pool.close()
        self.registry.remove_collector(self._collect_metrics)
        if self.profiler is not None:
            previous = set_span_profiler(None)
            if previous is not None and previous is not self.profiler:
                set_span_profiler(previous)  # another server's; put it back

    @property
    def status(self) -> str:
        """The health state machine: ``ok`` → ``degraded`` → ``draining``."""
        if self._draining:
            return "draining"
        return self.pool.status

    def stats(self) -> dict[str, Any]:
        payload = {
            "status": self.status,
            "draining": self._draining,
            "connections": self.connections,
            "recovered": self.recovered,
            "telemetry": self._live_telemetry(),
            "pool": self.pool.stats(),
            "metrics": self.registry.snapshot(),
            "config": {
                "max_queue_depth": self.config.max_queue_depth,
                "write_timeout_s": self.config.write_timeout_s,
                "wal": self.config.wal_path is not None,
                "trace_sample_rate": self.config.trace_sample_rate,
                "slow_ms": self.config.slow_ms,
                "profile": self.config.profile,
            },
        }
        if self.profiler is not None:
            payload["profile"] = self.profiler.table()
        return payload

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                # One read for the whole head (request line + headers): the
                # predict hot path is CPU-bound on header parsing under load,
                # so avoid a coroutine round-trip per header line.
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 400, {"error": "headers too large"})
                    break
                except asyncio.CancelledError:
                    # Loop teardown while parked on a keep-alive connection:
                    # close quietly instead of surfacing the cancellation.
                    break
                request_line, _, header_block = head.decode("latin-1").partition("\r\n")
                parts = request_line.split()
                if len(parts) != 3:
                    await self._respond(writer, 400, {"error": "malformed request line"})
                    break
                method, target, _version = parts
                headers: dict[str, str] = {}
                for line in header_block.split("\r\n"):
                    if not line:
                        continue
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length", "0") or "0")
                except ValueError:
                    await self._respond(writer, 400, {"error": "bad content-length"})
                    break
                body = b""
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        break
                status, payload, extra = await self._serve_request(
                    method, target.partition("?")[0], body
                )
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive, extra_headers=extra
                )
                if not keep_alive:
                    break
        finally:
            self.connections -= 1
            writer.close()
            # Loop teardown may cancel this last wait; the connection is
            # closing either way, so end the handler quietly.
            with suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any] | bytes,
        *,
        keep_alive: bool = False,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        if isinstance(payload, bytes):
            # Pre-rendered body (the Prometheus text exposition of /metrics).
            data = payload
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode()
            content_type = "application/json"
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extras}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + data)
        with suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    #: Routes whose label appears on request metrics; anything else is
    #: bucketed as ``other`` so a path-scanning client can't explode the
    #: label cardinality.
    _ROUTES = frozenset(
        {
            "/healthz", "/health", "/stats", "/metrics", "/predict",
            "/insert", "/update", "/delete", "/compact", "/reassign",
        }
    )
    #: Routes that do real per-request work and are worth a trace.
    _TRACED = frozenset(
        {"/predict", "/insert", "/update", "/delete", "/compact", "/reassign"}
    )

    def _health_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"status": self.status, **self._live_telemetry()}
        if self.pool.failure is not None:
            payload["failure"] = self.pool.failure
        return payload

    def _request_updaters(
        self, route: str, status: int
    ) -> tuple[Callable[[float], None], Callable[[float], None]]:
        """The request counter and latency updaters of one (route, status).

        Resolved once per pair and kept: label validation would otherwise
        run twice on every request, a measurable share of an inline read.
        """
        updaters = self._updaters.get((route, status))
        if updaters is None:
            updaters = self._updaters[(route, status)] = (
                self._metric_requests.labels(route=route, status=str(status)),
                self._metric_latency.labels(route=route),
            )
        return updaters

    async def _serve_request(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes, dict[str, str] | None]:
        """Route one request under its metrics/trace envelope.

        Every request lands in ``repro_requests_total`` and
        ``repro_request_seconds``; when tracing is enabled, work routes get
        a per-request :class:`~repro.obs.tracing.Trace` activated for the
        duration, and its span breakdown is emitted as one structured JSON
        log line when sampled (or always, for requests over ``slow_ms``).
        """
        route = path if path in self._ROUTES else "other"
        trace = (
            Trace.new() if self._tracing and path in self._TRACED else None
        )
        start = time.perf_counter()
        if trace is not None:
            with activate(trace):
                status, payload, extra = await self._route(method, path, body)
        else:
            status, payload, extra = await self._route(method, path, body)
        duration = time.perf_counter() - start
        count, latency = self._request_updaters(route, status)
        count(1.0)
        latency(duration)
        if trace is not None:
            # Whatever no stage claimed — routing, JSON decoding, admission —
            # is parsing; billing it keeps the spans summing to wall time.
            residual = duration - trace.total()
            if residual > 0:
                trace.add("parse", residual)
            slow = self._slow_s is not None and duration >= self._slow_s
            if slow or (
                self.config.trace_sample_rate > 0
                and self._trace_rng.random() < self.config.trace_sample_rate
            ):
                log_event(
                    self._trace_log,
                    "request",
                    trace_id=trace.trace_id,
                    route=route,
                    method=method,
                    status=status,
                    duration_ms=round(duration * 1e3, 3),
                    slow=slow,
                    generation=self.pool.generation,
                    spans_ms=trace.spans_ms(),
                    **trace.meta,
                )
        return status, payload, extra

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | bytes, dict[str, str] | None]:
        try:
            if method == "GET":
                if path in ("/healthz", "/health"):
                    return 200, self._health_payload(), None
                if path == "/stats":
                    return 200, _jsonable(self.stats()), None
                if path == "/metrics":
                    return 200, self.registry.render().encode("utf-8"), None
                return 404, {"error": f"unknown path {path!r}"}, None
            if method != "POST":
                return 405, {"error": f"unsupported method {method!r}"}, None
            if self._draining:
                return 503, {"error": "server is draining"}, None
            if self.in_flight >= self.config.max_queue_depth:
                self._metric_shed.inc()
                return 429, {"error": f"server is full: {self.in_flight} requests "
                                      f"in flight (max_queue_depth)"}, None
            try:
                payload = json.loads(body.decode() or "{}")
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                return 400, {"error": f"invalid JSON body: {error}"}, None
            if not isinstance(payload, Mapping):
                return 400, {"error": "request body must be a JSON object"}, None
            if path == "/predict":
                return self._route_predict(payload)
            if path in ("/insert", "/update", "/delete", "/compact", "/reassign"):
                # Only a write awaits, so only writes are ever in flight: a
                # read is answered before the next request is even parsed.
                self.in_flight += 1
                try:
                    return await self._route_write(path, payload)
                finally:
                    self.in_flight -= 1
            return 404, {"error": f"unknown path {path!r}"}, None
        except WriterQuarantinedError as error:
            return (
                503,
                {"error": str(error), "status": "degraded"},
                {"Retry-After": "30"},
            )
        except ConfigurationError as error:
            return 400, {"error": str(error)}, None
        except Exception as error:
            # Never drop the connection on an internal failure: every error
            # maps to a structured JSON body the client can parse.
            return (
                500,
                {"error": f"{type(error).__name__}: {error}",
                 "type": type(error).__name__},
                None,
            )

    def _route_predict(
        self, payload: Mapping[str, Any]
    ) -> tuple[int, dict, dict[str, str] | None]:
        """Answer one read inline from the current generation.

        Nothing awaits between taking the generation and stamping the
        response with its id, so the id always names the generation that
        computed the answer.  A bad request raises
        :class:`~repro.errors.ConfigurationError` (HTTP 400).
        """
        if "node" in payload and "nodes" not in payload:
            nodes: Any = payload["node"]
        else:
            nodes = payload.get("nodes")
        trace = current_trace()
        start = time.perf_counter() if trace is not None else 0.0
        generation = self.pool.current
        result = _jsonable(
            generation.answer(nodes, output=payload.get("output", "labels"))
        )
        if trace is not None:
            trace.add("answer", time.perf_counter() - start)
        return 200, {"result": result, "generation": generation.id}, None

    async def _route_write(
        self, path: str, payload: Mapping[str, Any]
    ) -> tuple[int, dict, dict[str, str] | None]:
        loop = asyncio.get_running_loop()
        if path == "/insert":
            if "features" not in payload:
                return 400, {"error": "/insert needs a 'features' matrix"}, None
            call = partial(self.pool.insert, payload["features"])
        elif path == "/update":
            if "nodes" not in payload or "features" not in payload:
                return 400, {"error": "/update needs 'nodes' and 'features'"}, None
            call = partial(self.pool.update, payload["nodes"], payload["features"])
        elif path == "/delete":
            if "nodes" not in payload:
                return 400, {"error": "/delete needs 'nodes'"}, None
            call = partial(self.pool.delete, payload["nodes"])
        elif path == "/compact":
            call = self.pool.compact
        else:
            call = self.pool.reassign
        timeout = self.config.write_timeout_s
        trace = current_trace()
        try:
            lock_start = time.perf_counter()
            async with self._write_lock:
                exec_start = time.perf_counter()
                if trace is not None:
                    # Writes queue on the single-writer lock.
                    trace.add("queue_wait", exec_start - lock_start)
                before = trace.total() if trace is not None else 0.0
                future = loop.run_in_executor(
                    self._executor, partial(self._traced_call, call, current_traces())
                )
                if timeout is not None:
                    result = await asyncio.wait_for(future, timeout)
                else:
                    result = await future
                if trace is not None:
                    # Executor round-trip minus the worker-recorded spans:
                    # the thread handoff cost, kept so spans sum to wall time.
                    residual = (
                        (time.perf_counter() - exec_start)
                        - (trace.total() - before)
                    )
                    if residual > 0:
                        trace.add("dispatch", residual)
        except asyncio.TimeoutError:
            # The worker thread is still running somewhere past its budget;
            # its final state is unknowable, so the writer can no longer be
            # trusted — degrade to read-only rather than risk serving (or
            # checkpointing) a half-applied mutation later.
            self.pool.quarantine(
                f"write to {path} exceeded its {timeout}s deadline"
            )
            return (
                504,
                {"error": f"write deadline of {timeout}s exceeded; pool "
                          f"degraded to read-only", "timeout_s": timeout},
                None,
            )
        result = dict(result)
        result["generation"] = self.pool.generation
        return 200, _jsonable(result), None

    @staticmethod
    def _traced_call(call: Callable[[], dict], traces: tuple[Trace, ...]) -> dict:
        """Run a write in the worker thread with the request's traces active
        (``run_in_executor`` does not carry contextvars across threads)."""
        with activate(*traces):
            return call()
