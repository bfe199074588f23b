"""The load generator: seeded request streams over at most two connections.

One asyncio process drives each serving workload.  Every request is built
from a ``numpy`` generator seeded by the run's seed and its stream (one per
server start-up and connection), so the same seed sends the same requests;
only how many of them fit in the run depends on the program's speed.

* :func:`read_loop` — closed loop: send, wait for the answer, send the next.
* :func:`write_loop` — closed loop of ``/update`` requests.
* :func:`churn_writer` — one writer cycling insert → update → delete → compact.
* :func:`open_loop_reads` — Poisson arrivals, each request timed from the
  moment it was due, so a stall also charges the requests queued behind it.
  The generator's own lateness (``lag``) is kept apart from time a request
  was due while its connection was still busy (``busy``).

Every operation lands in an :class:`OpLog`; a failed or refused request
keeps latency ``inf``, so it misses every latency limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

perf_counter = time.perf_counter

#: Every 20th read asks for 32 nodes' logits; the rest for one node's label.
LOGITS_EVERY = 20
LOGITS_NODES = 32
#: Sampled read answers kept for the bit-identity gate (every Nth per conn).
SAMPLE_EVERY = 16
UPDATE_NODES = 5
INSERT_NODES = 8
NOISE = 0.05


@dataclass
class OpLog:
    """Outcomes of one kind of operation in one phase."""

    latencies: list[float] = field(default_factory=list)
    #: ``perf_counter`` time each operation completed, parallel to latencies.
    ends: list[float] = field(default_factory=list)
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0

    def add(self, status: int, latency: float) -> bool:
        self.attempted += 1
        self.ends.append(perf_counter())
        if status == 200:
            self.succeeded += 1
            self.latencies.append(latency)
            return True
        if status in (429, 503):
            self.refused += 1
        else:
            self.failed += 1
        self.latencies.append(math.inf)
        return False

    def pool(self, other: "OpLog") -> None:
        """Add every operation of ``other`` to this log."""
        self.latencies += other.latencies
        self.ends += other.ends
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.failed += other.failed
        self.refused += other.refused

    def windows(self, start: float, end: float, count: int) -> list[list[float]]:
        """Latencies split into ``count`` equal time windows by completion."""
        width = (end - start) / count
        split: list[list[float]] = [[] for _ in range(count)]
        for done, latency in zip(self.ends, self.latencies):
            split[min(max(int((done - start) / width), 0), count - 1)].append(latency)
        return split


def _encode(path: str, payload) -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode() + body


class Connection:
    """One keep-alive HTTP/1.1 connection; a broken one reopens on next use."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = None
        self.writer = None

    async def request(self, raw: bytes) -> tuple[int, bytes]:
        """Send pre-encoded bytes; ``(status, body)``, status 0 on a socket error."""
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.writer.write(raw)
            head = await self.reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker : head.index(b"\r", marker)])
            body = await self.reader.readexactly(length)
            return int(head[9:12]), body
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            await self.close()
            return 0, b""

    async def post(self, path: str, payload) -> tuple[int, dict]:
        status, body = await self.request(_encode(path, payload))
        return status, (json.loads(body) if status == 200 else {})

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one request stream of a run."""
    return np.random.default_rng([seed, stream])


async def read_loop(
    conn: Connection, rng: np.random.Generator, n_nodes: int, until: float,
    log: OpLog, samples: list | None = None, count: int | None = None,
) -> None:
    """Closed-loop reads until ``until`` (or ``count`` requests)."""
    index = 0
    while perf_counter() < until and (count is None or index < count):
        if index % LOGITS_EVERY == LOGITS_EVERY - 1:
            nodes = sorted(rng.choice(n_nodes, LOGITS_NODES, replace=False).tolist())
            request = {"nodes": nodes, "output": "logits"}
        else:
            request = {"node": int(rng.integers(n_nodes))}
        raw = _encode("/predict", request)
        start = perf_counter()
        status, body = await conn.request(raw)
        log.add(status, perf_counter() - start)
        if samples is not None and index % SAMPLE_EVERY == 0 and status == 200:
            samples.append((request, body))
        index += 1


def _noisy_rows(rng: np.random.Generator, base: np.ndarray, rows) -> list:
    return (base[rows] + rng.normal(0.0, NOISE, size=(len(rows), base.shape[1]))).tolist()


async def write_loop(
    conn: Connection, rng: np.random.Generator, base: np.ndarray, part: np.ndarray,
    stop, log: OpLog, acked: list,
) -> None:
    """Closed-loop ``/update`` of 5 distinct nodes of ``part`` until ``stop()``."""
    while not stop():
        nodes = sorted(rng.choice(part, UPDATE_NODES, replace=False).tolist())
        payload = {"nodes": nodes, "features": _noisy_rows(rng, base, nodes)}
        start = perf_counter()
        status, _ = await conn.request(_encode("/update", payload))
        if log.add(status, perf_counter() - start):
            acked.append(("update", payload))


async def churn_writer(
    conn: Connection, rng: np.random.Generator, base: np.ndarray, until: float,
    log: OpLog, acked: list, min_cycles: int = 0, deadline: float = math.inf,
) -> None:
    """insert 8 → update 5 → delete the 8 → compact, in whole cycles.

    Cycles start until ``until`` has passed and ``min_cycles`` are done, but
    never after ``deadline``.
    """
    n_nodes = base.shape[0]
    done = 0
    while (done < min_cycles or perf_counter() < until) and perf_counter() < deadline:
        inserted = _noisy_rows(rng, base, rng.choice(n_nodes, INSERT_NODES, replace=False))
        nodes = sorted(rng.choice(n_nodes, UPDATE_NODES, replace=False).tolist())
        steps = [
            ("insert", {"features": inserted}),
            ("update", {"nodes": nodes, "features": _noisy_rows(rng, base, nodes)}),
            ("delete", None),
            ("compact", {}),
        ]
        for op, payload in steps:
            if op == "delete":
                payload = {"nodes": ids}
            start = perf_counter()
            status, reply = await conn.post(f"/{op}", payload)
            if not log.add(status, perf_counter() - start):
                return  # the cycle cannot continue without its inserted ids
            acked.append((op, payload))
            if op == "insert":
                ids = reply["ids"]
        done += 1


async def open_loop_reads(
    conn: Connection, rng: np.random.Generator, n_nodes: int, rate: float,
    start: float, stop, log: OpLog, lag: list, busy: list,
) -> None:
    """Poisson single-node reads at ``rate``/s until ``stop()``, timed from due."""
    due = start
    free_at = start
    while True:
        due += rng.exponential(1.0 / rate)
        node = int(rng.integers(n_nodes))
        now = perf_counter()
        if now < due:
            await asyncio.sleep(due - now)
        if stop():
            return
        sent = perf_counter()
        busy.append(max(0.0, free_at - due))
        lag.append(max(0.0, sent - max(due, free_at)))
        status, _ = await conn.request(_encode("/predict", {"node": node}))
        free_at = perf_counter()
        log.add(status, free_at - due)
