"""Load-generator benchmark of the serving front-end (``repro.serving.server``).

Every phase drives a real :class:`ServingServer` over sockets from one
trained DHGNN bundle.  The load generator shares the server's process (and
GIL), so client-side socket and parse CPU is part of every number.

**Client-concurrency sweep (reported).**  Closed-loop single-node label
reads from 1, 8 and 32 keep-alive clients, the same total request count at
each level: QPS and p50/p99 latency.  Reads are answered inline on the
event loop from the current published generation, so the sweep shows how
one event loop shares out its core between clients — there is no batching
window to fill.

**Bit-identity and reads during writes (checked).**  Responses for labels
and logits must equal a direct :class:`InferenceSession` on the same
bundle, bit for bit; a mixed phase drives ``/insert`` + ``/predict``
concurrently (reads must keep succeeding while the single writer
republishes).

**WAL write-throughput (asserted).**  The same single-writer mutation loop
with the write-ahead log off, on (per-record ``fsync``, the serving
default) and on without ``fsync``.  Journalling happens *before* every
apply, so its cost rides the write path's critical section; the asserted
ceiling states the durability budget: fsync'd journalling must keep at
least ``1/3`` of the unjournalled write throughput (in practice the
mutation's refresh + forward + republish dwarfs the fsync).

**Instrumentation overhead (asserted).**  Two live servers, one built under
the process-wide metrics registry and one under a disabled one
(``MetricsRegistry(enabled=False)``, every instrument a no-op), take the
32-client HTTP read load in alternating short slices, so machine drift hits
both sides alike.  The reported statistic is the **median** per-pair QPS
ratio with its interquartile spread, and the asserted bar is the
observability contract: full request/pool instrumentation may cost at most
**10%** of the read QPS.  (A read answered inline is ~50 us of event-loop
time here, client included; its two instrument updates cost ~2.5 us.)
The last sweep run's ``GET /metrics`` exposition is also saved to
``benchmarks/results/bench_serving_metrics_scrape.txt`` so CI archives a
real scrape next to the tables.

Run standalone (``PYTHONPATH=src python benchmarks/bench_serving.py``);
``REPRO_BENCH_QUICK=1`` selects the CI smoke configuration.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import RESULTS_DIR, emit  # noqa: E402

from repro import DHGNN, TrainConfig, Trainer  # noqa: E402
from repro.data.citation import make_citation_dataset  # noqa: E402
from repro.obs import MetricsRegistry, use_registry  # noqa: E402
from repro.serving import FrozenModel, InferenceSession  # noqa: E402
from repro.serving.server import ServerConfig, ServingServer, SessionPool  # noqa: E402
from repro.training.results import ResultTable  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

N_NODES = 240 if QUICK else 600
HIDDEN = 16
N_LAYERS = 3
EPOCHS = 4 if QUICK else 10
#: Concurrent keep-alive clients of the read sweep.
CLIENT_LEVELS = [1, 8, 32]
#: Reads per sweep level, split evenly across its clients (40 per client at
#: 32 clients in quick mode).
SWEEP_REQUESTS = 1280 if QUICK else 3840
WAL_WRITE_OPS = 8 if QUICK else 24
#: Stated durability budget: fsync'd journalling may cost at most a 3x
#: write-throughput slowdown vs no WAL (generous for CI disks; locally the
#: measured overhead is far smaller because each write's refresh + forward +
#: republish dominates the fsync).
WAL_SLOWDOWN_CEILING = 3.0
#: Interleaved (registry on, registry off) slice pairs for the overhead phase.
OVERHEAD_TRIALS = 20 if QUICK else 40
#: The observability contract: full instrumentation costs at most 10% of the
#: in-process HTTP read QPS.  A read answered inline costs ~50 us of event
#: loop time (client included), and its two instrument updates ~2.5 us.
OVERHEAD_QPS_TOLERANCE = 0.10
OVERHEAD_CLIENTS = 32
#: Reads per slice: short slices, many pairs, so adjacent slices see the
#: same machine state.
OVERHEAD_REQUESTS = 2048


def _dataset():
    return make_citation_dataset(
        "bench-serving-http",
        n_nodes=N_NODES,
        n_classes=4,
        n_features=40,
        intra_class_degree=3.0,
        inter_class_degree=1.0,
        active_words=6,
        noise_words=2,
        confusion=0.4,
        train_per_class=8,
        val_fraction=0.2,
        seed=7,
    )


def _export_bundle(tmp_dir: Path) -> Path:
    dataset = _dataset()
    model = DHGNN(
        dataset.n_features, dataset.n_classes, hidden_dim=HIDDEN, n_layers=N_LAYERS, seed=0
    )
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=EPOCHS, patience=None),
    )
    trainer.train()
    bundle = tmp_dir / "bench_serving_bundle.npz"
    trainer.export_frozen(str(bundle))
    return bundle


# --------------------------------------------------------------------------- #
# HTTP load — minimal keep-alive client
# --------------------------------------------------------------------------- #
async def _request(reader, writer, method: str, path: str, payload=None):
    """One JSON request/response exchange (slow path: used off the hot loop)."""
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    marker = head.index(b"Content-Length: ") + 16
    length = int(head[marker : head.index(b"\r", marker)])
    data = await reader.readexactly(length)
    return status, json.loads(data)


def _predict_bytes(node: int) -> bytes:
    body = json.dumps({"node": int(node)}).encode()
    return (
        f"POST /predict HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _client_loop(port: int, node_ids: np.ndarray, latencies: list) -> None:
    """Closed-loop HTTP client: pre-encoded requests, minimal response parsing.

    The load generator shares the server's process (and GIL), so client-side
    CPU directly eats server throughput; the hot loop therefore skips JSON
    decoding and reads each response head in a single ``readuntil``.
    """
    requests = [_predict_bytes(node) for node in node_ids]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for raw in requests:
            start = time.perf_counter()
            writer.write(raw)
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker : head.index(b"\r", marker)])
            body = await reader.readexactly(length)
            latencies.append(time.perf_counter() - start)
            if not head.startswith(b"HTTP/1.1 200"):
                raise AssertionError(f"predict failed: {head!r} {body!r}")
    finally:
        writer.close()


async def _scrape_metrics(port: int) -> str:
    """The server's ``GET /metrics`` exposition."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        marker = head.index(b"Content-Length: ") + 16
        length = int(head[marker : head.index(b"\r", marker)])
        return (await reader.readexactly(length)).decode("utf-8")
    finally:
        writer.close()


def _server(bundle: Path) -> ServingServer:
    return ServingServer(FrozenModel.load(bundle), ServerConfig(port=0, max_queue_depth=4096))


async def _read_load(
    port: int, clients: int, requests: int, rng: np.random.Generator
) -> dict:
    """Closed-loop single-node reads, ``requests`` split across ``clients``."""
    latencies: list[float] = []
    plans = [rng.integers(0, N_NODES, requests // clients) for _ in range(clients)]
    start = time.perf_counter()
    await asyncio.gather(*[_client_loop(port, plan, latencies) for plan in plans])
    elapsed = time.perf_counter() - start
    return {
        "clients": clients,
        "qps": len(latencies) / elapsed,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


async def _run_http_load(bundle: Path, clients: int) -> tuple[dict, str]:
    """One sweep level on a fresh server; returns the row and its ``/metrics``."""
    server = _server(bundle)
    await server.start()
    try:
        rng = np.random.default_rng(clients)
        await _client_loop(server.port, rng.integers(0, N_NODES, 8), [])  # warm-up
        row = await _read_load(server.port, clients, SWEEP_REQUESTS, rng)
        return row, await _scrape_metrics(server.port)
    finally:
        await server.shutdown()


async def _check_bit_identity(bundle: Path) -> int:
    """Server responses must match a direct session bit-for-bit."""
    local = InferenceSession(FrozenModel.load(bundle))
    server = ServingServer(
        FrozenModel.load(bundle), ServerConfig(port=0)
    )
    await server.start()
    checked = 0
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        rng = np.random.default_rng(3)
        for _ in range(12 if QUICK else 40):
            nodes = rng.integers(0, N_NODES, rng.integers(1, 6)).tolist()
            for output in ("labels", "logits"):
                _, payload = await _request(
                    reader, writer, "POST", "/predict",
                    {"nodes": nodes, "output": output},
                )
                expected = local.predict(nodes, output=output)
                got = np.asarray(payload["result"], dtype=expected.dtype)
                assert np.array_equal(got, expected), (
                    f"server diverged from direct session on {nodes} ({output})"
                )
                checked += 1
        writer.close()
    finally:
        await server.shutdown()
    return checked


async def _check_write_path(bundle: Path) -> dict:
    """Reads keep succeeding while the single writer inserts and republishes."""
    dataset = _dataset()
    server = ServingServer(
        FrozenModel.load(bundle), ServerConfig(port=0)
    )
    await server.start()
    try:
        port = server.port
        rng = np.random.default_rng(11)

        async def writes():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            inserted = 0
            for _ in range(3 if QUICK else 6):
                rows = dataset.features[rng.choice(N_NODES, 2, replace=False)]
                rows = rows + rng.normal(scale=0.05, size=rows.shape)
                status, payload = await _request(
                    reader, writer, "POST", "/insert", {"features": rows.tolist()}
                )
                assert status == 200, payload
                inserted += len(payload["ids"])
            writer.close()
            return inserted

        reads: list[float] = []
        read_tasks = [
            _client_loop(port, rng.integers(0, N_NODES, 30), reads)
            for _ in range(4)
        ]
        inserted, *_ = await asyncio.gather(writes(), *read_tasks)
        return {
            "inserted": inserted,
            "reads": len(reads),
            "generation": server.pool.generation,
        }
    finally:
        await server.shutdown()


# --------------------------------------------------------------------------- #
# Instrumentation overhead — live registry vs disabled (asserted)
# --------------------------------------------------------------------------- #
async def _measure_overhead(bundle: Path) -> list[dict]:
    """Interleaved HTTP read slices against two live servers, metrics on vs off.

    Every instrument the serving stack creates is registered in whichever
    registry is process-default at construction time, so the server built
    under a disabled registry runs the exact hot path a build without
    observability would execute.  Both servers stay up and the load
    alternates between them in short slices, the order flipping every
    pair, so machine drift hits both sides alike.
    """
    servers = {}
    for label, enabled in (("on", True), ("off", False)):
        with use_registry(MetricsRegistry(enabled=enabled)):
            servers[label] = _server(bundle)
        await servers[label].start()
    rng = np.random.default_rng(0)
    rows = []
    try:
        for server in servers.values():  # warm-up
            await _read_load(server.port, OVERHEAD_CLIENTS, OVERHEAD_REQUESTS, rng)
        for trial in range(OVERHEAD_TRIALS):
            for label in ("on", "off") if trial % 2 == 0 else ("off", "on"):
                row = await _read_load(
                    servers[label].port, OVERHEAD_CLIENTS, OVERHEAD_REQUESTS, rng
                )
                rows.append({"metrics": label, "trial": trial, **row})
    finally:
        for server in servers.values():
            await server.shutdown()
    return rows


# --------------------------------------------------------------------------- #
# WAL on/off write throughput (asserted)
# --------------------------------------------------------------------------- #
def _measure_write_throughput(
    bundle: Path, tmp_dir: Path, *, label: str, wal: bool, fsync: bool = True
) -> dict:
    """Single-writer update loop; journalling rides the critical section."""
    wal_path = tmp_dir / f"bench_{label}.wal" if wal else None
    pool = SessionPool(
        FrozenModel.load(bundle), wal_path=wal_path, wal_fsync=fsync
    )
    rng = np.random.default_rng(17)
    n_cols = pool.writer.features.shape[1]
    pool.update([0, 1], rng.normal(size=(2, n_cols)))  # warm-up
    start = time.perf_counter()
    for _ in range(WAL_WRITE_OPS):
        nodes = rng.choice(N_NODES, 2, replace=False)
        pool.update(
            sorted(int(node) for node in nodes), rng.normal(size=(2, n_cols))
        )
    elapsed = time.perf_counter() - start
    return {
        "wal": label,
        "writes_per_s": WAL_WRITE_OPS / elapsed,
        "mean_ms": elapsed / WAL_WRITE_OPS * 1e3,
        "wal_depth": pool.wal.depth if pool.wal is not None else 0,
    }


def _median_and_iqr(values: list[float]) -> tuple[float, float]:
    q25, q50, q75 = np.percentile(values, [25, 50, 75])
    return float(q50), float(q75 - q25)


def main() -> None:
    mode = "quick" if QUICK else "full"
    print(f"serving benchmark ({mode} mode): n={N_NODES}")

    with tempfile.TemporaryDirectory() as tmp:
        bundle = _export_bundle(Path(tmp))

        # -- Client-concurrency sweep ----------------------------------- #
        sweep_table = ResultTable(
            ["clients", "QPS", "p50 (ms)", "p99 (ms)"],
            title=f"HTTP reads vs concurrent keep-alive clients "
                  f"({SWEEP_REQUESTS} single-node reads per level)",
        )
        sweep_rows = []
        scrape = ""
        for clients in CLIENT_LEVELS:
            row, scrape = asyncio.run(_run_http_load(bundle, clients))
            sweep_rows.append(row)
            sweep_table.add_row(
                [clients, round(row["qps"], 1), round(row["p50_ms"], 3),
                 round(row["p99_ms"], 3)]
            )
        emit(sweep_table, "bench_serving_http", extra={"mode": mode, "rows": sweep_rows})
        scrape_path = RESULTS_DIR / "bench_serving_metrics_scrape.txt"
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        scrape_path.write_text(scrape)
        print(f"saved a /metrics scrape ({len(scrape.splitlines())} lines) "
              f"to {scrape_path}")

        # -- Instrumentation overhead ----------------------------------- #
        overhead_rows = asyncio.run(_measure_overhead(bundle))
        qps_on = [r["qps"] for r in overhead_rows if r["metrics"] == "on"]
        qps_off = [r["qps"] for r in overhead_rows if r["metrics"] == "off"]
        pair_ratios = [on / off for on, off in zip(qps_on, qps_off)]
        median_ratio, ratio_iqr = _median_and_iqr(pair_ratios)
        overhead = 1.0 - median_ratio
        overhead_table = ResultTable(
            ["metrics", "trial", "QPS", "p50 (ms)", "p99 (ms)"],
            title=f"Instrumentation overhead: registry on vs off "
                  f"({OVERHEAD_CLIENTS} clients, {OVERHEAD_TRIALS} interleaved pairs; "
                  f"median on/off QPS ratio {median_ratio:.3f}, IQR {ratio_iqr:.3f})",
        )
        for row in overhead_rows:
            overhead_table.add_row(
                [row["metrics"], row["trial"], round(row["qps"], 1),
                 round(row["p50_ms"], 3), round(row["p99_ms"], 3)]
            )
        emit(overhead_table, "bench_serving_overhead",
             extra={"mode": mode, "rows": overhead_rows,
                    "pair_ratios": pair_ratios, "median_ratio": median_ratio,
                    "ratio_iqr": ratio_iqr, "qps_tolerance": OVERHEAD_QPS_TOLERANCE})

        # -- WAL on/off write throughput -------------------------------- #
        wal_rows = [
            _measure_write_throughput(bundle, Path(tmp), label="off", wal=False),
            _measure_write_throughput(bundle, Path(tmp), label="on", wal=True),
            _measure_write_throughput(
                bundle, Path(tmp), label="on-nofsync", wal=True, fsync=False
            ),
        ]
        wal_table = ResultTable(
            ["WAL", "writes/s", "mean write (ms)"],
            title=f"Write throughput: WAL off vs fsync'd journalling "
                  f"({WAL_WRITE_OPS} single-writer updates)",
        )
        for row in wal_rows:
            wal_table.add_row(
                [row["wal"], round(row["writes_per_s"], 1), round(row["mean_ms"], 3)]
            )
        emit(wal_table, "bench_serving_wal",
             extra={"mode": mode, "rows": wal_rows,
                    "slowdown_ceiling": WAL_SLOWDOWN_CEILING})

        checked = asyncio.run(_check_bit_identity(bundle))
        print(f"bit-identity: {checked} sampled responses match the direct session")

        mixed = asyncio.run(_check_write_path(bundle))
        print(f"write path: {mixed['inserted']} nodes inserted across "
              f"{mixed['generation'] - 1} republishes while {mixed['reads']} "
              f"concurrent reads succeeded")

    wal_slowdown = wal_rows[0]["writes_per_s"] / wal_rows[1]["writes_per_s"]
    assert wal_slowdown <= WAL_SLOWDOWN_CEILING, (
        f"fsync'd journalling costs {wal_slowdown:.2f}x write throughput "
        f"(stated ceiling: {WAL_SLOWDOWN_CEILING}x; "
        f"{wal_rows[1]['writes_per_s']:.1f} vs {wal_rows[0]['writes_per_s']:.1f} "
        f"writes/s)"
    )
    assert overhead <= OVERHEAD_QPS_TOLERANCE, (
        f"instrumentation costs {overhead * 100:.1f}% QPS "
        f"(bar: {OVERHEAD_QPS_TOLERANCE * 100:.0f}%; median of "
        f"{len(pair_ratios)} interleaved pairs, ratios "
        f"{[round(r, 3) for r in pair_ratios]})"
    )
    sweep = ", ".join(
        f"{row['clients']} clients {row['qps']:.0f} QPS (p99 {row['p99_ms']:.2f}ms)"
        for row in sweep_rows
    )
    print(
        f"OK: {sweep}; responses bit-identical; fsync'd WAL costs "
        f"{wal_slowdown:.2f}x write throughput (ceiling {WAL_SLOWDOWN_CEILING}x); "
        f"instrumentation costs {overhead * 100:.1f}% QPS, IQR "
        f"{ratio_iqr * 100:.1f} points (bar {OVERHEAD_QPS_TOLERANCE * 100:.0f}%)"
    )


if __name__ == "__main__":
    main()
