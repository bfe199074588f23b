"""Serving child: one ``ServingServer`` over a trained bundle, WAL and checkpoint on.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/server_main.py --bundle B --workdir D --out R.json [--trace]

Prints ``PORT <n>`` once the socket is bound, then reads control lines on
stdin: ``mark`` snapshots the counters at the start of the measured phase
and answers ``MARKED`` (the load generator waits for it, so no measured
request starts before the snapshot), ``stop`` snapshots them again, drains
the server and writes ``--out``
(counters, peak RSS and — with ``--trace`` — every recorded span).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import peak_rss_mb, write_json  # noqa: E402


def _counters(server) -> dict:
    """Cumulative counters the per-layer table differences over the window."""
    out: dict = {"t": time.perf_counter()}
    try:
        stats = server.stats()
        out["batcher"] = stats.get("batcher", {})
        out["checkpoints"] = stats.get("pool", {}).get("checkpoints", 0)
    except (AttributeError, KeyError, TypeError):
        pass
    writer = getattr(getattr(server, "pool", None), "writer", None)
    backend_stats = getattr(getattr(writer, "backend", None), "stats", None)
    if callable(backend_stats):
        out["backend"] = backend_stats()
    engine_stats = getattr(getattr(writer, "engine", None), "stats", None)
    if callable(engine_stats):
        out["engine"] = engine_stats()
    try:
        from repro.hypergraph.knn import DISTANCE_COUNTERS

        out["distance_pairs"] = DISTANCE_COUNTERS.pairs
    except ImportError:
        pass
    return out


async def _serve(args) -> dict:
    from repro.serving.server import ServerConfig, ServingServer

    workdir = Path(args.workdir)
    config = ServerConfig(
        port=0,
        checkpoint_path=workdir / "checkpoint.npz",
        wal_path=workdir / "journal.wal",
        wal_fsync=True,
    )
    server = ServingServer(args.bundle, config)
    await server.start()
    print(f"PORT {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    result: dict = {}
    while True:
        line = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
        if line == "mark":
            result["mark"] = _counters(server)
            print("MARKED", flush=True)
        elif line in ("stop", ""):
            result["stop"] = _counters(server)
            break
    await server.shutdown()
    checkpoint = config.checkpoint_path
    result["checkpoint_bytes"] = checkpoint.stat().st_size if checkpoint.exists() else 0
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--bundle", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = asyncio.run(_serve(args))
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    write_json(Path(args.out), result)


if __name__ == "__main__":
    main()
