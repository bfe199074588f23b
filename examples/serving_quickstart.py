"""Serving quickstart: export a trained model, warm-start it, insert nodes.

Run with::

    python examples/serving_quickstart.py

The script walks the full serving workflow of :mod:`repro.serving`:

1. train a DHGNN (every dynamic layer owns an incremental k-NN index);
2. export a one-file serving bundle (weights + resolved propagation
   operators + each layer's k-NN index state);
3. warm-start an :class:`~repro.serving.InferenceSession` from the bundle —
   the first prediction performs **zero** k-NN distance computations;
4. serve batched queries (labels, logits, embeddings) from one shared
   forward pass, frozen into an immutable generation;
5. insert new nodes online: the topology is repaired through each layer's
   k-NN index instead of being rebuilt;
6. delete nodes online (lazy tombstoning), compact the session (physical
   shrink + old->new id remap) and install a background cluster
   re-assignment policy that bounds frozen-membership staleness;
7. put the bundle behind the HTTP front-end
   (:class:`~repro.serving.ServingServer`) and drive it over a socket:
   concurrent predicts answered from the published generation, an online
   insert that publishes the next one, operational stats.  Outside an
   example, ``python -m repro.cli serve --bundle ...`` starts the same
   server standalone;
8. prove the durability story: start that standalone server as a real
   subprocess with ``--checkpoint`` + ``--wal``, mutate it over the wire,
   ``kill -9`` it mid-flight, restart it from the same paths and check the
   recovered process answers bit-identically;
9. watch the server run: scrape the Prometheus ``/metrics`` plane, capture
   a structured per-request trace (parse and answer spans that sum to the
   end-to-end latency) and pretty-print the live operational state with the
   ``repro stats`` command-line client.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro import DHGNN, FrozenModel, InferenceSession, TrainConfig, Trainer, get_dataset
from repro.hypergraph.knn import DISTANCE_COUNTERS


def main() -> None:
    # 1. Train.  Each dynamic layer keeps its own k-NN index; the exported
    #    bundle carries them.
    dataset = get_dataset("cora-cocitation", seed=0, n_nodes=400)
    model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=32, seed=0)
    trainer = Trainer(model, dataset, TrainConfig(epochs=60, patience=None))
    result = trainer.train()
    print(f"trained DHGNN on {dataset.name}: test accuracy {result.test_accuracy:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "dhgnn_bundle.npz"

        # 2. Export: compiles a frozen plan (bit-identical logits to trainer
        #    evaluation) and persists it with the operator store.
        frozen = trainer.export_frozen(str(bundle))
        assert np.array_equal(frozen.predict_labels(), trainer.predict())
        print(f"exported bundle: {bundle.name} ({bundle.stat().st_size / 1024:.0f} KiB)")

        # 3. Warm start — in a real deployment this is a different process.
        #    No k-NN distance computation happens before the first answer.
        session = InferenceSession(FrozenModel.load(bundle))
        DISTANCE_COUNTERS.reset()
        labels = session.predict([0, 5, 42])
        print(f"warm-start predictions for nodes [0, 5, 42]: {labels.tolist()}")
        print(f"distance pairs computed so far: {DISTANCE_COUNTERS.pairs}")

        # 4. Batched requests are slices of one frozen forward pass.
        logits, embeddings, everything = session.predict_batch(
            [
                {"nodes": [7, 9], "output": "logits"},
                {"nodes": [7, 9], "output": "embeddings"},
                None,
            ]
        )
        print(
            f"batch: {logits.shape} logits, {embeddings.shape} embeddings, "
            f"{everything.shape[0]} labels from {session.forwards} forward pass(es)"
        )

        # 5. Online insertion: five new nodes join through a scoped refresh.
        #    Layer 0's index grows by the new rows; the answer equals a cold
        #    rebuild bit for bit.
        serving = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        serving.predict()
        rng = np.random.default_rng(1)
        new_nodes = dataset.features[rng.choice(dataset.n_nodes, 5, replace=False)]
        new_ids = serving.insert_nodes(new_nodes + rng.normal(scale=0.05, size=new_nodes.shape))
        print(f"inserted nodes {new_ids.tolist()} -> labels {serving.predict(new_ids).tolist()}")
        for layer in serving.stats()["neighbors"]:
            print(
                f"layer {layer['layer']} k-NN: {layer['rows_requeried']} rows re-queried, "
                f"{layer['full_rebuilds']} full rebuilds"
            )

        # 6. The other half of the lifecycle: nodes leave.  Deletion is a
        #    lazy tombstone — the next refresh excludes the nodes from every
        #    hyperedge via each index's O(r*n) shrink-and-repair — and
        #    compact() makes it physical, returning the old->new id remap.
        doomed = [3, 7, 11]
        serving.delete_nodes(doomed)
        print(f"deleted nodes {doomed}: now serving {serving.n_alive} of "
              f"{serving.n_nodes} rows")
        remap = serving.compact()
        print(f"compacted to {serving.n_nodes} nodes "
              f"(old node 4 is now id {remap[4]}, deleted ids map to -1)")
        layer0 = serving.stats()["neighbors"][0]
        print(f"layer 0 k-NN after deletion: {layer0['rows_deleted']} state rows "
              f"dropped, {layer0['full_rebuilds']} full rebuilds")

        #    A background policy bounds the frozen-membership staleness of
        #    the k-means cluster hyperedges: every 5th refresh re-assigns
        #    every node to its nearest cluster centroid (one k-means
        #    assignment step over the current embedding, no re-fit).
        moves = serving.reassign_clusters()
        serving.reassign_clusters(every_n=5)
        print(f"cluster re-assignment moved {moves} memberships; background "
              f"policy installed (every 5 refreshes)")

        #    A churned session can be frozen back into a bundle: the
        #    node-lifecycle round-trip.
        checkpoint = Path(tmp) / "after_churn.npz"
        serving.to_frozen().save(checkpoint)
        restored = InferenceSession(FrozenModel.load(checkpoint))
        assert np.array_equal(restored.predict(), serving.predict())
        print(f"checkpointed the churned session: {checkpoint.name} "
              f"({checkpoint.stat().st_size / 1024:.0f} KiB), predictions match")

        # 7. The HTTP front-end: a session pool whose single writer
        #    publishes one immutable generation per write.  Every predict is
        #    answered inline from the current generation and names its id;
        #    writes go through the writer and swap in the next generation.
        asyncio.run(_drive_http_server(checkpoint, dataset))

        # 8. Fault tolerance: the same server as a subprocess with a
        #    write-ahead log, killed with SIGKILL and recovered.
        _crash_and_recover(checkpoint, dataset, Path(tmp))

        # 9. Observability: the /metrics plane, a structured request trace,
        #    and the `repro stats` pretty-printer.
        asyncio.run(_observability(checkpoint))


async def _drive_http_server(bundle: Path, dataset) -> None:
    from repro.serving import ServerConfig, ServingServer

    server = ServingServer(
        FrozenModel.load(bundle),
        ServerConfig(port=0),
    )
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)

        async def request(method: str, path: str, payload=None):
            body = json.dumps(payload).encode() if payload is not None else b""
            writer.write(
                (f"{method} {path} HTTP/1.1\r\nHost: quickstart\r\n"
                 f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            marker = head.index(b"Content-Length: ") + 16
            length = int(head[marker:head.index(b"\r", marker)])
            return json.loads(await reader.readexactly(length))

        health = await request("GET", "/healthz")
        print(f"HTTP server up on port {server.port}: {health}")

        # Concurrent predicts (one connection each, like distinct clients)
        # are each a slice of the same published generation.
        async def lone_client(node: int):
            lone_reader, lone_writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                body = json.dumps({"node": node}).encode()
                lone_writer.write(
                    (f"POST /predict HTTP/1.1\r\nHost: quickstart\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode() + body
                )
                await lone_writer.drain()
                head = await lone_reader.readuntil(b"\r\n\r\n")
                marker = head.index(b"Content-Length: ") + 16
                length = int(head[marker:head.index(b"\r", marker)])
                return json.loads(await lone_reader.readexactly(length))
            finally:
                lone_writer.close()

        answers = await asyncio.gather(*[lone_client(node) for node in range(6)])
        print(f"6 concurrent predicts -> labels "
              f"{[answer['result'] for answer in answers]} from generations "
              f"{sorted({answer['generation'] for answer in answers})}")

        # One more node joins over the wire; the response names its new id
        # and the very next read already comes from generation 2.
        row = (dataset.features[0] + 0.01).tolist()
        inserted = await request("POST", "/insert", {"features": [row]})
        fresh = await request(
            "POST", "/predict", {"nodes": inserted["ids"], "output": "logits"}
        )
        stats = await request("GET", "/stats")
        print(f"HTTP insert -> ids {inserted['ids']} at generation "
              f"{inserted['generation']}; logits {fresh['result']} from "
              f"generation {fresh['generation']}")
        print(f"server stats: generation {stats['pool']['generation']}, "
              f"{stats['telemetry']['queue_depth']} requests in flight")
        writer.close()
    finally:
        await server.shutdown()


def _crash_and_recover(bundle: Path, dataset, tmp: Path) -> None:
    """Kill -9 a journalling server mid-stream and restart it losslessly."""
    import re
    import signal
    import subprocess
    import sys

    import repro

    checkpoint, wal = tmp / "serve_ckpt.npz", tmp / "serve_mutations.wal"
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--bundle", str(bundle), "--port", "0",
        "--checkpoint", str(checkpoint), "--wal", str(wal),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))

    def start() -> tuple[subprocess.Popen, int]:
        process = subprocess.Popen(argv, env=env, stderr=subprocess.PIPE, text=True)
        for _ in range(600):
            match = re.search(r"http://127\.0\.0\.1:(\d+)", process.stderr.readline())
            if match:
                return process, int(match.group(1))
        process.kill()
        raise RuntimeError("server did not report its port")

    async def drive(port: int, *requests):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            answers = []
            for method, path, payload in requests:
                body = json.dumps(payload).encode() if payload is not None else b""
                writer.write(
                    (f"{method} {path} HTTP/1.1\r\nHost: quickstart\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n").encode() + body
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                marker = head.index(b"Content-Length: ") + 16
                length = int(head[marker:head.index(b"\r", marker)])
                answers.append(json.loads(await reader.readexactly(length)))
            return answers
        finally:
            writer.close()

    process, port = start()
    try:
        row = (dataset.features[1] + 0.02).tolist()
        inserted, logits = asyncio.run(drive(
            port,
            ("POST", "/insert", {"features": [row]}),
            ("POST", "/predict", {"nodes": None, "output": "logits"}),
        ))
        process.send_signal(signal.SIGKILL)  # no drain, no atexit, no mercy
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
    print(f"killed the serving subprocess (SIGKILL) after inserting "
          f"node {inserted['ids']}")

    process, port = start()
    try:
        recovered, = asyncio.run(drive(
            port, ("POST", "/predict", {"nodes": None, "output": "logits"})
        ))
        assert recovered["result"] == logits["result"]
        print(f"restarted from {checkpoint.name} + {wal.name}: "
              f"{len(recovered['result'])} rows, predictions bit-identical")
    finally:
        process.terminate()
        process.wait(timeout=30)


async def _observability(bundle: Path) -> None:
    """Scrape /metrics, catch a request trace, run the stats CLI client."""
    import logging

    from repro.cli import main as cli_main
    from repro.serving import ServerConfig, ServingServer

    # trace_sample_rate=1.0 logs a structured trace for *every* request (in
    # production you sample, and requests over --slow-ms always log).
    server = ServingServer(
        FrozenModel.load(bundle),
        ServerConfig(port=0, trace_sample_rate=1.0),
    )
    traces: list[logging.LogRecord] = []
    handler = logging.Handler()
    handler.emit = traces.append
    trace_logger = logging.getLogger("repro.serving.trace")
    trace_logger.addHandler(handler)
    trace_logger.setLevel(logging.INFO)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        body = json.dumps({"nodes": [0, 1, 2]}).encode()
        writer.write(
            (f"POST /predict HTTP/1.1\r\nHost: quickstart\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        marker = head.index(b"Content-Length: ") + 16
        await reader.readexactly(int(head[marker:head.index(b"\r", marker)]))

        # The Prometheus text plane: counters, gauges and histograms from
        # every layer (server, pool, WAL) in one scrape.
        writer.write(b"GET /metrics HTTP/1.1\r\nHost: quickstart\r\n"
                     b"Content-Length: 0\r\n\r\n")
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        marker = head.index(b"Content-Length: ") + 16
        scrape = await reader.readexactly(
            int(head[marker:head.index(b"\r", marker)])
        )
        lines = scrape.decode().splitlines()
        shown = [line for line in lines
                 if line.startswith(("repro_requests_total", "repro_generation"))]
        print(f"GET /metrics: {len(lines)} exposition lines, e.g.")
        for line in shown[:4]:
            print(f"  {line}")
        writer.close()

        # The sampled trace arrived as one structured JSON log line whose
        # spans (parse, then answer) account for the request's latency.
        trace = json.loads(traces[0].getMessage())
        print(f"request trace {trace['trace_id']}: "
              f"{trace['duration_ms']:.1f}ms total, spans "
              f"{sorted(trace['spans_ms'])}")

        # `python -m repro.cli stats <url>` renders the same state for
        # humans (blocked off the event loop here only because the server
        # lives in this process).
        print(f"--- repro stats http://127.0.0.1:{server.port} ---")
        await asyncio.get_running_loop().run_in_executor(
            None, cli_main, ["stats", f"http://127.0.0.1:{server.port}"]
        )
    finally:
        trace_logger.removeHandler(handler)
        await server.shutdown()


if __name__ == "__main__":
    main()
