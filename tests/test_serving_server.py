"""Tests of the asyncio serving front-end (``repro.serving.server``).

The load-bearing guarantees pinned here:

* a :class:`Generation` answers exactly like the session that produced it,
  owns read-only copies of its arrays, and is untouched by everything the
  writer does afterwards (in-place feature overwrites, tombstones,
  inserts, republishes);
* a :class:`SessionPool`'s published generation stays bit-identical to a
  fresh ``to_frozen()`` snapshot of its state — before and after a swap,
  and while readers on other threads keep reading as the writer mutates;
* the HTTP front-end: every route round-trips JSON, responses are
  bit-identical to a direct session on the same bundle, writes are
  read-your-writes (a client sees its own insert immediately), every read
  answer matches the generation its response is stamped with, draining
  returns 503, too many requests in flight return 429, and bad requests
  map to 400 without failing their neighbours;
* ``repro.cli serve`` boots a real server process that answers HTTP.

No pytest-asyncio here: each async scenario runs under ``asyncio.run``
inside a plain sync test.
"""

import asyncio
import json
import os
import re
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import (
    DHGNN,
    FrozenModel,
    InferenceSession,
    TrainConfig,
    Trainer,
)
from repro.cli import build_parser
from repro.errors import ConfigurationError
from repro.serving import Generation, OperatorStore
from repro.serving.server import (
    ServerConfig,
    ServingServer,
    SessionPool,
)
from test_session_histories import reference_session


def _train_bundle(dataset, path, **model_kwargs):
    model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0, **model_kwargs)
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=4, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    trainer.export_frozen(str(path))
    return path


@pytest.fixture(scope="module")
def bundle_path(tiny_citation_dataset, tmp_path_factory):
    """One trained DHGNN bundle shared by every test in this module."""
    return _train_bundle(
        tiny_citation_dataset, tmp_path_factory.mktemp("serving_server") / "bundle.npz"
    )


@pytest.fixture(scope="module")
def one_layer_bundle(tiny_citation_dataset, tmp_path_factory):
    """A one-layer DHGNN: its embeddings *are* the writer's feature matrix."""
    return _train_bundle(
        tiny_citation_dataset,
        tmp_path_factory.mktemp("serving_server") / "one_layer.npz",
        n_layers=1,
    )


def _new_rows(dataset, count, seed=5):
    rng = np.random.default_rng(seed)
    base = dataset.features[rng.choice(dataset.n_nodes, count, replace=False)]
    return base + rng.normal(scale=0.05, size=base.shape)


def _every_answer(generation, nodes):
    """Every kind of answer a generation gives, keyed by (output, query)."""
    queries = {"all": None, "subset": nodes, "scalar": nodes[0]}
    return {
        (output, name): np.array(generation.answer(query, output=output))
        for output in ("labels", "logits", "embeddings")
        for name, query in queries.items()
    }


# --------------------------------------------------------------------------- #
# Generation: one immutable published forward
# --------------------------------------------------------------------------- #
class TestGeneration:
    def test_generation_answers_like_its_session(self, tiny_citation_dataset, bundle_path):
        session = InferenceSession(FrozenModel.load(bundle_path))
        session.insert_nodes(_new_rows(tiny_citation_dataset, 3))
        session.delete_nodes([1, 6])
        generation = session.generation()
        assert generation is session.generation()  # frozen once per forward
        assert generation.id == session.forwards
        for output in ("labels", "logits", "embeddings"):
            assert np.array_equal(
                generation.answer(output=output), session.predict(output=output)
            )
            assert np.array_equal(
                generation.answer([0, 4, 121], output=output),
                session.predict([0, 4, 121], output=output),
            )
        assert generation.answer(5) == session.predict(5)
        with pytest.raises(ConfigurationError, match="deleted"):
            generation.answer([1])
        with pytest.raises(ConfigurationError, match="output"):
            generation.answer([0], output="entropy")

    def test_capture_owns_private_copies(self):
        logits = np.arange(12.0).reshape(4, 3)
        embeddings = np.ones((4, 2))
        alive = np.array([True, True, False, True])
        generation = Generation.capture(7, logits, embeddings, alive)
        expected = logits[[0, 1, 3]].copy()
        for source in (logits, embeddings, alive):
            source[...] = 0
        assert generation.id == 7 and generation.alive.size == 4
        assert np.array_equal(generation.labels, [2, 2, 2, 2])
        assert np.array_equal(generation.answer(output="logits"), expected)
        assert np.array_equal(generation.answer(3, output="embeddings"), [1.0, 1.0])
        with pytest.raises(ConfigurationError, match="deleted"):
            generation.answer(2)

    @pytest.mark.parametrize("output", ["labels", "logits", "embeddings"])
    def test_answers_are_fresh_arrays(self, bundle_path, output):
        generation = InferenceSession(FrozenModel.load(bundle_path)).generation()
        expected = generation.answer([2, 5], output=output).copy()
        whole = generation.answer(output=output)
        subset = generation.answer([2, 5], output=output)
        assert whole.shape[0] == generation.alive.sum() and subset.shape[0] == 2
        assert np.array_equal(np.asarray(generation.answer(2, output=output)), expected[0])
        # Callers own what they get back: scribbling on an answer never
        # reaches the generation.
        whole[...] = 0
        subset[...] = 0
        assert np.array_equal(generation.answer([2, 5], output=output), expected)

    def test_labels_are_computed_once_per_generation(self, bundle_path, monkeypatch):
        session = InferenceSession(FrozenModel.load(bundle_path))
        generation = session.generation()
        expected = np.argmax(generation.logits, axis=1)
        assert np.array_equal(generation.labels, expected)

        def no_argmax(*args, **kwargs):
            raise AssertionError("a label read must not argmax the logits")

        monkeypatch.setattr(np, "argmax", no_argmax)
        assert generation.answer(7) == expected[7]
        assert session.predict(7) == expected[7]

    @pytest.mark.parametrize("bundle", ["bundle_path", "one_layer_bundle"])
    def test_captured_generation_survives_every_writer_mutation(
        self, tiny_citation_dataset, request, bundle
    ):
        # The writer mutates two arrays in place: update_features overwrites
        # rows of the feature matrix (layer 0's input — a one-layer model's
        # embeddings), and delete_nodes flips its tombstone mask.  A
        # captured generation must be immune to both, and to everything
        # else the writer does afterwards.
        dataset = tiny_citation_dataset
        pool = SessionPool(FrozenModel.load(request.getfixturevalue(bundle)))
        captured = pool.current
        nodes = [0, 3, 8]
        before = _every_answer(captured, nodes)

        pool.update(nodes, dataset.features[nodes] + 0.5)
        pool.delete([3])
        pool.insert(_new_rows(dataset, 2))
        pool.publish()
        assert pool.current.id == captured.id + 4
        with pytest.raises(ConfigurationError, match="deleted"):
            pool.current.answer([3])

        for key, value in _every_answer(captured, nodes).items():
            assert np.array_equal(value, before[key]), key
        for array in (captured.labels, captured.logits, captured.embeddings, captured.alive):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]


# --------------------------------------------------------------------------- #
# SessionPool: published generations vs. fresh snapshots
# --------------------------------------------------------------------------- #
class TestSessionPool:
    def test_readers_match_frozen_snapshot_across_swap(
        self, tiny_citation_dataset, bundle_path
    ):
        # The published generation is bit-identical to a fresh to_frozen()
        # snapshot of its state, before and after a swap, and a reader still
        # holding the pre-swap generation keeps serving it unchanged.
        dataset = tiny_citation_dataset
        pool = SessionPool(FrozenModel.load(bundle_path))
        reference = InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        old = pool.current
        assert np.array_equal(old.answer(output="logits"), reference)

        pool.insert(_new_rows(dataset, 4))  # mutate + republish
        new_reference = InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        assert new_reference.shape[0] == reference.shape[0] + 4
        assert np.array_equal(pool.current.answer(output="logits"), new_reference)
        assert np.array_equal(old.answer(output="logits"), reference)

    def test_readers_stay_identical_while_writer_mutates_concurrently(
        self, tiny_citation_dataset, bundle_path
    ):
        dataset = tiny_citation_dataset
        pool = SessionPool(FrozenModel.load(bundle_path))
        references = {
            pool.generation: InferenceSession(pool.writer.to_frozen()).predict(output="logits")
        }
        stop = threading.Event()

        def churn():
            for round_index in range(4):
                pool.writer.insert_nodes(_new_rows(dataset, 2, seed=round_index))
                pool.writer.update_features(
                    [round_index], dataset.features[[round_index]] + 0.1
                )
                published = pool.publish()
                references[published.id] = InferenceSession(
                    pool.writer.to_frozen()
                ).predict(output="logits")
            return pool.generation

        def read_loop():
            seen = []
            while not stop.is_set():
                generation = pool.current
                seen.append((generation.id, generation.answer(output="logits")))
            return seen

        with ThreadPoolExecutor(max_workers=4) as executor:
            futures = [executor.submit(read_loop) for _ in range(3)]
            generation = executor.submit(churn).result()
            stop.set()
            reads = [read for future in futures for read in future.result()]
        assert generation == 5  # initial publish + 4 republishes
        assert reads
        # Every read served one complete published generation, bit-identically.
        for generation_id, logits in reads:
            assert np.array_equal(logits, references[generation_id]), generation_id

    def test_publish_swaps_in_the_next_generation(self, bundle_path):
        pool = SessionPool(FrozenModel.load(bundle_path))
        first = pool.current
        published = pool.publish()  # the writer is unchanged since the last one
        assert published is pool.current
        assert published.id == first.id + 1 == pool.generation
        # Same forward, restamped: no second forward and no copy.
        assert pool.writer.forwards == 1
        assert published.logits is first.logits

    def test_delete_and_compact_republish(self, bundle_path):
        pool = SessionPool(FrozenModel.load(bundle_path))
        n_before = pool.writer.n_nodes
        result = pool.delete([2, 9])
        assert result["n_alive"] == n_before - 2 and result["tombstones"] == 2
        with pytest.raises(ConfigurationError, match="deleted"):
            pool.current.answer([2])
        assert np.array_equal(
            pool.current.answer(output="labels"), pool.writer.predict(output="labels")
        )
        result = pool.compact()
        assert result["n_nodes"] == n_before - 2
        assert pool.current.alive.size == n_before - 2

    def test_checkpoints_published_generations(self, tmp_path, bundle_path):
        checkpoint = tmp_path / "checkpoint.npz"
        pool = SessionPool(FrozenModel.load(bundle_path), checkpoint_path=checkpoint)
        assert checkpoint.exists() and pool.checkpoints == 1
        reference = pool.writer.predict(output="logits")
        warm = InferenceSession(FrozenModel.load(checkpoint))
        assert np.array_equal(warm.predict(output="logits"), reference)
        # A tombstoned generation is not bundleable and is skipped.
        pool.delete([0])
        assert pool.checkpoints == 1
        pool.compact()
        assert pool.checkpoints == 2


# --------------------------------------------------------------------------- #
# HTTP front-end
# --------------------------------------------------------------------------- #
async def _http(reader, writer, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else b""
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    marker = head.index(b"Content-Length: ") + 16
    length = int(head[marker : head.index(b"\r", marker)])
    return status, json.loads(await reader.readexactly(length))


class _Client:
    """One keep-alive connection to a test server."""

    def __init__(self, port):
        self.port = port

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()

    async def request(self, method, path, payload=None):
        return await _http(self.reader, self.writer, method, path, payload)


class TestServingServerHTTP:
    def _serve(self, bundle_path, scenario, **config_kwargs):
        config_kwargs.setdefault("port", 0)

        async def run():
            server = ServingServer(
                FrozenModel.load(bundle_path), ServerConfig(**config_kwargs)
            )
            await server.start()
            try:
                async with _Client(server.port) as client:
                    return await scenario(server, client)
            finally:
                await server.shutdown()

        return asyncio.run(run())

    def test_health_stats_and_predict(self, bundle_path):
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["generation"] == 1

            status, answer = await client.request("POST", "/predict", {"node": 5})
            assert status == 200
            assert answer["result"] == int(direct.predict(5))

            status, answer = await client.request(
                "POST", "/predict", {"nodes": [0, 3, 8], "output": "logits"}
            )
            assert status == 200
            assert np.array_equal(
                np.asarray(answer["result"]),
                direct.predict([0, 3, 8], output="logits"),
            )

            status, answer = await client.request(
                "POST", "/predict", {"nodes": None, "output": "labels"}
            )
            assert status == 200
            assert answer["result"] == direct.predict().tolist()

            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["pool"]["generation"] == 1
            assert stats["telemetry"]["queue_depth"] == 0
            assert "batcher" not in stats and "replicas" not in stats["pool"]
            # One k-NN counter block per dynamic layer: the warm bundle
            # answered its first publish with no k-NN work at all.
            counters = (
                "full_rebuilds", "partial_refreshes", "rows_requeried",
                "rows_repaired_locally", "rows_inserted", "rows_deleted",
            )
            neighbors = stats["pool"]["writer"]["neighbors"]
            assert [row["layer"] for row in neighbors] == [0, 1]
            assert all(row[key] == 0 for row in neighbors for key in counters)

            status, _ = await client.request(
                "POST", "/update",
                {"nodes": [4], "features": [(direct.features[4] + 0.1).tolist()]},
            )
            assert status == 200
            status, stats = await client.request("GET", "/stats")
            layer0, layer1 = stats["pool"]["writer"]["neighbors"]
            assert layer0["partial_refreshes"] == 1 and layer0["full_rebuilds"] == 0
            assert layer1["full_rebuilds"] + layer1["partial_refreshes"] == 1

        self._serve(bundle_path, scenario)

    def test_error_mapping(self, bundle_path):
        async def scenario(server, client):
            assert (await client.request("GET", "/nope"))[0] == 404
            assert (await client.request("POST", "/nope", {}))[0] == 404
            status, payload = await client.request("POST", "/predict", {"node": 3.7})
            assert status == 400 and "3.7" in payload["error"]
            status, payload = await client.request(
                "POST", "/predict", {"nodes": [10_000]}
            )
            assert status == 400 and "node ids" in payload["error"]
            status, payload = await client.request("POST", "/insert", {})
            assert status == 400 and "features" in payload["error"]
            # Malformed JSON body.
            client.writer.write(
                b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\n{{{{"
            )
            head = await client.reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            marker = head.index(b"Content-Length: ") + 16
            await client.reader.readexactly(
                int(head[marker : head.index(b"\r", marker)])
            )
            # An unsupported method.
            assert (await client.request("PUT", "/predict", {}))[0] == 405

        self._serve(bundle_path, scenario)

    def test_bad_request_does_not_poison_batch(self, bundle_path):
        # Concurrent good and bad reads: each answered on its own merits.
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            async with _Client(server.port) as second:
                good, bad = await asyncio.gather(
                    client.request(
                        "POST", "/predict", {"nodes": [1, 2], "output": "labels"}
                    ),
                    second.request("POST", "/predict", {"node": 2.5}),
                )
            assert good[0] == 200
            assert good[1]["result"] == direct.predict([1, 2]).tolist()
            assert bad[0] == 400 and "2.5" in bad[1]["error"]

        self._serve(bundle_path, scenario)

    def test_writes_are_read_your_writes(self, tiny_citation_dataset, bundle_path):
        dataset = tiny_citation_dataset

        async def scenario(server, client):
            rows = _new_rows(dataset, 2).tolist()
            status, inserted = await client.request(
                "POST", "/insert", {"features": rows}
            )
            assert status == 200 and inserted["generation"] == 2
            new_ids = inserted["ids"]
            assert len(new_ids) == 2

            # The very next read sees the insert (its generation is live).
            status, answer = await client.request(
                "POST", "/predict", {"nodes": new_ids}
            )
            assert status == 200 and len(answer["result"]) == 2
            assert answer["generation"] == 2

            status, updated = await client.request(
                "POST", "/update", {"nodes": [0], "features": [rows[0]]}
            )
            assert status == 200 and updated["generation"] == 3

            status, deleted = await client.request(
                "POST", "/delete", {"nodes": [new_ids[1]]}
            )
            assert status == 200 and deleted["tombstones"] == 1
            status, payload = await client.request(
                "POST", "/predict", {"nodes": [new_ids[1]]}
            )
            assert status == 400 and "deleted" in payload["error"]

            status, compacted = await client.request("POST", "/compact", {})
            assert status == 200
            assert compacted["n_nodes"] == dataset.n_nodes + 1
            status, reassigned = await client.request("POST", "/reassign", {})
            assert status == 200 and "moves" in reassigned

            status, health = await client.request("GET", "/healthz")
            assert health["n_alive"] == dataset.n_nodes + 1

        self._serve(bundle_path, scenario)

    def test_server_matches_direct_session_bit_for_bit(self, bundle_path):
        direct = InferenceSession(FrozenModel.load(bundle_path))

        async def scenario(server, client):
            rng = np.random.default_rng(0)
            for _ in range(8):
                nodes = rng.integers(0, direct.n_nodes, 4).tolist()
                for output in ("labels", "logits", "embeddings"):
                    status, answer = await client.request(
                        "POST", "/predict", {"nodes": nodes, "output": output}
                    )
                    assert status == 200
                    expected = direct.predict(nodes, output=output)
                    got = np.asarray(answer["result"], dtype=expected.dtype)
                    assert np.array_equal(got, expected)

        self._serve(bundle_path, scenario)

    def test_whole_set_read_skips_tombstones(self, bundle_path):
        async def scenario(server, client):
            status, deleted = await client.request("POST", "/delete", {"nodes": [4]})
            assert status == 200
            status, answer = await client.request("POST", "/predict", {"nodes": None})
            assert status == 200 and answer["generation"] == deleted["generation"]
            return answer["result"]

        labels = self._serve(bundle_path, scenario)
        direct = InferenceSession(FrozenModel.load(bundle_path))
        direct.delete_nodes([4])
        assert labels == direct.predict().tolist()
        assert len(labels) == direct.n_nodes - 1

    def test_shutdown_answers_in_flight_writes_first(self, bundle_path):
        async def run():
            server = ServingServer(FrozenModel.load(bundle_path), ServerConfig(port=0))
            await server.start()
            async with _Client(server.port) as client:
                await server._write_lock.acquire()
                parked = asyncio.ensure_future(client.request("POST", "/compact", {}))
                while server.in_flight == 0:
                    await asyncio.sleep(0.001)
                closing = asyncio.ensure_future(server.shutdown())
                await asyncio.sleep(0.05)
                assert not closing.done() and server.status == "draining"
                server._write_lock.release()
                status, _ = await parked
                await closing
            return status

        assert asyncio.run(run()) == 200

    def test_draining_returns_503(self, bundle_path):
        async def scenario(server, client):
            server._draining = True
            status, payload = await client.request("POST", "/predict", {"node": 0})
            assert status == 503 and "draining" in payload["error"]
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "draining"

        self._serve(bundle_path, scenario)

    def test_overload_returns_429(self, bundle_path):
        async def scenario(server, client):
            # Hold the write lock so one write parks in flight.
            await server._write_lock.acquire()
            async with _Client(server.port) as writer:
                parked = asyncio.ensure_future(writer.request("POST", "/compact", {}))
                while server.in_flight == 0:
                    await asyncio.sleep(0.001)
                status, payload = await client.request("POST", "/predict", {"node": 0})
                assert status == 429 and "full" in payload["error"]
                status, health = await client.request("GET", "/healthz")
                assert status == 200 and health["queue_depth"] == 1
                server._write_lock.release()
                assert (await parked)[0] == 200
            # Back under the cap: reads are admitted again.
            assert (await client.request("POST", "/predict", {"node": 0}))[0] == 200

        self._serve(bundle_path, scenario, max_queue_depth=1)

    def test_every_answer_matches_the_generation_it_is_stamped_with(
        self, tiny_citation_dataset, bundle_path
    ):
        # Regression: a read's ``generation`` must name the generation that
        # computed its answer, even while writes publish between reads.
        dataset = tiny_citation_dataset
        rng = np.random.default_rng(3)
        updates = []
        for _ in range(6):
            nodes = sorted(rng.choice(dataset.n_nodes, 3, replace=False).tolist())
            rows = dataset.features[nodes] + rng.normal(scale=0.05, size=(3, dataset.n_features))
            updates.append((nodes, rows.tolist()))

        async def scenario(server, client):
            answers = []
            writing = True

            async def read_loop():
                async with _Client(server.port) as reader:
                    while writing:
                        status, body = await reader.request(
                            "POST", "/predict", {"nodes": None, "output": "logits"}
                        )
                        assert status == 200
                        answers.append((body["generation"], body["result"]))

            readers = [asyncio.ensure_future(read_loop()) for _ in range(2)]
            acked = []
            for nodes, rows in updates:
                status, body = await client.request(
                    "POST", "/update", {"nodes": nodes, "features": rows}
                )
                assert status == 200
                acked.append(body["generation"])
            writing = False
            await asyncio.gather(*readers)
            return acked, answers

        acked, answers = self._serve(bundle_path, scenario)
        assert acked == list(range(2, 2 + len(updates)))
        session = InferenceSession(FrozenModel.load(bundle_path))
        reference = {1: session.predict(output="logits")}
        for (nodes, rows), generation in zip(updates, acked):
            session.update_features(nodes, np.asarray(rows))
            reference[generation] = session.predict(output="logits")
        for generation, result in answers:
            assert np.array_equal(np.asarray(result), reference[generation]), generation
        assert len({generation for generation, _ in answers}) > 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="max_queue_depth"):
            ServerConfig(max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="write_timeout_s"):
            ServerConfig(write_timeout_s=0)
        for removed in (
            "replicas", "batch_window_ms", "max_batch_size", "request_timeout_s",
            "shards", "refresh_workers",
        ):
            with pytest.raises(TypeError, match=removed):
                ServerConfig(**{removed: 1})


# --------------------------------------------------------------------------- #
# Bundles left on disk by the removed sharding tier
# --------------------------------------------------------------------------- #
class TestLegacyShardedBundles:
    def test_shard_map_meta_is_ignored(self, tmp_path, bundle_path):
        # What `repro export --shards 2` used to write: a k-means partition
        # in the model meta.  Nothing reads it any more.
        frozen = FrozenModel.load(bundle_path)
        n = frozen.features.shape[0]
        frozen.meta["shard_map"] = {
            "assignment": (np.arange(n) % 2).tolist(),
            "centroids": np.zeros((2, frozen.features.shape[1])).tolist(),
        }
        legacy = tmp_path / "shard_map_bundle.npz"
        frozen.save(legacy)

        pool = SessionPool(FrozenModel.load(legacy))
        plain = SessionPool(FrozenModel.load(bundle_path))
        assert type(pool.writer) is InferenceSession
        for output in ("labels", "logits", "embeddings"):
            assert np.array_equal(
                pool.current.answer(output=output), plain.current.answer(output=output)
            )

    def test_sharded_backend_key_is_ignored(self, tmp_path, bundle_path):
        # A shared-backend bundle naming the deleted sharded backend loads
        # like any other: the backend key is ignored.
        legacy = _legacy_backend_bundle(bundle_path, tmp_path / "sharded.npz", ["sharded", 4, 0])
        loaded = InferenceSession(FrozenModel.load(legacy))
        original = InferenceSession(FrozenModel.load(bundle_path))
        for output in ("labels", "logits", "embeddings"):
            assert np.array_equal(
                loaded.predict(output=output), original.predict(output=output)
            )


def _legacy_backend_bundle(bundle_path, path, cache_key):
    """Rewrite a bundle into the layout written before each topology slot
    carried its own k-NN index: no per-slot index arrays, one shared backend
    named by ``meta["backend"]`` and its state in a ``backend_state0`` group."""
    store = OperatorStore.load(bundle_path)
    signatures = []
    for entry in store.meta["slots"]:
        name = f"slot{entry['position']}"
        group = store.get_group(name)
        state = {
            key[len("index."):]: group.pop(key) for key in list(group) if key.startswith("index.")
        }
        assert state, "a new bundle carries per-slot index arrays"
        store.put_group(name, group)
        if not signatures:
            features, indices = state["features"], state["indices"]
            store.put_group(
                "backend_state0",
                {key: state[key] for key in ("features", "indices", "distances")},
            )
            signatures.append(
                [*features.shape, features.dtype.name, indices.shape[1], False, "euclidean"]
            )
    store.meta["backend"] = {"cache_key": list(cache_key), "state_signatures": signatures}
    return store.save(path)


class TestLegacyBackendBundles:
    """Bundles whose slots share one captured neighbour backend."""

    def _check(self, legacy, bundle_path):
        frozen = FrozenModel.load(legacy)
        assert all(slot.index.export_state() is None for slot in frozen.plan.slots)
        loaded = InferenceSession(frozen)
        original = InferenceSession(FrozenModel.load(bundle_path))
        for output in ("labels", "logits", "embeddings"):
            assert np.array_equal(
                loaded.predict(output=output), original.predict(output=output)
            )
        # The first refresh after the load rebuilds each layer's k-NN cold,
        # and equals the cold reference of the history harness.
        reference = reference_session(bundle_path)
        nodes = [1, 4, 9]
        values = loaded.features[nodes] + 0.05
        new_rows = loaded.features[[2, 3]] + 0.01
        for session in (loaded, reference):
            session.update_features(nodes, values)
            session.insert_nodes(new_rows)
        assert np.array_equal(
            loaded.predict(output="logits"), reference.predict(output="logits")
        )
        assert [row["full_rebuilds"] for row in loaded.stats()["neighbors"]] == [1, 1]

    def test_shared_incremental_backend_bundle(self, tmp_path, bundle_path):
        self._check(
            _legacy_backend_bundle(
                bundle_path, tmp_path / "incremental.npz", ["incremental", 0.0, 0.35]
            ),
            bundle_path,
        )

    def test_lsh_backend_bundle_refreshes_exactly(self, tmp_path, bundle_path):
        self._check(
            _legacy_backend_bundle(bundle_path, tmp_path / "lsh.npz", ["lsh", 8, None, 2, 0]),
            bundle_path,
        )


# --------------------------------------------------------------------------- #
# CLI: repro serve
# --------------------------------------------------------------------------- #
class TestServeCLI:
    @pytest.mark.parametrize(
        "flag",
        [
            "--replicas", "--batch-window-ms", "--max-batch-size", "--request-timeout-s",
            "--shards", "--refresh-workers",
        ],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--bundle", "b.npz", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_export_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["export", "--dataset", "d", "--model", "dhgnn", "--out", "b.npz",
                 "--shards", "2"]
            )
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_boots_and_answers(self, bundle_path):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--bundle", str(bundle_path), "--port", "0",
            ],
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=str(Path(__file__).resolve().parents[1]),
        )
        try:
            line = process.stderr.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no address announced: {line!r}"
            port = int(match.group(1))
            with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
                conn.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                response = b""
                while chunk := conn.recv(4096):
                    response += chunk
            assert response.startswith(b"HTTP/1.1 200")
            assert b'"status": "ok"' in response
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            process.stderr.close()
