"""Tests of the observability layer (``repro.obs``) and its serving wiring.

The load-bearing guarantees pinned here:

* the :class:`MetricsRegistry` is exact under concurrency (N threads times
  M increments land as exactly N*M), get-or-create by name (kind or label
  mismatch raises), and its snapshots are isolated — mutations after a
  snapshot never show through it;
* :class:`Histogram` files values with Prometheus ``le`` semantics (a value
  exactly on a bucket edge belongs to that edge's bucket) and reports
  interpolated percentiles; the ``+Inf`` overflow bucket reports the
  largest finite edge;
* ``render()`` emits valid Prometheus text exposition format 0.0.4 — the
  golden test pins the exact output for a known registry, and the live
  ``GET /metrics`` scrape is checked line-by-line against the grammar;
* traces propagate per-stage spans through the whole serving path: one
  traced request's structured log line carries individually-nonzero span
  timings that sum to within 10% of the end-to-end latency (a read splits
  into exactly ``parse`` + ``answer``);
* crash recovery on a fresh registry preserves ``recovered_mutations``
  while request counters start from zero (the chaos-marker test).

No pytest-asyncio here: each async scenario runs under ``asyncio.run``
inside a plain sync test, mirroring ``tests/test_serving_server.py``.
"""

import asyncio
import io
import json
import logging
import re
import threading
import urllib.request
from contextlib import redirect_stdout

import numpy as np
import pytest

from repro import (
    DHGNN,
    FrozenModel,
    InferenceSession,
    TrainConfig,
    Trainer,
)
from repro.cli import build_parser, main as cli_main
from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    Trace,
    activate,
    current_trace,
    current_traces,
    get_registry,
    record_span,
    span,
    use_registry,
)
from repro.serving.server import (
    ServerConfig,
    ServingServer,
    SessionPool,
)


@pytest.fixture(scope="module")
def bundle_path(tiny_citation_dataset, tmp_path_factory):
    """One trained DHGNN bundle shared by every test in this module."""
    dataset = tiny_citation_dataset
    model = DHGNN(dataset.n_features, dataset.n_classes, hidden_dim=8, seed=0)
    trainer = Trainer(
        model,
        dataset,
        TrainConfig(epochs=4, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    path = tmp_path_factory.mktemp("obs") / "bundle.npz"
    trainer.export_frozen(str(path))
    return path


def _new_rows(dataset, count, seed=5):
    rng = np.random.default_rng(seed)
    base = dataset.features[rng.choice(dataset.n_nodes, count, replace=False)]
    return base + rng.normal(scale=0.05, size=base.shape)


# --------------------------------------------------------------------------- #
# Counter / Gauge
# --------------------------------------------------------------------------- #
class TestCounter:
    def test_inc_and_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help", labelnames=("op",))
        counter.inc(op="a")
        counter.inc(2.5, op="a")
        counter.inc(op="b")
        assert counter.value(op="a") == 3.5
        assert counter.value(op="b") == 1.0
        assert counter.value(op="never") == 0.0

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            counter.inc(-1)

    def test_set_total_is_monotonic(self):
        counter = MetricsRegistry().counter("mirror_total")
        counter.set_total(5)
        counter.set_total(3)  # stale external read: never goes backwards
        assert counter.value() == 5.0
        counter.set_total(9)
        assert counter.value() == 9.0

    def test_concurrent_increments_are_exact(self):
        counter = MetricsRegistry().counter("contended_total")
        n_threads, n_incs = 8, 10_000

        def worker():
            for _ in range(n_incs):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == float(n_threads * n_incs)

    def test_labels_binds_one_child(self):
        # The hot-path form: resolve the label key once, then update by call.
        registry = MetricsRegistry()
        counter = registry.counter("bound_total", labelnames=("route", "status"))
        bump = counter.labels(route="/a", status=200)
        bump(2.0)
        counter.inc(route="/a", status="200")
        assert counter.value(route="/a", status="200") == 3.0
        with pytest.raises(ConfigurationError, match="cannot decrease"):
            bump(-1.0)
        with pytest.raises(ConfigurationError, match="takes labels"):
            counter.labels(route="/a")
        with pytest.raises(ConfigurationError, match="takes labels"):
            counter.inc(route="/a", path="/b")
        hist = registry.histogram("bound_seconds", labelnames=("route",), buckets=(1.0,))
        hist.labels(route="/a")(0.5)
        assert hist.count(route="/a") == 1
        off = MetricsRegistry(enabled=False).counter("off_total", labelnames=("route",))
        off.labels(route="/a")(1.0)
        assert off.value(route="/a") == 0.0

    def test_kind_and_label_mismatch_raise(self):
        registry = MetricsRegistry()
        registry.counter("shared", labelnames=("a",))
        assert registry.counter("shared", labelnames=("a",)) is registry.counter(
            "shared", labelnames=("a",)
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.gauge("shared")
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.counter("shared", labelnames=("b",))


class TestGauge:
    def test_set_inc_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert registry.snapshot()["gauges"]["g"]["values"][0]["value"] == 2.5
        pulled = registry.gauge("pulled")
        pulled.set_fn(lambda: 42.0)
        assert "pulled 42" in registry.render()


# --------------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_value_on_edge_lands_in_that_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)   # le="1" (Prometheus le semantics: <=)
        hist.observe(1.001)  # le="2"
        hist.observe(5.0)   # le="5"
        text = registry.render()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="5"} 3' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text

    def test_overflow_bucket_and_percentile_clamp(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(100.0)  # beyond every finite edge
        assert hist.count() == 1
        assert hist.total() == 100.0
        # Percentiles are bucket summaries: the overflow bucket reports the
        # largest finite edge rather than inventing a value.
        assert hist.percentile(0.99) == 2.0

    def test_percentile_interpolates_within_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        # target = 0.5 * 4 = 2 observations: one in [0,1], the second found
        # in (1,2] at fraction (2-1)/1 = 1.0 of the bucket span.
        assert hist.percentile(0.5) == 2.0
        assert hist.percentile(0.0) == 0.0 or hist.percentile(0.0) <= 1.0

    def test_bad_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError, match="ascending"):
            registry.histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ConfigurationError, match="ascending"):
            registry.histogram("empty", buckets=())

    def test_observe_many_matches_observe(self):
        # The batched hot-path entry point must be indistinguishable from N
        # individual observes — same buckets, count and sum.
        registry = MetricsRegistry()
        one = registry.histogram("one", buckets=(1.0, 2.0, 5.0))
        many = registry.histogram("many", buckets=(1.0, 2.0, 5.0))
        values = (0.5, 1.0, 1.5, 4.0, 9.0)
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert many.count() == one.count() == len(values)
        assert many.total() == one.total() == pytest.approx(sum(values))
        text = registry.render()
        for le, running in (("1", 2), ("2", 3), ("5", 4), ("+Inf", 5)):
            assert f'one_bucket{{le="{le}"}} {running}' in text
            assert f'many_bucket{{le="{le}"}} {running}' in text
        # Empty batches and disabled registries are no-ops.
        many.observe_many(())
        assert many.count() == len(values)
        off = MetricsRegistry(enabled=False).histogram("h")
        off.observe_many((1.0, 2.0))
        assert off.count() == 0


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_snapshot_is_isolated_from_later_mutations(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc()
        hist.observe(0.5)
        snap = registry.snapshot()
        counter.inc(10)
        hist.observe(0.5)
        assert snap["counters"]["c_total"]["values"][0]["value"] == 1.0
        assert snap["histograms"]["h"]["values"][0]["count"] == 1

    def test_reset_zeroes_but_keeps_definitions(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc(7)
        registry.reset()
        assert counter.value() == 0.0
        assert registry.counter("c_total") is counter

    def test_disabled_registry_is_a_no_op(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c_total")
        hist = registry.histogram("h")
        counter.inc(5)
        hist.observe(1.0)
        assert counter.value() == 0.0
        assert hist.count() == 0
        assert registry.render() == ""

    def test_collectors_run_on_scrape_and_can_be_removed(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        calls = []
        collector = lambda: (calls.append(1), gauge.set(len(calls)))[0]
        registry.add_collector(collector)
        registry.render()
        registry.snapshot()
        assert len(calls) == 2
        registry.remove_collector(collector)
        registry.render()
        assert len(calls) == 2

    def test_use_registry_swaps_and_restores_the_default(self):
        original = get_registry()
        fresh = MetricsRegistry()
        with use_registry(fresh):
            assert get_registry() is fresh
            get_registry().counter("inside_total").inc()
        assert get_registry() is original
        assert len(fresh) == 1

    def test_render_golden_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Total requests", labelnames=("route",)).inc(
            3, route="/predict"
        )
        registry.gauge("depth", "Queue depth").set(2)
        hist = registry.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        assert registry.render() == (
            "# HELP depth Queue depth\n"
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# HELP lat_seconds Latency\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.1"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 2\n'
            "lat_seconds_sum 0.55\n"
            "lat_seconds_count 2\n"
            "# HELP req_total Total requests\n"
            "# TYPE req_total counter\n"
            'req_total{route="/predict"} 3\n'
        )


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class TestTracing:
    def test_span_is_inert_without_an_active_trace(self):
        trace = Trace.new()
        with span("idle"):
            pass
        assert trace.spans == {} and current_trace() is None

    def test_activate_records_and_restores(self):
        trace = Trace.new()
        with activate(trace):
            assert current_trace() is trace
            with span("work"):
                pass
            record_span("manual", 0.25)
        assert current_trace() is None
        assert trace.spans["work"] > 0.0
        assert trace.spans["manual"] == 0.25
        assert trace.total() == pytest.approx(sum(trace.spans.values()))

    def test_fan_out_bills_every_activated_trace(self):
        first, second = Trace.new(), Trace.new()
        with activate(first, second):
            assert current_traces() == (first, second)
            record_span("shared", 0.1)
        assert first.spans["shared"] == second.spans["shared"] == 0.1

    def test_repeated_spans_accumulate(self):
        trace = Trace.new()
        with activate(trace):
            record_span("step", 0.1)
            record_span("step", 0.2)
        assert trace.spans["step"] == pytest.approx(0.3)
        assert trace.spans_ms()["step"] == pytest.approx(300.0)

    def test_traces_survive_worker_threads_when_passed_explicitly(self):
        # run_in_executor does not copy contextvars — the serving path hands
        # traces to the worker and re-activates them there; pin that idiom.
        trace = Trace.new()

        def worker(traces):
            with activate(*traces):
                record_span("threaded", 0.05)

        with activate(trace):
            thread = threading.Thread(target=worker, args=(current_traces(),))
            thread.start()
            thread.join()
        assert trace.spans["threaded"] == 0.05


# --------------------------------------------------------------------------- #
# HTTP plane: /healthz fields, /metrics exposition, /stats, trace logs
# --------------------------------------------------------------------------- #
async def _http_raw(reader, writer, method, path, payload=None):
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
    headers = {}
    for line in head.split(b"\r\n")[1:]:
        if b":" in line:
            name, _, value = line.partition(b":")
            headers[name.decode().lower()] = value.strip().decode()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, body, headers


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
        status, body, headers = await _http_raw(
            self.reader, self.writer, method, path, payload
        )
        if headers.get("content-type", "").startswith("application/json"):
            return status, json.loads(body), headers
        return status, body, headers


def _serve(bundle_path, scenario, **config_kwargs):
    """Run ``scenario(server)`` against a live server on a fresh registry."""
    config_kwargs.setdefault("port", 0)

    async def run():
        server = ServingServer(
            FrozenModel.load(bundle_path)
            if "checkpoint_path" not in config_kwargs
            else str(bundle_path),
            ServerConfig(**config_kwargs),
        )
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.shutdown()

    with use_registry(MetricsRegistry()):
        return asyncio.run(run())


#: One non-comment exposition line: name, optional {labels}, then a number.
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" [-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|\+?Inf|NaN)$"
)


class TestServerTelemetry:
    def test_healthz_carries_uptime_and_generation(self, bundle_path):
        async def scenario(server):
            async with _Client(server.port) as client:
                status, health, _ = await client.request("GET", "/healthz")
            return status, health

        status, health = _serve(bundle_path, scenario)
        assert status == 200
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0
        assert health["generation"] >= 1
        # The legacy keys keep working — /healthz and /stats telemetry are
        # served from the same code path.
        for key in ("n_alive", "queue_depth", "wal_depth", "recovered_mutations"):
            assert key in health

    def test_metrics_exposition_is_valid_and_complete(
        self, tiny_citation_dataset, bundle_path, tmp_path
    ):
        rows = _new_rows(tiny_citation_dataset, 1).tolist()

        async def scenario(server):
            async with _Client(server.port) as client:
                assert (await client.request("POST", "/predict", {"node": 3}))[0] == 200
                assert (
                    await client.request("POST", "/insert", {"features": rows})
                )[0] == 200
                status, body, headers = await client.request("GET", "/metrics")
            return status, body.decode("utf-8"), headers

        status, text, headers = _serve(
            bundle_path,
            scenario,
            wal_path=tmp_path / "mut.wal",
            checkpoint_path=tmp_path / "ckpt.npz",
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        families = set()
        for line in text.rstrip("\n").split("\n"):
            if line.startswith("# TYPE "):
                families.add(line.split()[2])
                continue
            if line.startswith("#"):
                continue
            assert _SAMPLE_LINE.match(line), f"invalid exposition line: {line!r}"
        # Every metric family the issue promises, across all the layers.
        for family in (
            "repro_requests_total",
            "repro_request_seconds",
            "repro_queue_depth",
            "repro_mutations_total",
            "repro_wal_append_seconds",
            "repro_wal_depth",
            "repro_checkpoint_seconds",
            "repro_checkpoint_age_seconds",
            "repro_uptime_seconds",
            "repro_generation",
            "repro_publish_seconds",
        ):
            assert family in families, f"missing family {family}"
        # Histogram invariant: _count equals the +Inf cumulative bucket.
        inf = re.search(
            r'repro_request_seconds_bucket\{route="/predict",le="\+Inf"\} (\d+)', text
        )
        count = re.search(
            r'repro_request_seconds_count\{route="/predict"\} (\d+)', text
        )
        assert inf and count and inf.group(1) == count.group(1) == "1"

    def test_stats_carries_telemetry_and_metrics_snapshot(self, bundle_path):
        async def scenario(server):
            async with _Client(server.port) as client:
                await client.request("POST", "/predict", {"node": 0})
                status, stats, _ = await client.request("GET", "/stats")
            return status, stats

        status, stats = _serve(bundle_path, scenario, trace_sample_rate=0.5)
        assert status == 200
        assert stats["telemetry"]["generation"] >= 1
        assert stats["metrics"]["counters"]["repro_requests_total"]["values"]
        assert stats["config"]["trace_sample_rate"] == 0.5
        assert stats["pool"]["generation"] == stats["telemetry"]["generation"]

    def test_traced_request_spans_sum_to_e2e_within_ten_percent(
        self, tiny_citation_dataset, bundle_path, tmp_path
    ):
        logger = logging.getLogger("repro.serving.trace")
        records: list[dict] = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(json.loads(record.getMessage()))

        handler = _Capture()
        logger.addHandler(handler)
        previous_level = logger.level
        logger.setLevel(logging.INFO)
        rows = _new_rows(tiny_citation_dataset, 2).tolist()

        async def one_predict(port, node):
            async with _Client(port) as client:
                return await client.request("POST", "/predict", {"node": node})

        async def scenario(server):
            results = await asyncio.gather(
                *[one_predict(server.port, node) for node in range(4)]
            )
            assert all(status == 200 for status, _, _ in results)
            async with _Client(server.port) as client:
                status, _, _ = await client.request(
                    "POST", "/insert", {"features": rows}
                )
                assert status == 200

        try:
            _serve(
                bundle_path,
                scenario,
                trace_sample_rate=1.0,
                wal_path=tmp_path / "mut.wal",
                checkpoint_path=tmp_path / "ckpt.npz",
            )
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)

        predicts = [r for r in records if r["route"] == "/predict"]
        inserts = [r for r in records if r["route"] == "/insert"]
        assert len(predicts) == 4 and len(inserts) == 1
        for record in records:
            assert record["event"] == "request"
            assert re.fullmatch(r"[0-9a-f]{16}", record["trace_id"])
            assert record["status"] == 200
            # Every span is a real measurement and together they explain the
            # end-to-end latency: within 10%, per the paper-trail contract.
            spans = record["spans_ms"]
            assert spans and all(value >= 0.0 for value in spans.values())
            coverage = sum(spans.values()) / record["duration_ms"]
            assert 0.9 <= coverage <= 1.05, (record["route"], spans, coverage)
        # A read is parsed, then answered from the current generation...
        for record in predicts:
            assert set(record["spans_ms"]) == {"parse", "answer"}, record["spans_ms"]
            assert record["spans_ms"]["answer"] > 0.0, record["spans_ms"]
        # ...and the write path surfaces the durability and topology stages
        # (insert journals, re-queries k-NN, refreshes operators, forwards).
        insert_spans = inserts[0]["spans_ms"]
        for name in ("wal_append", "knn", "operator", "forward"):
            assert insert_spans.get(name, 0.0) > 0.0, (name, insert_spans)

    def test_profile_exposes_per_op_totals(self, bundle_path):
        async def scenario(server):
            assert server.profiler is not None
            async with _Client(server.port) as client:
                await client.request("POST", "/predict", {"node": 1})
                await client.request("POST", "/reassign", {})
                _, metrics_body, _ = await client.request("GET", "/metrics")
                _, stats, _ = await client.request("GET", "/stats")
            return metrics_body.decode("utf-8"), stats

        text, stats = _serve(bundle_path, scenario, profile=True)
        assert re.search(r'repro_op_seconds_total\{op="[a-z_]+"\} ', text)
        assert stats["config"]["profile"] is True
        assert any(row["total_seconds"] > 0 for row in stats["profile"])


# --------------------------------------------------------------------------- #
# Crash recovery vs. the registry (chaos marker)
# --------------------------------------------------------------------------- #
@pytest.mark.chaos
def test_recovery_preserves_recovered_mutations_on_a_fresh_registry(
    tiny_citation_dataset, bundle_path, tmp_path
):
    """A restart starts counters from zero but re-counts replayed mutations.

    The process-lifetime counters (requests, latency) die with the crashed
    process — a fresh registry must not resurrect them — while the replay
    of the WAL suffix shows up both in the ``repro_recovered_mutations``
    gauge and in ``repro_mutations_total`` (recovery goes through the same
    apply path as live writes).
    """
    with use_registry(MetricsRegistry()):
        pool = SessionPool(
            FrozenModel.load(bundle_path),
            checkpoint_path=tmp_path / "ckpt.npz",
            wal_path=tmp_path / "mut.wal",
        )
        n_cols = pool.writer.features.shape[1]
        pool.insert(_new_rows(tiny_citation_dataset, 2))  # checkpointed
        pool.delete([0, 5])  # tombstones: these two ride the WAL
        pool.update([7], np.zeros((1, n_cols)))
        assert pool.wal.depth == 2
        # "Crash": the live pool and its registry are simply abandoned.

    fresh = MetricsRegistry()
    with use_registry(fresh):
        server = ServingServer(
            str(bundle_path),
            ServerConfig(
                port=0,
                checkpoint_path=tmp_path / "ckpt.npz",
                wal_path=tmp_path / "mut.wal",
            ),
        )
        assert server.recovered == 2
        text = server.registry.render()
    assert "repro_recovered_mutations 2" in text
    assert 'repro_mutations_total{op="delete"} 1' in text
    assert 'repro_mutations_total{op="update"} 1' in text
    # No request ever hit the restarted process: the request counters hold
    # no samples at all instead of inheriting pre-crash values.
    assert "repro_requests_total" not in text
    assert server.recovered == 2


# --------------------------------------------------------------------------- #
# CLI: serve flags and the `repro stats` pretty-printer
# --------------------------------------------------------------------------- #
class TestStatsCLI:
    def test_serve_parser_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--bundle", "b.npz", "--trace-sample-rate", "0.25",
                "--slow-ms", "50", "--profile", "--no-metrics",
            ]
        )
        assert args.trace_sample_rate == 0.25
        assert args.slow_ms == 50.0
        assert args.profile and args.no_metrics

    def test_stats_command_renders_a_live_server(self, bundle_path):
        def run_cli(argv):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli_main(argv)
            return code, buffer.getvalue()

        async def scenario(server):
            loop = asyncio.get_running_loop()
            url = f"http://127.0.0.1:{server.port}"

            def prime():
                request = urllib.request.Request(
                    url + "/predict",
                    data=b'{"node": 3}',
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request).read()

            await loop.run_in_executor(None, prime)
            code, text = await loop.run_in_executor(None, run_cli, ["stats", url])
            raw_code, raw = await loop.run_in_executor(
                None, run_cli, ["stats", url + "/stats", "--json"]
            )
            return code, text, raw_code, raw

        code, text, raw_code, raw = _serve(bundle_path, scenario)
        assert code == 0
        assert "server (ok)" in text
        assert "pool" in text and "latency (seconds)" in text
        assert "batcher" not in text and "replica" not in text
        assert "repro_request_seconds" in text
        assert raw_code == 0
        payload = json.loads(raw)
        assert "telemetry" in payload and "metrics" in payload
