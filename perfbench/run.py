"""One benchmark for the serving stack and training: read, write, churn, train.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read|write|churn|train --seed N \
        --seconds S --trace 0|1 [--smoke]

With ``--trace 0`` the last stdout line is one JSON object holding every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` the workload
runs once untraced and once with span wrappers installed in the server or
trainer process, and the line holds every per-layer metric instead,
including the tracing overhead (traced ÷ untraced − 1 of each end-to-end
metric).  ``--smoke`` shrinks the populations and run lengths for the
benchmark's own tests.  See ``perfbench/README.md`` for why each workload
exists and which layers it loads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import select
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import quantile  # noqa: E402

perf_counter = time.perf_counter

WORKLOADS = ("read", "write", "churn", "train")
#: Server start-ups per serving run; setup_s is their median.
SERVER_SETUPS = 3
#: A write p90 needs >= 100 writes: ``write`` measures until it has them.
MIN_WRITES = 100
#: Hard cap on one measured phase, whatever the minimums ask for.
MAX_MEASURE_S = 90.0
#: Open-loop read rate of ``churn``.  At 200 req/s the one read connection
#: was ~70% busy, and its queue amplified every drift in the machine's speed
#: (read p90 moved by 27% of its median across ten runs of unchanged code).
CHURN_READ_RATE = 100.0
#: Whole churn cycles (4 writes each) a run measures at least.
CHURN_CYCLES = 9
TRAIN_EPOCHS = 30
#: Read latencies and read_qps are medians over this many equal windows of
#: each server's share of the run.
WINDOWS = 2
#: A latency that never completed; JSON has no infinity.
NEVER_MS = 1e9


@dataclass(frozen=True)
class Scale:
    serve_nodes: int
    train_nodes: int
    bundle_epochs: int
    train_epochs: int
    server_setups: int
    min_writes: int
    churn_cycles: int
    warmup_reads: int


FULL = Scale(common.SERVE_NODES, common.TRAIN_NODES, common.BUNDLE_EPOCHS, TRAIN_EPOCHS,
             SERVER_SETUPS, MIN_WRITES, CHURN_CYCLES, 100)
SMOKE = Scale(120, 150, 2, 3, 1, 4, 1, 5)


# --------------------------------------------------------------------------- #
# Bundle and server processes
# --------------------------------------------------------------------------- #
def ensure_bundle(scale: Scale) -> Path:
    """The trained DHGNN serving bundle, built once per checkout and scale."""
    path = common.WORK / f"bundle-n{scale.serve_nodes}-e{scale.bundle_epochs}.npz"
    if path.exists():
        return path
    from repro import DHGNN, TrainConfig, Trainer

    common.WORK.mkdir(parents=True, exist_ok=True)
    data = common.dataset(scale.serve_nodes)
    model = DHGNN(data.n_features, data.n_classes, seed=0, **common.BUNDLE_MODEL)
    trainer = Trainer(
        model, data,
        TrainConfig(epochs=scale.bundle_epochs, patience=None, neighbor_backend="incremental"),
    )
    trainer.train()
    tmp = path.with_name("tmp-" + path.name)
    trainer.export_frozen(str(tmp))
    tmp.replace(path)
    return path


class Server:
    """One serving child process (``server_main.py``) and its control pipe."""

    def __init__(self, bundle: Path, workdir: Path, trace: bool) -> None:
        workdir.mkdir(parents=True)
        self.out = workdir / "server.json"
        args = [str(common.BENCH_DIR / "server_main.py"), "--bundle", str(bundle),
                "--workdir", str(workdir), "--out", str(self.out)]
        self.spawned = perf_counter()
        self.proc = common.spawn(args + (["--trace"] if trace else []),
                                 stdin=-1, stdout=-1, text=True)
        try:
            self.port = self._read_port()
            self.setup_s = self._await_health() - self.spawned
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            raise RuntimeError(f"server did not start (said {line!r})")
        return int(line.split()[1])

    def _await_health(self) -> float:
        async def probe() -> float:
            from loadgen import Connection

            conn = Connection(self.port)
            raw = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
            try:
                while perf_counter() - self.spawned < 120:
                    status, _ = await conn.request(raw)
                    if status == 200:
                        return perf_counter()
                    await asyncio.sleep(0.002)
            finally:
                await conn.close()
            raise RuntimeError("server never answered /healthz with 200")

        return asyncio.run(probe())

    def command(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def mark(self) -> None:
        """Start the measured phase once the server has snapshotted its counters."""
        self.command("mark")
        if self.proc.stdout.readline().strip() != "MARKED":
            raise RuntimeError("server did not acknowledge the start of the measured phase")

    def stop(self) -> dict:
        """Drain the server and return what it wrote (counters, RSS, spans)."""
        self.command("stop")
        self.proc.stdin.close()
        code = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #
async def _fetch_state(port: int) -> list:
    from loadgen import Connection

    conn = Connection(port)
    status, reply = await conn.post("/predict", {"nodes": None, "output": "logits"})
    await conn.close()
    if status != 200:
        raise RuntimeError(f"final-state read failed with HTTP {status}")
    return reply["result"]


async def _drive(workload: str, server: Server, index: int, seed: int, seconds: float,
                 scale: Scale) -> dict:
    """Warm up, mark, measure one server's share of the run.

    Returns the logs and everything the gate needs.  Each of the run's
    ``scale.server_setups`` servers measures an equal share of the run's
    time, writes and cycles, with request streams of its own.
    """
    import numpy as np

    import loadgen
    from loadgen import Connection, OpLog

    count = scale.server_setups
    seconds /= count
    n = scale.serve_nodes
    base = common.dataset(n).features
    port = server.port
    conns = [Connection(port), Connection(port)]
    reads, writes, warm = OpLog(), OpLog(), OpLog()
    acked: list = []
    samples: list = []
    lag: list = []
    busy: list = []
    rngs = [loadgen.stream_rng(seed, 2 * index + stream) for stream in range(2)]
    cap = MAX_MEASURE_S / count
    try:
        if workload == "read":
            await asyncio.gather(*(
                loadgen.read_loop(conn, rng, n, math.inf, warm, count=scale.warmup_reads)
                for conn, rng in zip(conns, rngs)
            ))
            server.mark()
            start = perf_counter()
            await asyncio.gather(*(
                loadgen.read_loop(conn, rng, n, start + seconds, reads, samples)
                for conn, rng in zip(conns, rngs)
            ))
            elapsed = perf_counter() - start
        elif workload == "write":
            parts = np.array_split(loadgen.stream_rng(seed, 9).permutation(n), 2)
            # One warm-up write per connection; it is acknowledged, so the
            # gate replays it too.
            for conn, rng, part in zip(conns, rngs, parts):
                target = warm.attempted + 1
                await loadgen.write_loop(conn, rng, base, part,
                                         lambda: warm.attempted >= target, warm, acked)
            server.mark()
            start = perf_counter()
            floor = len(acked) + math.ceil(scale.min_writes / count)

            def stop() -> bool:
                now = perf_counter() - start
                return now >= cap or (now >= seconds and len(acked) >= floor)

            await asyncio.gather(*(
                loadgen.write_loop(conn, rng, base, part, stop, writes, acked)
                for conn, rng, part in zip(conns, rngs, parts)
            ))
            elapsed = perf_counter() - start
        else:  # churn
            await loadgen.churn_writer(conns[0], rngs[0], base, 0.0, warm, acked, min_cycles=1)
            server.mark()
            start = perf_counter()
            ended: list[float] = []

            async def writer() -> None:
                await loadgen.churn_writer(conns[0], rngs[0], base, start + seconds, writes,
                                           acked, min_cycles=math.ceil(scale.churn_cycles / count),
                                           deadline=start + cap)
                ended.append(perf_counter())

            await asyncio.gather(
                writer(),
                loadgen.open_loop_reads(conns[1], rngs[1], n, CHURN_READ_RATE, start,
                                        lambda: bool(ended), reads, lag, busy),
            )
            elapsed = ended[0] - start
        state = await _fetch_state(port) if workload != "read" else None
    finally:
        for conn in conns:
            await conn.close()
    return {"reads": reads, "writes": writes, "warm": warm, "acked": acked,
            "samples": samples, "lag": lag, "busy": busy, "start": start,
            "elapsed": elapsed, "state": state}


def _ms(seconds: float) -> float:
    return min(seconds * 1e3, NEVER_MS)


def run_serving(workload: str, seed: int, seconds: float, trace: bool, scale: Scale,
                workdir: Path) -> dict:
    """Start the server ``scale.server_setups`` times; each measures its share.

    Spreading the measured phase over several server processes averages
    out what one process's memory layout does to its speed (Mytkowicz et
    al., ASPLOS 2009), which otherwise moves whole runs by several percent.
    """
    import gate

    from loadgen import OpLog

    bundle = ensure_bundle(scale)
    setups, parts = [], []
    for index in range(scale.server_setups):
        server = Server(bundle, workdir / f"server-{index}", trace)
        setups.append(server.setup_s)
        try:
            driven = asyncio.run(_drive(workload, server, index, seed, seconds, scale))
            served = server.stop()
        finally:
            server.kill()
        parts.append({"driven": driven, "served": served})

    checked = 0
    for part in parts:
        driven = part["driven"]
        if workload == "read":
            checked += gate.check_reads(bundle, driven["samples"])
        else:
            checked += gate.check_state(bundle, driven["acked"], driven["state"],
                                        refresh_each=workload == "churn")
    reads, writes, warm = OpLog(), OpLog(), OpLog()
    windows: list[list[float]] = []
    elapsed = 0.0
    for part in parts:
        driven = part["driven"]
        for pooled, log in ((reads, driven["reads"]), (writes, driven["writes"]),
                            (warm, driven["warm"])):
            pooled.pool(log)
        # Medians over equal time windows: a burst of interference from
        # outside the program moves one window, not the reported figure.
        start = driven["start"]
        windows += driven["reads"].windows(start, start + driven["elapsed"], WINDOWS)
        elapsed += driven["elapsed"]
    window_s = elapsed / len(windows)
    named = {"setup_s": (statistics.median(setups), "s"),
             "peak_rss_mb": (statistics.median(p["served"]["peak_rss_mb"] for p in parts), "MB")}
    if reads.attempted:
        for q, name in ((0.5, "read_p50_ms"), (0.9, "read_p90_ms"), (0.99, "read_p99_ms")):
            named[name] = (statistics.median(_ms(quantile(w, q)) for w in windows), "ms")
        if workload == "read":  # churn reads arrive at a fixed rate
            named["read_qps"] = (statistics.median(
                sum(map(math.isfinite, w)) / window_s for w in windows), "req/s")
    if writes.attempted:
        named["write_p50_ms"] = (_ms(quantile(writes.latencies, 0.5)), "ms")
        named["write_p90_ms"] = (_ms(quantile(writes.latencies, 0.9)), "ms")
        named["writes_per_s"] = (writes.succeeded / elapsed, "1/s")
    attempted = reads.attempted + writes.attempted
    ok = reads.succeeded + writes.succeeded
    named["failed_frac"] = ((attempted - ok) / max(attempted, 1), "1")
    # The reported tail is the p90 on every workload: on a shared two-core
    # virtual machine a read p99 mostly measures the machine's own pauses
    # (it more than doubled between runs of unchanged code while the p50
    # moved 10%).
    if workload == "read":
        ops, p50, tail = "read_qps", "read_p50_ms", "read_p90_ms"
    elif workload == "write":
        ops, p50, tail = "writes_per_s", "write_p50_ms", "write_p90_ms"
    else:
        ops, p50, tail = "writes_per_s", "read_p50_ms", "read_p90_ms"
    metrics = {
        "setup_s": named["setup_s"][0],
        "ops_per_s": named[ops][0],
        "p50_ms": named[p50][0],
        "tail_ms": named[tail][0],
        "peak_rss_mb": named["peak_rss_mb"][0],
        "ok_frac": ok / max(attempted, 1),
        "test_acc": statistics.fmean(
            _served_accuracy(bundle, part["driven"]["state"], scale) for part in parts
        ),
    }
    phases = {"warmup": warm, "read": reads, "write": writes}
    return {"metrics": metrics, "named": named, "phases": phases, "checked": checked,
            "attempted": attempted, "failed": attempted - ok, "parts": parts,
            "reads": reads, "writes": writes}


def _served_accuracy(bundle: Path, state, scale: Scale) -> float:
    """Test-split accuracy of the labels a server ends its share with."""
    import numpy as np

    data = common.dataset(scale.serve_nodes)
    if state is None:  # read-only run: the bundle's own answers
        import gate

        state = gate.replay(bundle, [], refresh_each=False)
    labels = np.argmax(np.asarray(state), axis=1)
    test = data.split.test
    return float((labels[test] == data.labels[test]).mean())


# --------------------------------------------------------------------------- #
# Training workload
# --------------------------------------------------------------------------- #
def run_train(seed: int, trace: bool, scale: Scale, workdir: Path) -> dict:
    """``Trainer.train`` for DHGCN, then DHGNN, each in a fresh process."""
    workdir.mkdir(parents=True)
    runs = {}
    setups = []
    for model in ("dhgcn", "dhgnn"):
        out = workdir / f"{model}.json"
        args = [str(common.BENCH_DIR / "train_main.py"), "--model", model,
                "--epochs", str(scale.train_epochs), "--nodes", str(scale.train_nodes),
                "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
        spawned = perf_counter()
        proc = common.spawn(args)
        try:
            code = proc.wait(timeout=170)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"training {model} exited with {code}")
        runs[model] = json.loads(out.read_text())
        setups.append(runs[model]["epoch_starts"][0] - spawned)
    epoch_ms: list[float] = []
    named: dict = {}
    for model, run in runs.items():
        bounds = run["epoch_starts"] + [run["train_end"]]
        epoch_ms += [(b - a) * 1e3 for a, b in zip(bounds, bounds[1:])]
        wall = run["train_end"] - run["train_start"]
        named[f"{model}_epoch_ms"] = (wall / run["epochs"] * 1e3, "ms")
        named[f"{model}_test_acc"] = (run["test_acc"], "1")
    epochs = sum(run["epochs"] for run in runs.values())
    wall = sum(run["train_end"] - run["train_start"] for run in runs.values())
    peak = max(run["peak_rss_mb"] for run in runs.values())
    named["setup_s"] = (statistics.median(setups), "s")
    named["peak_rss_mb"] = (peak, "MB")
    named["failed_frac"] = (0.0, "1")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": epochs / wall,
        "p50_ms": quantile(epoch_ms, 0.5),
        "tail_ms": quantile(epoch_ms, 0.9),
        "peak_rss_mb": peak,
        "ok_frac": 1.0,
        "test_acc": statistics.fmean(run["test_acc"] for run in runs.values()),
    }
    return {"metrics": metrics, "named": named, "phases": {}, "checked": 0,
            "attempted": epochs, "failed": 0, "runs": runs}


# --------------------------------------------------------------------------- #
# Per-layer table (traced run)
# --------------------------------------------------------------------------- #
#: Stages a write's ack latency splits into; their sum over the ack latency
#: is ``write.stage_coverage``.  Lock wait is the ack latency outside the
#: pool call; the pool's, publish's and refresh's own self time is uncovered.
WRITE_STAGES = {
    "wal": ["wal.append"],
    "mutate": ["session.mutate"],
    "knn": ["neighbors.query", "neighbors.update", "neighbors.insert", "neighbors.delete"],
    "construction": ["construction.knn_edges", "construction.union", "construction.kmeans",
                     "hypergraph.init"],
    "operator": ["refresh.operator", "laplacian.compactness"],
    "forward": ["frozen.apply_layer"],
    "fork": ["pool.fork"],
    "checkpoint": ["pool.to_frozen", "frozen.save", "store.save"],
}


def _delta(stop: dict, mark: dict, *keys) -> float:
    """``stop[keys] - mark[keys]`` for nested counters; 0 when absent."""
    a, b = stop, mark
    for key in keys:
        a = a.get(key, {}) if isinstance(a, dict) else {}
        b = b.get(key, {}) if isinstance(b, dict) else {}
    return float(a - b) if isinstance(a, (int, float)) and isinstance(b, (int, float)) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload: str, result: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did no work)."""
    from tracer import self_times

    out: dict[str, float] = {}
    table: dict = {}
    setup_table: dict = {}

    def merge(into: dict, rows: dict) -> None:
        for name, row in rows.items():
            merged = into.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                merged[key] += value

    counters: dict[str, float] = dict.fromkeys(
        ("full_rebuilds", "partial_refreshes", "rows_requeried", "distance_pairs",
         "hits", "misses", "batches", "requests", "checkpoint_bytes"), 0.0
    )
    if workload == "train":
        runs = result["runs"].values()
        for run in runs:
            merge(table, self_times(run["spans"], run["train_start"], run["train_end"]))
            for key in ("full_rebuilds", "partial_refreshes", "rows_requeried"):
                counters[key] += run["backend"].get(key, 0)
            counters["distance_pairs"] += run["distance_pairs"]
            for key in ("hits", "misses"):
                counters[key] += run["engine"].get(key, 0)
        read_lat = write_lat = []
        per_op = sum(run["epochs"] for run in runs)
    else:
        for part in result["parts"]:
            served = part["served"]
            mark, stop = served["mark"], served["stop"]
            merge(table, self_times(served["spans"], mark["t"], stop["t"]))
            merge(setup_table, self_times(served["spans"], 0.0, mark["t"]))
            for key in ("full_rebuilds", "partial_refreshes", "rows_requeried"):
                counters[key] += _delta(stop, mark, "backend", key)
            counters["distance_pairs"] += _delta(stop, mark, "distance_pairs")
            for key in ("hits", "misses"):
                counters[key] += _delta(stop, mark, "engine", key)
            for key in ("batches", "requests"):
                counters[key] += _delta(stop, mark, "batcher", key)
            counters["checkpoint_bytes"] += served["checkpoint_bytes"] / len(result["parts"])
        read_lat = [x for x in result["reads"].latencies if math.isfinite(x)]
        write_lat = [x for x in result["writes"].latencies if math.isfinite(x)]
        per_op = len(write_lat)
    reads, writes = len(read_lat), len(write_lat)
    servers = len(result.get("parts", ())) or 1

    def self_ms(*names, per=None) -> float:
        total = sum(table.get(name, {}).get("self_s", 0.0) for name in names)
        return _ratio(total * 1e3, per_op if per is None else per)

    def calls(name: str) -> float:
        return table.get(name, {}).get("calls", 0)

    # repro.serving.server front-end and MicroBatcher
    submit_s = table.get("batcher.submit", {}).get("total_s", 0.0)
    batch_s = table.get("session.predict_batch", {}).get("dur_x_size", 0.0)
    pool_s = table.get("pool.write", {}).get("total_s", 0.0)
    out["server.read_self_ms"] = _ratio((sum(read_lat) - submit_s) * 1e3, reads)
    out["server.write_lock_wait_ms"] = _ratio((sum(write_lat) - pool_s) * 1e3, writes)
    out["batcher.wait_ms"] = _ratio((submit_s - batch_s) * 1e3, reads)
    out["batcher.batch_size_mean"] = _ratio(counters["requests"], counters["batches"])
    out["batcher.batches"] = _ratio(counters["batches"], reads)
    # SessionPool, WAL, session
    out["pool.publish_ms"] = self_ms("pool.publish")
    out["pool.fork_ms"] = self_ms("pool.fork")
    out["pool.checkpoint_ms"] = self_ms(*WRITE_STAGES["checkpoint"])
    out["pool.checkpoints_per_write"] = _ratio(calls("pool.to_frozen"), writes)
    out["checkpoint.mb"] = counters["checkpoint_bytes"] / 2**20
    out["wal.append_ms"] = self_ms("wal.append")
    out["wal.kb_per_write"] = _ratio(table.get("wal.append", {}).get("size", 0) / 1024, writes)
    out["session.predict_batch_ms"] = self_ms("session.predict_batch", per=reads)
    out["session.refresh_ms"] = self_ms("session.refresh")
    out["session.mutate_ms"] = self_ms("session.mutate")
    # repro.hypergraph.neighbors + knn
    for stage in ("query", "update", "insert", "delete"):
        out[f"neighbors.{stage}_ms"] = self_ms(f"neighbors.{stage}")
    out["neighbors.full_rebuilds"] = _ratio(counters["full_rebuilds"], per_op)
    out["neighbors.rows_requeried"] = _ratio(counters["rows_requeried"], per_op)
    out["knn.distance_pairs"] = _ratio(counters["distance_pairs"], per_op)
    out["neighbors.scoped_ratio"] = _ratio(
        counters["partial_refreshes"], counters["partial_refreshes"] + counters["full_rebuilds"]
    )
    # repro.hypergraph.construction + hypergraph
    out["construction.knn_edges_ms"] = self_ms("construction.knn_edges")
    out["construction.union_ms"] = self_ms("construction.union")
    out["construction.kmeans_ms"] = self_ms("construction.kmeans")
    out["hypergraph.init_ms"] = self_ms("hypergraph.init")
    out["hypergraph.constructed"] = _ratio(calls("hypergraph.init"), per_op)
    # repro.hypergraph.refresh + laplacian
    out["refresh.operator_ms"] = self_ms("refresh.operator")
    out["laplacian.compactness_ms"] = self_ms("laplacian.compactness")
    out["refresh.cache_hit_ratio"] = _ratio(counters["hits"], counters["hits"] + counters["misses"])
    # repro.serving.frozen + store
    out["frozen.apply_layer_ms"] = self_ms("frozen.apply_layer")
    out["frozen.save_ms"] = self_ms("frozen.save")
    out["store.save_ms"] = self_ms("store.save")
    out["frozen.load_ms"] = (
        setup_table.get("frozen.load", {}).get("total_s", 0.0) * 1e3 / servers
    )
    # repro.training / core / models / autograd / optim (per epoch)
    train_per = per_op if workload == "train" else 0
    out["trainer.forward_ms"] = self_ms("trainer.forward", per=train_per)
    out["autograd.backward_ms"] = self_ms("autograd.backward", per=train_per)
    out["optim.step_ms"] = self_ms("optim.step", per=train_per)
    out["trainer.evaluate_ms"] = self_ms("trainer.evaluate", per=train_per)
    out["builder.build_hypergraph_ms"] = self_ms("builder.build_hypergraph", per=train_per)
    out["builder.build_operator_ms"] = self_ms("builder.build_operator", per=train_per)
    out["trainer.refreshes"] = _ratio(calls("construction.union"), train_per)
    # load generator
    for name, key in (("loadgen.lag_p99_ms", "lag"), ("loadgen.conn_busy_p99_ms", "busy")):
        waits = [w for part in result.get("parts", ()) for w in part["driven"][key]]
        out[name] = quantile(waits, 0.99) * 1e3 if waits else 0.0
    # Share of a write's ack latency the named stages cover.
    covered = out["server.write_lock_wait_ms"] + sum(
        self_ms(*names) for names in WRITE_STAGES.values()
    )
    out["write.stage_coverage"] = _ratio(covered * writes, sum(write_lat) * 1e3)
    return out


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_once(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> dict:
    workdir = common.WORK / f"run-{workload}-{seed}-{int(trace)}-{time.time_ns()}"
    try:
        if workload == "train":
            return run_train(seed, trace, scale, workdir)
        return run_serving(workload, seed, seconds, trace, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(workload: str, label: str, result: dict) -> None:
    """Human-readable lines: the named end-to-end metrics and the phase counts."""
    print(f"# {workload} ({label})")
    for name, (value, unit) in result["named"].items():
        print(f"  {name:<16} {value:12.4f} {unit}")
    for phase, log in result["phases"].items():
        if log.attempted:
            print(f"  phase {phase:<7} attempted {log.attempted} succeeded {log.succeeded} "
                  f"failed {log.failed} refused {log.refused}")
    print(f"  gate: {result['checked']} answers checked bit for bit")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny populations and runs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {common.SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import gate

    scale = SMOKE if args.smoke else FULL
    try:
        result = run_once(args.workload, args.seed, args.seconds, False, scale)
        _report(args.workload, "untraced", result)
        if args.trace:
            traced = run_once(args.workload, args.seed, args.seconds, True, scale)
            _report(args.workload, "traced", traced)
            children = [p["served"] for p in traced.get("parts", ())]
            missing = sorted({where for child in children + list(traced.get("runs", {}).values())
                              for where in child["missing"]})
            if missing:
                print("  not in the program (their metrics read 0): " + ", ".join(missing))
            metrics = layer_metrics(args.workload, traced)
            for name, value in result["metrics"].items():
                metrics[f"trace_overhead.{name}"] = _ratio(
                    traced["metrics"][name] - value, value
                )
            units = LAYER_UNITS
            print(f"# {args.workload} per layer")
            for name, value in metrics.items():
                print(f"  {name:<32} {value:14.4f} {units[name]}")
        else:
            metrics = result["metrics"]
            units = E2E_UNITS
    except gate.GateError as error:
        print(f"perfbench: correctness gate failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "1", "test_acc": "1",
}
LAYER_UNITS = {
    **{name: "ms" for name in (
        "server.read_self_ms", "server.write_lock_wait_ms", "batcher.wait_ms",
        "pool.publish_ms", "pool.fork_ms", "pool.checkpoint_ms", "wal.append_ms",
        "session.predict_batch_ms", "session.refresh_ms", "session.mutate_ms",
        "neighbors.query_ms", "neighbors.update_ms", "neighbors.insert_ms",
        "neighbors.delete_ms", "construction.knn_edges_ms", "construction.union_ms",
        "construction.kmeans_ms", "hypergraph.init_ms", "refresh.operator_ms",
        "laplacian.compactness_ms", "frozen.apply_layer_ms", "frozen.save_ms",
        "store.save_ms", "frozen.load_ms", "trainer.forward_ms", "autograd.backward_ms",
        "optim.step_ms", "trainer.evaluate_ms", "builder.build_hypergraph_ms",
        "builder.build_operator_ms", "loadgen.lag_p99_ms", "loadgen.conn_busy_p99_ms",
    )},
    **{name: "count" for name in (
        "batcher.batches", "pool.checkpoints_per_write", "neighbors.full_rebuilds",
        "neighbors.rows_requeried", "knn.distance_pairs", "hypergraph.constructed",
        "trainer.refreshes",
    )},
    **{name: "1" for name in (
        "batcher.batch_size_mean", "neighbors.scoped_ratio", "refresh.cache_hit_ratio",
        "write.stage_coverage",
    )},
    "checkpoint.mb": "MB",
    "wal.kb_per_write": "KB",
    **{f"trace_overhead.{name}": "1" for name in E2E_UNITS},
}


if __name__ == "__main__":
    sys.exit(main())
