"""Command-line interface.

Seven sub-commands mirror the common workflows::

    python -m repro.cli datasets
    python -m repro.cli train   --dataset cora-cocitation --model dhgcn --epochs 150
    python -m repro.cli compare --datasets cora-cocitation citeseer-cocitation \
                                --models gcn hgnn dhgcn --seeds 2
    python -m repro.cli export  --dataset cora-cocitation --model dhgnn \
                                --epochs 150 --out bundle.npz
    python -m repro.cli predict --bundle bundle.npz --nodes 0 5 42 --output labels
    python -m repro.cli serve   --bundle bundle.npz --port 8100
    python -m repro.cli stats   http://127.0.0.1:8100

``export`` trains a dynamic-topology model and writes a serving bundle
(weights + resolved operators + incremental neighbour state, see
:mod:`repro.serving`); ``predict`` answers queries from such a bundle without
touching the training stack — a warm start performs zero k-NN distance
computations — and exercises the online node lifecycle (``--delete`` to
tombstone nodes, ``--compact`` to shrink the state and re-number ids,
``--reassign-clusters`` to refresh the cluster hyperedge memberships).
``serve`` exposes a bundle over asyncio HTTP/JSON
(:mod:`repro.serving.server`): ``POST /predict`` is answered inline from the
current published generation (one immutable forward), writes
(``/insert``, ``/update``, ``/delete``, ``/compact``, ``/reassign``)
serialise through a single writer session and republish, and a cap on the
requests in flight sheds overload with HTTP 429.
``stats`` polls a running server's ``GET /stats`` and pretty-prints the
telemetry, pool counters and latency percentiles (``--json`` passes
the raw payload through); the server side exposes the same numbers as a
Prometheus text exposition on ``GET /metrics``.

The CLI intentionally stays thin: every command is a few calls into the public
API, so scripts and notebooks can do exactly the same things programmatically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import (
    DHGCN,
    DHGCNConfig,
    DHGNN,
    GAT,
    GCN,
    HGNN,
    MLP,
    HyperGCN,
    TrainConfig,
    Trainer,
    available_datasets,
    compare_methods,
    get_dataset,
)
from repro.models import SGC, ChebNet, HGNNP

MODEL_REGISTRY: dict[str, Callable] = {
    "mlp": lambda ds, seed, hidden: MLP(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "sgc": lambda ds, seed, hidden: SGC(ds.n_features, ds.n_classes, seed=seed),
    "gcn": lambda ds, seed, hidden: GCN(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "chebnet": lambda ds, seed, hidden: ChebNet(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "gat": lambda ds, seed, hidden: GAT(ds.n_features, ds.n_classes, seed=seed),
    "hgnn": lambda ds, seed, hidden: HGNN(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "hgnnp": lambda ds, seed, hidden: HGNNP(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "hypergcn": lambda ds, seed, hidden: HyperGCN(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "dhgnn": lambda ds, seed, hidden: DHGNN(ds.n_features, ds.n_classes, hidden_dim=hidden, seed=seed),
    "dhgcn": lambda ds, seed, hidden: DHGCN(
        ds.n_features, ds.n_classes, DHGCNConfig(hidden_dim=hidden), seed=seed
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the registered benchmark datasets")

    train = subparsers.add_parser("train", help="train one model on one dataset")
    train.add_argument("--dataset", required=True, help="registered dataset name")
    train.add_argument("--model", required=True, choices=sorted(MODEL_REGISTRY), help="model name")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--weight-decay", type=float, default=5e-4)
    train.add_argument("--hidden-dim", type=int, default=32)
    train.add_argument("--patience", type=int, default=50)
    train.add_argument("--nodes", type=int, default=None, help="override dataset size")
    train.add_argument(
        "--precision",
        choices=("float64", "float32"),
        default="float64",
        help="floating-point policy: float64 (bit-exact) or float32 (fast path)",
    )
    train.add_argument(
        "--profile",
        action="store_true",
        help="record per-op timings and print the hottest ops after training",
    )

    compare = subparsers.add_parser("compare", help="compare several models on several datasets")
    compare.add_argument("--datasets", nargs="+", required=True)
    compare.add_argument("--models", nargs="+", required=True, choices=sorted(MODEL_REGISTRY))
    compare.add_argument("--seeds", type=int, default=2, help="number of seeds per cell")
    compare.add_argument("--epochs", type=int, default=100)
    compare.add_argument("--hidden-dim", type=int, default=32)
    compare.add_argument("--nodes", type=int, default=None, help="override dataset size")
    compare.add_argument(
        "--precision",
        choices=("float64", "float32"),
        default="float64",
        help="floating-point policy for every training run",
    )

    export = subparsers.add_parser(
        "export", help="train a dynamic model and write a serving bundle"
    )
    export.add_argument("--dataset", required=True, help="registered dataset name")
    export.add_argument(
        "--model",
        required=True,
        choices=("dhgnn", "dhgcn"),
        help="bundleable dynamic-topology model",
    )
    export.add_argument("--out", required=True, help="bundle path (.npz)")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--epochs", type=int, default=200)
    export.add_argument("--lr", type=float, default=0.01)
    export.add_argument("--weight-decay", type=float, default=5e-4)
    export.add_argument("--hidden-dim", type=int, default=32)
    export.add_argument("--patience", type=int, default=50)
    export.add_argument("--nodes", type=int, default=None, help="override dataset size")
    export.add_argument(
        "--precision", choices=("float64", "float32"), default="float64"
    )
    export.add_argument(
        "--result", default=None, help="also save the TrainResult as JSON here"
    )

    predict = subparsers.add_parser(
        "predict", help="answer queries from a serving bundle"
    )
    predict.add_argument("--bundle", required=True, help="bundle written by export")
    predict.add_argument(
        "--nodes", type=int, nargs="*", default=None, help="node ids (default: all)"
    )
    predict.add_argument(
        "--output", choices=("labels", "logits", "embeddings"), default="labels"
    )
    predict.add_argument(
        "--delete", type=int, nargs="+", default=None,
        help="tombstone these node ids before answering (they leave every "
        "hyperedge; deleted ids can no longer be queried)",
    )
    predict.add_argument(
        "--compact", action="store_true",
        help="after --delete, rebuild the dense state without the tombstoned "
        "rows (re-numbers the surviving ids in ascending order and prints a "
        "one-line summary to stderr; programmatic callers get the full "
        "old->new remap from InferenceSession.compact())",
    )
    predict.add_argument(
        "--reassign-clusters", action="store_true",
        help="run one nearest-centroid re-assignment of the k-means cluster "
        "hyperedges before answering (bounds frozen-membership staleness)",
    )
    predict.add_argument(
        "--stats", action="store_true", help="print session statistics"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a bundle over HTTP: reads answered inline from the "
        "current published generation, writes through one writer",
    )
    serve.add_argument("--bundle", required=True, help="bundle written by export")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100, help="0 picks a free port")
    serve.add_argument(
        "--max-queue-depth", type=int, default=1024,
        help="admission control: requests in flight beyond this are rejected "
        "with HTTP 429 instead of queueing without bound",
    )
    serve.add_argument(
        "--checkpoint", default=None,
        help="after every write, atomically persist the published generation "
        "as a warm-start bundle at this path (skipped while tombstones are "
        "pending; compact to resume); on restart an existing checkpoint is "
        "preferred over --bundle",
    )
    serve.add_argument(
        "--wal", default=None,
        help="write-ahead log path: every mutation is fsync'd here before it "
        "is applied, and recovery replays the journal suffix on top of the "
        "last checkpoint — a crash between checkpoints loses nothing",
    )
    serve.add_argument(
        "--no-wal-fsync", action="store_true",
        help="skip the per-record fsync (faster writes, last records may be "
        "lost on an OS crash; process crashes still recover fully)",
    )
    serve.add_argument(
        "--write-timeout-s", type=float, default=120.0,
        help="per-request write deadline; expiry answers HTTP 504 and "
        "quarantines the writer into read-only degraded mode (0 disables)",
    )
    serve.add_argument(
        "--faults", default=None,
        help="fault-injection spec 'point=action[,point=action...]' with "
        "actions crash / raise / delay:<s>, optionally @N for the Nth hit "
        "(chaos testing; see repro.serving.faults)",
    )
    serve.add_argument(
        "--cluster-assignment", choices=("nearest", "frozen"), default="nearest",
        help="cluster policy for nodes inserted through POST /insert",
    )
    serve.add_argument(
        "--trace-sample-rate", type=float, default=0.0,
        help="fraction of requests whose per-stage span breakdown is emitted "
        "as a structured JSON trace log line (0 disables sampling; slow "
        "requests above --slow-ms are always logged)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None,
        help="requests slower than this always emit a trace log line, "
        "regardless of the sample rate",
    )
    serve.add_argument(
        "--profile", action="store_true",
        help="attach an op profiler to the serving path; per-op forward "
        "totals appear in GET /metrics as repro_op_seconds_total{op=...} "
        "and in GET /stats under 'profile'",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry entirely (GET /metrics serves an "
        "empty exposition; counters/histograms become no-ops)",
    )

    stats = subparsers.add_parser(
        "stats", help="fetch and pretty-print GET /stats from a running server"
    )
    stats.add_argument(
        "url", help="server base URL, e.g. http://127.0.0.1:8100 "
        "(a full /stats URL also works)",
    )
    stats.add_argument(
        "--json", action="store_true", dest="raw_json",
        help="print the raw JSON payload instead of the summary tables",
    )
    stats.add_argument(
        "--timeout", type=float, default=5.0, help="HTTP timeout in seconds"
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the project-invariant AST linter (see docs/lint-rules.md)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: src/repro and benchmarks "
        "next to the installed package)",
    )
    lint.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore", default=None, help="comma-separated rule ids to skip"
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output format",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file absorbing pre-existing findings",
    )
    lint.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        help="write the current findings to PATH as a baseline and exit 0",
    )
    return parser


def _command_datasets() -> int:
    for name in available_datasets():
        print(name)
    return 0


def _command_train(args: argparse.Namespace) -> int:
    overrides = {"n_nodes": args.nodes} if args.nodes else {}
    dataset = get_dataset(args.dataset, seed=args.seed, **overrides)
    model = MODEL_REGISTRY[args.model](dataset, args.seed, args.hidden_dim)
    config = TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        patience=args.patience if args.patience > 0 else None,
        precision=args.precision,
    )
    result = Trainer(model, dataset, config, profile=args.profile).train()
    print(f"dataset          : {dataset.name} ({dataset.n_nodes} nodes)")
    print(f"model            : {args.model} ({result.n_parameters} parameters)")
    print(f"precision        : {config.precision}")
    print(f"best val accuracy: {result.best_val_accuracy:.4f} (epoch {result.best_epoch})")
    print(f"test accuracy    : {result.test_accuracy:.4f}")
    print(f"test macro-F1    : {result.test_macro_f1:.4f}")
    print(f"train time       : {result.train_time:.1f}s "
          f"({result.mean_epoch_time * 1000:.1f} ms/epoch)")
    profile = result.extras.get("profile")
    if profile:
        print(f"profiled op time : {profile['op_seconds']:.3f}s "
              f"({profile['coverage'] * 100:.1f}% of epoch wall-clock)")
        print("hottest ops      :")
        for row in profile["ops"][:8]:
            print(f"  {row['op']:<16} {row['total_seconds'] * 1000:8.1f} ms "
                  f"({row['calls']} fwd / {row['backward_calls']} bwd, "
                  f"{row['total_bytes'] / 1e6:.1f} MB)")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    overrides = {"n_nodes": args.nodes} if args.nodes else {}
    methods = {
        name: (lambda ds, seed, n=name: MODEL_REGISTRY[n](ds, seed, args.hidden_dim))
        for name in args.models
    }
    datasets = {
        name: (lambda seed, n=name: get_dataset(n, seed=seed, **overrides))
        for name in args.datasets
    }
    table, _ = compare_methods(
        methods,
        datasets,
        n_seeds=args.seeds,
        train_config=TrainConfig(
            epochs=args.epochs,
            patience=None,
            precision=args.precision,
        ),
        title="repro compare",
    )
    print()
    print(table.to_markdown())
    return 0


def _command_export(args: argparse.Namespace) -> int:
    overrides = {"n_nodes": args.nodes} if args.nodes else {}
    dataset = get_dataset(args.dataset, seed=args.seed, **overrides)
    model = MODEL_REGISTRY[args.model](dataset, args.seed, args.hidden_dim)
    config = TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        patience=args.patience if args.patience > 0 else None,
        precision=args.precision,
    )
    trainer = Trainer(model, dataset, config)
    result = trainer.train()
    trainer.export_frozen(args.out)
    if args.result:
        result.save(args.result)
    print(f"dataset      : {dataset.name} ({dataset.n_nodes} nodes)")
    print(f"model        : {args.model} ({result.n_parameters} parameters)")
    print(f"test accuracy: {result.test_accuracy:.4f}")
    print(f"bundle       : {args.out}")
    if args.result:
        print(f"result       : {args.result}")
    return 0


def _command_predict(args: argparse.Namespace) -> int:
    from repro.serving import FrozenModel, InferenceSession

    from repro.errors import ConfigurationError

    session = InferenceSession(FrozenModel.load(args.bundle))
    query_nodes = args.nodes
    if args.delete:
        session.delete_nodes(args.delete)
    if args.compact:
        remap = session.compact()
        dropped = int((remap < 0).sum())
        print(f"# compacted to {session.n_nodes} nodes ({dropped} removed; "
              f"surviving ids renumbered 0..{session.n_nodes - 1})",
              file=sys.stderr)
        if query_nodes:
            # --nodes stays in the pre-compact id space the user typed;
            # translate through the remap (deleted ids cannot be queried).
            requested = np.asarray(query_nodes, dtype=np.int64)
            if requested.min() < 0 or requested.max() >= remap.size:
                raise ConfigurationError(
                    f"node ids must be in [0, {remap.size}), got {query_nodes}"
                )
            mapped = remap[requested]
            dead = requested[mapped < 0]
            if dead.size:
                raise ConfigurationError(
                    f"nodes {dead.tolist()} have already been deleted"
                )
            query_nodes = mapped.tolist()
    if args.reassign_clusters:
        moves = session.reassign_clusters()
        print(f"# reassigned clusters: {moves} membership moves", file=sys.stderr)
    values = session.predict(query_nodes if query_nodes else None, output=args.output)
    # Echo the ids the user asked with (pre-compact space for --nodes).
    ids = args.nodes if args.nodes else session.alive_ids
    if args.output == "labels":
        for node, label in zip(ids, np.atleast_1d(values)):
            print(f"{node}\t{int(label)}")
    elif session.n_alive != session.n_nodes:
        # Tombstones break the row-i-is-node-i convention, so rows carry
        # their node id explicitly.
        for node, row in zip(ids, np.atleast_2d(values)):
            print(f"{node}\t" + "\t".join(f"{value:.6g}" for value in row))
    else:
        for row in np.atleast_2d(values):
            print("\t".join(f"{value:.6g}" for value in row))
    if args.stats:
        print(f"# stats: {session.stats()}", file=sys.stderr)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serving.faults import configure_faults
    from repro.serving.server import ServerConfig, ServingServer

    if args.faults:
        configure_faults(args.faults)
    if args.no_metrics:
        # A disabled registry makes every instrument a no-op and renders an
        # empty exposition — the cheapest way to opt out process-wide.
        from repro.obs import MetricsRegistry, set_registry

        set_registry(MetricsRegistry(enabled=False))
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_queue_depth=args.max_queue_depth,
        checkpoint_path=args.checkpoint,
        wal_path=args.wal,
        wal_fsync=not args.no_wal_fsync,
        write_timeout_s=args.write_timeout_s or None,
        cluster_assignment=args.cluster_assignment,
        trace_sample_rate=args.trace_sample_rate,
        slow_ms=args.slow_ms,
        profile=args.profile,
    )

    async def run() -> None:
        # The server prefers an existing --checkpoint bundle over --bundle
        # (warm restart) and replays any pending WAL records on top of it.
        server = ServingServer(args.bundle, config)
        if server.recovered:
            print(
                f"recovered {server.recovered} journalled mutation(s) from "
                f"{config.wal_path}",
                file=sys.stderr,
            )
        await server.start()
        print(
            f"serving {args.bundle} on http://{config.host}:{server.port} "
            f"(at most {config.max_queue_depth} requests in flight)",
            file=sys.stderr,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining...", file=sys.stderr)
            await server.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _fetch_stats(url: str, timeout: float) -> dict:
    """GET ``<url>/stats`` (or ``url`` verbatim if it already ends in /stats)."""
    import json
    import urllib.request

    target = url.rstrip("/")
    if not target.endswith("/stats"):
        target += "/stats"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def _print_kv_block(title: str, rows: dict) -> None:
    print(title)
    width = max((len(key) for key in rows), default=0)
    for key, value in rows.items():
        print(f"  {key:<{width}} : {value}")


def _command_stats(args: argparse.Namespace) -> int:
    import json

    payload = _fetch_stats(args.url, args.timeout)
    if args.raw_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    telemetry = payload.get("telemetry", {})
    _print_kv_block(f"server ({payload.get('status', '?')})", {
        "uptime_s": telemetry.get("uptime_s"),
        "generation": telemetry.get("generation"),
        "n_alive": telemetry.get("n_alive"),
        "connections": payload.get("connections"),
        "queue_depth": telemetry.get("queue_depth"),
        "wal_depth": telemetry.get("wal_depth"),
        "last_checkpoint_age_s": telemetry.get("last_checkpoint_age_s"),
        "recovered_mutations": telemetry.get("recovered_mutations"),
    })

    pool = payload.get("pool", {})
    if pool:
        print()
        _print_kv_block("pool", {
            "checkpoints": pool.get("checkpoints"),
            "last_seq": pool.get("last_seq"),
            "failure": pool.get("failure"),
        })
        for row in pool.get("writer", {}).get("neighbors", []):
            print()
            _print_kv_block(
                f"k-NN index, layer {row['layer']}",
                {key: value for key, value in row.items() if key != "layer"},
            )

    metrics = payload.get("metrics", {})
    histograms = metrics.get("histograms", {})
    latency_rows = []
    for name, entry in sorted(histograms.items()):
        for row in entry.get("values", []):
            labels = row.get("labels") or {}
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels else ""
            )
            count = row.get("count", 0)
            if not count:
                continue
            latency_rows.append((
                name + suffix, count,
                row.get("p50"), row.get("p95"), row.get("p99"),
            ))
    if latency_rows:
        print()
        print("latency (seconds)")
        width = max(len(row[0]) for row in latency_rows)
        print(f"  {'metric':<{width}} {'count':>8} {'p50':>10} {'p95':>10} {'p99':>10}")
        for name, count, p50, p95, p99 in latency_rows:
            quantiles = "".join(
                f" {q:>10.6f}" if isinstance(q, (int, float)) else f" {'-':>10}"
                for q in (p50, p95, p99)
            )
            print(f"  {name:<{width}} {count:>8}{quantiles}")

    counters = metrics.get("counters", {})
    requests_entry = counters.get("repro_requests_total")
    if requests_entry and requests_entry.get("values"):
        print()
        print("requests")
        for row in requests_entry["values"]:
            labels = row.get("labels", {})
            value = row.get("value")
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            print(f"  {labels.get('route', '?'):<12} "
                  f"status={labels.get('status', '?'):<4} "
                  f"{value}")

    profile = payload.get("profile")
    if profile:
        print()
        print("profile (hottest ops)")
        for row in profile[:8]:
            print(f"  {row['op']:<16} {row['total_seconds'] * 1000:8.1f} ms "
                  f"({row['calls']} calls)")
    return 0


def _default_lint_paths() -> list[str]:
    """Lint the source tree and benchmarks next to the installed package."""
    import repro

    package_root = Path(repro.__file__).resolve().parent  # .../src/repro
    paths = [str(package_root)]
    benchmarks = package_root.parent.parent / "benchmarks"
    if benchmarks.is_dir():
        paths.append(str(benchmarks))
    return paths


def _command_lint(args: argparse.Namespace) -> int:
    """Run the rule pack; exit 0 when clean, 1 on findings, 2 on bad usage."""
    from repro.analysis.lint import (
        LintError,
        format_findings,
        load_baseline,
        run_lint,
        write_baseline,
    )
    from repro.analysis.rules import all_rules

    rules = all_rules()
    try:
        findings = run_lint(
            args.paths or _default_lint_paths(),
            rules,
            select=args.select.split(",") if args.select else None,
            ignore=args.ignore.split(",") if args.ignore else None,
            baseline=load_baseline(args.baseline) if args.baseline else None,
        )
    except LintError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(
            f"repro lint: wrote {len(findings)} finding(s) to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    print(format_findings(findings, fmt=args.fmt, rules=rules))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _command_datasets()
    if args.command == "train":
        return _command_train(args)
    if args.command == "compare":
        return _command_compare(args)
    if args.command == "export":
        return _command_export(args)
    if args.command == "predict":
        return _command_predict(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "lint":
        return _command_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
