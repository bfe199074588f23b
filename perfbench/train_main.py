"""Training child: one ``Trainer.train`` run in a fresh process.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/train_main.py --model dhgcn|dhgnn --epochs E [--nodes N] --seed S --out R.json [--trace]

Writes ``--out`` with the ``perf_counter`` time the first epoch started
(``CLOCK_MONOTONIC``, so the parent can subtract its spawn time), the start
time of every epoch, the ``Trainer.train`` wall time, the final test
accuracy, the peak RSS, backend counters and — with ``--trace`` — spans.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import TRAIN_NODES, dataset, peak_rss_mb, write_json  # noqa: E402


def build_model(name: str, data, seed: int):
    """DHGCN with ``DHGCNConfig()`` defaults, or DHGNN (3 layers, hidden 16, k=4)."""
    if name == "dhgcn":
        from repro.core import DHGCN, DHGCNConfig

        return DHGCN(data.n_features, data.n_classes, DHGCNConfig(), seed=seed)
    from repro.models.dhgnn import DHGNN

    return DHGNN(
        data.n_features, data.n_classes, hidden_dim=16, n_layers=3, k_neighbors=4, seed=seed
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", choices=("dhgcn", "dhgnn"), required=True)
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--nodes", type=int, default=TRAIN_NODES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from repro.training import TrainConfig, Trainer

    data = dataset(args.nodes)
    model = build_model(args.model, data, args.seed)
    trainer = Trainer(model, data, TrainConfig(epochs=args.epochs, patience=None))

    epoch_starts: list[float] = []
    on_epoch = model.on_epoch

    def timed_on_epoch(epoch: int) -> None:
        epoch_starts.append(time.perf_counter())
        on_epoch(epoch)

    model.on_epoch = timed_on_epoch
    start = time.perf_counter()
    result = trainer.train()
    end = time.perf_counter()
    engine = getattr(model, "refresh_engine", None) or getattr(
        getattr(model, "builder", None), "engine", None
    )
    backend_stats = getattr(getattr(engine, "backend", None), "stats", None)
    try:
        from repro.hypergraph.knn import DISTANCE_COUNTERS

        pairs = DISTANCE_COUNTERS.pairs
    except ImportError:
        pairs = 0
    out = {
        "epoch_starts": epoch_starts,
        "train_start": start,
        "train_end": end,
        "epochs": result.epochs_run,
        "test_acc": result.test_accuracy,
        "peak_rss_mb": peak_rss_mb(),
        "backend": backend_stats() if callable(backend_stats) else {},
        "engine": engine.stats() if engine is not None else {},
        "distance_pairs": pairs,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
    write_json(Path(args.out), out)


if __name__ == "__main__":
    main()
