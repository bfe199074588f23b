"""Benchmark of the serving subsystem (``repro.serving``).

Three measurements, each emitted as a table artefact:

* **frozen vs. eval forward** — per-request full-batch forward latency of the
  compiled :class:`FrozenModel` against the module's grad-enabled evaluation
  forward (autograd graph recording on) and the trainer's no-grad eval.  The
  frozen model runs the model's own per-layer step on its copies of the
  trained layers, without dropout, topology checks or graph recording, so
  its logits are bit-identical (asserted) and the columns differ by that
  overhead only.
* **warm vs. cold start** — first-prediction latency of a server process:
  cold = rebuild the model from weights (topology construction, k-NN +
  k-means + operators) vs. warm = load an operator-store bundle.  The warm
  path must perform **zero** k-NN distance computations.
* **online insert vs. full rebuild** — refreshing after inserting 4% new
  nodes through each layer index's grow-and-repair vs. a session whose
  indices were reset (every layer's k-NN rebuilt cold); compared in
  wall-clock and in distance pairs computed.
* **online delete + compact vs. full rebuild** — tombstoning 4% of the nodes
  through each layer index's shrink-and-repair vs. a cold-rebuild session,
  again in wall-clock and distance pairs; plus the memory side of
  compaction: ``compact()`` must shrink both the dense feature matrix and
  the bytes of the plan's propagation operators.

Run standalone (``PYTHONPATH=src python benchmarks/bench_inference.py``);
``REPRO_BENCH_QUICK=1`` selects the CI smoke configuration.  Acceptance bars:

* frozen logits are bit-identical to the module's evaluation forward;
* warm start computes zero k-NN distance pairs;
* online insertion computes fewer distance pairs than the exact rebuild;
* online deletion computes fewer distance pairs than the exact rebuild, and
  ``compact()`` strictly decreases feature and operator bytes.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import emit  # noqa: E402

from repro import DHGNN, TrainConfig, Trainer  # noqa: E402
from repro.autograd.tensor import Tensor, no_grad  # noqa: E402
from repro.data.citation import make_citation_dataset  # noqa: E402
from repro.hypergraph.knn import DISTANCE_COUNTERS  # noqa: E402
from repro.serving import FrozenModel, InferenceSession  # noqa: E402
from repro.training.results import ResultTable  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Node counts of every section.
SIZES = [120, 240] if QUICK else [120, 240, 600, 1200]
N_LAYERS = 3
HIDDEN = 16
EPOCHS = 4 if QUICK else 10
REPS = 60 if QUICK else 200
INSERT_FRACTION = 0.04
DELETE_FRACTION = 0.04


def _dataset(n: int):
    return make_citation_dataset(
        "bench-serving",
        n_nodes=n,
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


def _train_model(dataset):
    model = DHGNN(
        dataset.n_features, dataset.n_classes, hidden_dim=HIDDEN, n_layers=N_LAYERS, seed=0
    )
    trainer = Trainer(model, dataset, TrainConfig(epochs=EPOCHS, patience=None))
    trainer.train()
    return model, trainer


def _reset_indices(session) -> None:
    """Drop every layer's k-NN state: the next refresh rebuilds cold."""
    for slot in session.plan.slots:
        slot.index.reset()


def _operator_bytes(session) -> int:
    return sum(
        op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        for op in session.plan.operators
    )


def _time(fn, reps=REPS) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps


def bench_forward() -> ResultTable:
    table = ResultTable(
        ["n nodes", "grad eval (ms)", "no-grad eval (ms)", "frozen (ms)",
         "frozen vs grad", "bit-identical"],
        title=f"Serving: frozen vs eval forward (DHGNN, {N_LAYERS} layers, h={HIDDEN})",
    )
    for n in SIZES:
        dataset = _dataset(n)
        model, _ = _train_model(dataset)
        frozen = FrozenModel.compile(model, dataset.features)
        features = Tensor(dataset.features)
        model.eval()

        grad_s = _time(lambda: model(features))
        with no_grad():
            nograd_s = _time(lambda: model(features))
        frozen_s = _time(lambda: frozen.forward())
        identical = np.array_equal(frozen.logits(), model(features).data)
        table.add_row(
            [n, round(grad_s * 1e3, 3), round(nograd_s * 1e3, 3),
             round(frozen_s * 1e3, 3), f"{grad_s / frozen_s:.2f}x", identical]
        )
        assert identical, f"frozen logits diverged at n={n}"
    return table


def bench_warm_start(tmp_dir: Path) -> tuple[ResultTable, int]:
    table = ResultTable(
        ["n nodes", "cold start (ms)", "warm start (ms)", "speedup",
         "cold distance pairs", "warm distance pairs"],
        title="Serving: cold (rebuild topology) vs warm (operator store) start",
    )
    warm_pairs_total = 0
    for n in SIZES:
        dataset = _dataset(n)
        model, trainer = _train_model(dataset)
        bundle = tmp_dir / f"bundle_{n}.npz"
        trainer.export_frozen(str(bundle))
        weights = model.state_dict()

        def cold_start():
            fresh = DHGNN(
                dataset.n_features, dataset.n_classes,
                hidden_dim=HIDDEN, n_layers=N_LAYERS, seed=0,
            )
            fresh.setup(dataset)
            fresh.load_state_dict(weights)
            return FrozenModel.compile(fresh, dataset.features).predict_labels()

        def warm_start():
            return InferenceSession(FrozenModel.load(bundle)).predict()

        DISTANCE_COUNTERS.reset()
        cold_s = _time(cold_start, reps=3)
        cold_pairs = DISTANCE_COUNTERS.pairs // 4  # warm-up + 3 reps
        DISTANCE_COUNTERS.reset()
        warm_s = _time(warm_start, reps=3)
        warm_pairs = DISTANCE_COUNTERS.pairs // 4
        warm_pairs_total += warm_pairs
        table.add_row(
            [n, round(cold_s * 1e3, 2), round(warm_s * 1e3, 2),
             f"{cold_s / warm_s:.1f}x", cold_pairs, warm_pairs]
        )
    return table, warm_pairs_total


def bench_online_insert(tmp_dir: Path) -> tuple[ResultTable, bool]:
    table = ResultTable(
        ["n nodes", "inserted", "incremental (ms)", "full rebuild (ms)", "speedup",
         "incremental pairs", "rebuild pairs", "full rebuilds per layer"],
        title=f"Serving: online insert ({INSERT_FRACTION:.0%} new nodes) vs full rebuild",
    )
    always_fewer_pairs = True
    for n in SIZES:
        dataset = _dataset(n)
        _, trainer = _train_model(dataset)
        bundle = tmp_dir / f"insert_bundle_{n}.npz"
        trainer.export_frozen(str(bundle))
        rng = np.random.default_rng(n)
        count = max(1, int(round(INSERT_FRACTION * n)))
        new_features = dataset.features[
            rng.choice(n, count, replace=False)
        ] + rng.normal(scale=0.05, size=(count, dataset.n_features))

        session = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        session.predict()
        DISTANCE_COUNTERS.reset()
        start = time.perf_counter()
        session.insert_nodes(new_features)
        session.predict()
        incremental_s = time.perf_counter() - start
        incremental_pairs = DISTANCE_COUNTERS.pairs

        rebuild = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        rebuild.predict()
        _reset_indices(rebuild)
        DISTANCE_COUNTERS.reset()
        start = time.perf_counter()
        rebuild.insert_nodes(new_features)
        rebuild.predict()
        rebuild_s = time.perf_counter() - start
        rebuild_pairs = DISTANCE_COUNTERS.pairs

        always_fewer_pairs = always_fewer_pairs and incremental_pairs < rebuild_pairs
        table.add_row(
            [n, count, round(incremental_s * 1e3, 2), round(rebuild_s * 1e3, 2),
             f"{rebuild_s / incremental_s:.2f}x", incremental_pairs, rebuild_pairs,
             [row["full_rebuilds"] for row in session.stats()["neighbors"]]]
        )
    return table, always_fewer_pairs


def bench_online_delete(tmp_dir: Path) -> tuple[ResultTable, bool, bool]:
    table = ResultTable(
        ["n nodes", "deleted", "incremental (ms)", "full rebuild (ms)", "speedup",
         "incremental pairs", "rebuild pairs", "op KiB before/after compact",
         "feature KiB before/after"],
        title=f"Serving: online delete ({DELETE_FRACTION:.0%} of nodes) + compact "
              f"vs full rebuild",
    )
    always_fewer_pairs = True
    always_frees_bytes = True
    for n in SIZES:
        dataset = _dataset(n)
        _, trainer = _train_model(dataset)
        bundle = tmp_dir / f"delete_bundle_{n}.npz"
        trainer.export_frozen(str(bundle))
        rng = np.random.default_rng(n + 1)
        count = max(1, int(round(DELETE_FRACTION * n)))
        doomed = np.sort(rng.choice(n, count, replace=False))

        session = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        session.predict()
        DISTANCE_COUNTERS.reset()
        start = time.perf_counter()
        session.delete_nodes(doomed)
        session.predict()
        incremental_s = time.perf_counter() - start
        incremental_pairs = DISTANCE_COUNTERS.pairs

        feature_bytes_before = session.features.nbytes
        op_bytes_before = _operator_bytes(session)
        session.compact()
        feature_bytes_after = session.features.nbytes
        op_bytes_after = _operator_bytes(session)
        always_frees_bytes = always_frees_bytes and (
            feature_bytes_after < feature_bytes_before
            and op_bytes_after < op_bytes_before
        )

        rebuild = InferenceSession(FrozenModel.load(bundle), cluster_assignment="frozen")
        rebuild.predict()
        _reset_indices(rebuild)
        DISTANCE_COUNTERS.reset()
        start = time.perf_counter()
        rebuild.delete_nodes(doomed)
        rebuild.predict()
        rebuild_s = time.perf_counter() - start
        rebuild_pairs = DISTANCE_COUNTERS.pairs

        always_fewer_pairs = always_fewer_pairs and incremental_pairs < rebuild_pairs
        table.add_row(
            [n, count, round(incremental_s * 1e3, 2), round(rebuild_s * 1e3, 2),
             f"{rebuild_s / incremental_s:.2f}x", incremental_pairs, rebuild_pairs,
             f"{op_bytes_before / 1024:.0f}/{op_bytes_after / 1024:.0f}",
             f"{feature_bytes_before / 1024:.0f}/{feature_bytes_after / 1024:.0f}"]
        )
    return table, always_fewer_pairs, always_frees_bytes


def main() -> None:
    import tempfile

    mode = "quick" if QUICK else "full"
    print(f"inference benchmark ({mode} mode)")

    forward_table = bench_forward()
    emit(forward_table, "bench_inference_forward", extra={"mode": mode})

    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        warm_table, warm_pairs = bench_warm_start(tmp_dir)
        emit(warm_table, "bench_inference_warm_start", extra={"mode": mode})

        insert_table, fewer_pairs = bench_online_insert(tmp_dir)
        emit(insert_table, "bench_inference_online_insert", extra={"mode": mode})

        delete_table, delete_fewer_pairs, compact_frees = bench_online_delete(tmp_dir)
        emit(delete_table, "bench_inference_online_delete", extra={"mode": mode})

    assert warm_pairs == 0, (
        f"warm operator-store start computed {warm_pairs} distance pairs (expected 0)"
    )
    assert fewer_pairs, "online insertion did not beat the full rebuild in distance pairs"
    assert delete_fewer_pairs, (
        "online deletion did not beat the full rebuild in distance pairs"
    )
    assert compact_frees, (
        "compact() did not shrink the feature matrix and operator bytes"
    )
    print(
        "OK: frozen logits bit-identical, warm start 0 distance pairs, online "
        "insert and delete < full-rebuild distance work, compact() frees "
        "feature/operator bytes"
    )


if __name__ == "__main__":
    main()
